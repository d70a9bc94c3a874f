"""Bipartite user-item interaction graph and stacked convolution embeddings.

Entities share one index space: users occupy ids ``0..n_users-1`` and items
``n_users..n_users+n_items-1``. One convolution step mean-pools sampled
neighbor features, projects them to a latent vector, merges with the
entity's inherent feature and L2-normalizes. Stacking ``depth`` such layers
propagates information across multi-hop neighborhoods.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape

# parameter name templates for one convolution layer
LATENT_W = "diff{layer}.latent_w"   # d x d, applied to the pooled neighbor mean
LATENT_B = "diff{layer}.latent_b"   # d
MERGE_W = "diff{layer}.merge_w"     # d x 2d, applied to [inherent; latent]
MERGE_B = "diff{layer}.merge_b"     # d
INHERENT = "emb.inherent"           # |V| x d free embeddings


@dataclass(frozen=True)
class InteractionGraph:
    """Immutable bipartite adjacency over the shared entity index space."""

    n_users: int
    n_items: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n_entities(self) -> int:
        return self.n_users + self.n_items

    def item_entity(self, item: int) -> int:
        return self.n_users + item

    def neighbors(self, entity: int) -> tuple[int, ...]:
        return self.adjacency[entity]

    def degree(self, entity: int) -> int:
        return len(self.adjacency[entity])


def build_interaction_graph(interactions, n_users, n_items) -> InteractionGraph:
    """Deduplicated symmetric adjacency from (user, item) pairs.

    Ids must be dense integers in range; anything else raises ValueError.
    Neighbor lists come out sorted, so construction is order-independent.
    """
    adj = [set() for _ in range(n_users + n_items)]
    for user, item in interactions:
        if not (0 <= user < n_users):
            raise ValueError(f"user id {user} out of range [0, {n_users})")
        if not (0 <= item < n_items):
            raise ValueError(f"item id {item} out of range [0, {n_items})")
        e_item = n_users + item
        adj[user].add(e_item)
        adj[e_item].add(user)
    return InteractionGraph(
        n_users=n_users,
        n_items=n_items,
        adjacency=tuple(tuple(sorted(s)) for s in adj),
    )


def sample_neighbors(graph, entity, cap, rng) -> list[int]:
    """All neighbors when degree <= cap, else a uniform sample without
    replacement of size cap. Returned sorted so downstream mean pooling is
    independent of sampling order. Isolated entities yield []."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    nbrs = graph.neighbors(entity)
    if len(nbrs) <= cap:
        return list(nbrs)
    picked = rng.choice(len(nbrs), size=cap, replace=False)
    return sorted(nbrs[i] for i in picked)


def sample_neighbor_plan(graph, cap, depth, rng) -> list[list[list[int]]]:
    """Per-layer, per-entity neighbor samples, fixed for one diffusion pass."""
    return [
        [sample_neighbors(graph, e, cap, rng) for e in range(graph.n_entities)]
        for _ in range(depth)
    ]


def init_diffusion_params(n_entities, dim, depth, rng) -> dict[str, np.ndarray]:
    """Inherent embeddings plus per-layer convolution weights.

    Embeddings are uniform in [-1/sqrt(d), 1/sqrt(d)]; weight matrices use
    the same scale over their fan-in.
    """
    bound = 1.0 / np.sqrt(dim)
    params = {INHERENT: rng.uniform(-bound, bound, size=(n_entities, dim))}
    for layer in range(depth):
        params[LATENT_W.format(layer=layer)] = rng.uniform(
            -bound, bound, size=(dim, dim))
        params[LATENT_B.format(layer=layer)] = np.zeros(dim)
        merge_bound = 1.0 / np.sqrt(2 * dim)
        params[MERGE_W.format(layer=layer)] = rng.uniform(
            -merge_bound, merge_bound, size=(dim, 2 * dim))
        params[MERGE_B.format(layer=layer)] = np.zeros(dim)
    return params


def build_layer(tape, features, inherent, ids, counts, latent_w, latent_b,
                merge_w, merge_b):
    """One convolution for every row of ``inherent``, as tape nodes.

    Row i mean-pools ``features[ids[o_i : o_i + counts[i]]]`` (zero when
    empty) in one :meth:`Tape.segment_mean`, projects the pool to a latent
    vector, merges it with inherent row i and L2-normalizes.
    """
    pooled = tape.segment_mean(features, ids, counts)
    latent = tape.relu(tape.add(tape.matmul(pooled, tape.transpose(latent_w)),
                                latent_b))
    merged = tape.concat([inherent, latent], axis=1)
    fused = tape.relu(tape.add(tape.matmul(merged, tape.transpose(merge_w)),
                               merge_b))
    return tape.l2norm(fused)


def convolve(inherent, neighbor_feats, latent_w, latent_b, merge_w, merge_b):
    """Value-level single-entity convolution: :func:`build_layer` at n=1.
    No neighbors pool to zero."""
    inherent = np.asarray(inherent, dtype=np.float64).reshape(1, -1)
    neighbors = np.asarray(neighbor_feats, dtype=np.float64).reshape(
        -1, inherent.shape[1])
    tape = Tape()
    out = build_layer(
        tape, tape.leaf("neighbors", neighbors), tape.leaf("inherent", inherent),
        np.arange(len(neighbors)), [len(neighbors)], *map(
            tape.leaf, ("lw", "lb", "mw", "mb"),
            (latent_w, latent_b, merge_w, merge_b)))
    tape.forward()
    return out.value[0]


def build_diffusion(tape, graph, plan, param_nodes, depth):
    """Stacked convolutions over all entities, as tape nodes.

    Layer k consumes layer k-1 outputs (layer 0 is the inherent table) and
    updates every entity synchronously with one :func:`build_layer`, whose
    segment op pools each entity's neighbors in ``plan[k]`` order. The
    node count is O(depth), whatever the graph size or neighbor cap.
    Returns the (|V|, d) diffused matrix node, rows in entity order.
    """
    inherent = param_nodes[INHERENT]
    features = inherent
    for layer in range(depth):
        samples = plan[layer]
        ids = np.fromiter(itertools.chain.from_iterable(samples),
                          dtype=np.intp)
        counts = np.fromiter(map(len, samples), dtype=np.intp,
                             count=graph.n_entities)
        features = build_layer(
            tape, features, inherent, ids, counts,
            *(param_nodes[name.format(layer=layer)]
              for name in (LATENT_W, LATENT_B, MERGE_W, MERGE_B)))
    return features


@dataclass
class EmbeddingTable:
    """Diffused feature matrix over the entity index space."""

    diffused: np.ndarray


def diffuse_all(graph, params, depth, cap, rng):
    """Value-level diffusion pass: returns an :class:`EmbeddingTable`.

    Deterministic given the rng state (neighbor sampling is the only
    randomness). ``depth`` must be >= 1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    plan = sample_neighbor_plan(graph, cap, depth, rng)
    tape = Tape()
    nodes = {name: tape.param(name, value) for name, value in params.items()}
    out = build_diffusion(tape, graph, plan, nodes, depth)
    tape.forward()
    return EmbeddingTable(diffused=out.value)
