"""Bipartite user-item interaction graph and stacked convolution embeddings.

Entities share one index space: users occupy ids ``0..n_users-1`` and items
``n_users..n_users+n_items-1``. The graph is in CSR form: entity e's sorted
neighbors are ``indices[indptr[e]:indptr[e + 1]]``. A neighbor plan holds
one ``(ids, counts)`` pair per layer, entity e's ``counts[e]`` ids after
those of the entities before it. One convolution step mean-pools sampled
neighbor features, projects them to a latent vector, merges with the
entity's inherent feature and L2-normalizes, all in one ``Tape.conv``
node. Stacking ``depth`` such layers propagates information across
multi-hop neighborhoods; each layer computes only the rows that the next
layer, or the caller, reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape

# parameter name templates for one convolution layer
LATENT_W = "diff{layer}.latent_w"   # d x d, applied to the pooled neighbor mean
LATENT_B = "diff{layer}.latent_b"   # d
MERGE_W = "diff{layer}.merge_w"     # d x 2d, applied to [inherent; latent]
MERGE_B = "diff{layer}.merge_b"     # d
INHERENT = "emb.inherent"           # |V| x d free embeddings


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Immutable bipartite adjacency as read-only CSR arrays."""

    n_users: int
    n_items: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_entities(self) -> int:
        return self.n_users + self.n_items


def build_interaction_graph(interactions, n_users, n_items) -> InteractionGraph:
    """Deduplicated symmetric CSR adjacency from a list of (user, item) pairs.

    Ids must be dense integers in range; non-integer ids, pairs that are
    not 2-tuples and out-of-range ids raise ValueError. Neighbor lists come
    out sorted, so construction is order-independent.
    """
    shape_error = "interactions must be (user, item) 2-tuples"
    try:
        pairs = np.array(interactions)
    except ValueError as err:   # ragged pairs have no array shape
        raise ValueError(shape_error) from err
    if pairs.shape == (0,):
        pairs = pairs.reshape(0, 2).astype(np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(shape_error)
    if pairs.dtype.kind not in "iu":
        raise ValueError(f"user and item ids must be integers, got "
                         f"{pairs.dtype} values")
    users, items = pairs[:, 0], pairs[:, 1]
    bad = (users < 0) | (users >= n_users) | (items < 0) | (items >= n_items)
    if bad.any():
        user, item = pairs[np.argmax(bad)].tolist()
        if not 0 <= user < n_users:
            raise ValueError(f"user id {user} out of range [0, {n_users})")
        raise ValueError(f"item id {item} out of range [0, {n_items})")
    n = n_users + n_items
    users, items = pairs.astype(np.intp, copy=False).T
    # keys src * n + dst, one per direction, sort by entity then neighbor
    keys = np.empty(2 * len(pairs), dtype=np.intp)
    user_keys, item_keys = keys[: len(pairs)], keys[len(pairs):]
    np.multiply(users, n, out=user_keys)
    user_keys += items
    user_keys += n_users
    np.add(items, n_users, out=item_keys)
    item_keys *= n
    item_keys += users
    keys.sort()
    fresh = np.empty(keys.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    del fresh
    # entity e's keys are those in [e * n, e * n + n)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    indices = np.remainder(keys, n, out=keys)
    indptr.flags.writeable = indices.flags.writeable = False
    return InteractionGraph(n_users, n_items, indptr, indices)


def sample_neighbor_plan(graph, cap, depth, rng):
    """Per-layer ``(ids, counts)`` neighbor samples for one diffusion pass.

    An entity of degree <= cap keeps all its neighbors; a larger one gets a
    uniform sample of cap without replacement, drawn exactly as one
    ``rng.choice(degree, cap, replace=False)`` per such entity in entity
    order, layer after layer. There numpy's ``Generator.choice`` runs
    Floyd's algorithm: a draw v in [0, j] for j = degree-cap .. degree-1
    (taking j if v is taken), then cap-1 shuffle draws. One
    ``rng.integers`` over all those bounds consumes the same stream; the
    shuffle is not applied, as each entity's ids come out sorted. Entities
    of degree > 10,000 with cap > degree // 50, where ``choice``
    tail-shuffles instead, call it in turn.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    degrees = np.diff(graph.indptr)
    counts = np.minimum(degrees, cap)
    over = np.flatnonzero(degrees > cap)
    starts, degs = graph.indptr[over], degrees[over]
    shuffled = np.flatnonzero((degs > 10_000) & (cap > degs // 50))
    floyd = np.delete(np.arange(over.size), shuffled)
    steps = np.arange(cap)
    first = (starts + degs - cap)[floyd]
    # one past each draw's largest value: rng.integers' exclusive bounds
    highs = np.hstack([(degs - cap + 1)[:, None] + steps,
                       np.broadcast_to(steps[:0:-1] + 1,
                                       (over.size, cap - 1))])
    plan = []
    for _ in range(depth):
        taken = np.repeat(degrees <= cap, degrees)    # edges kept whole
        draws = np.empty((over.size, cap), dtype=np.intp)
        lo = 0
        for row in [*shuffled.tolist(), over.size]:
            draws[lo:row] = rng.integers(0, highs[lo:row])[:, :cap]
            if row < over.size:
                taken[starts[row] + rng.choice(degs[row], cap,
                                               replace=False)] = True
            lo = row + 1
        picks = starts[floyd, None] + draws[floyd]
        for step, v in zip(steps, picks.T):
            taken[np.where(taken[v], first + step, v)] = True
        plan.append((graph.indices.take(np.flatnonzero(taken)), counts))
    return plan


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


def build_diffusion(tape, plan, param_nodes, depth, rows=None):
    """Stacked convolutions over the rows something reads, as tape nodes.

    The last layer computes ``rows`` (default: every entity), in that
    order; walking back, layer k computes the rows that layer k+1's
    segments read, in entity order. Each layer is one :meth:`Tape.conv`
    node whose segments of ``plan[k]`` point at the previous layer's rows
    (layer 0 pools the inherent table) and which merges its rows of the
    inherent table: ``depth`` nodes, whatever the graph size or neighbor
    cap. Rows in entity order are strictly increasing, so each layer's
    inherent-table gradient stays row-sparse until the param sums them.
    Returns the (len(rows), d) node. Each row pools as in the
    every-entity pass, so output rows and the inherent gradient are
    bit-equal to it (numpy's OpenBLAS). Weight gradients sum fewer rows:
    bit-equal at test and criterion-6 sizes, not at ML-1M's.
    """
    inherent = param_nodes[INHERENT]
    n = inherent.value.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    layers = []
    for ids, counts in reversed([plan[layer] for layer in range(depth)]):
        sizes = counts[rows]
        reads = ids[np.arange(sizes.sum()) + np.repeat(
            np.cumsum(counts)[rows] - np.cumsum(sizes), sizes)]
        layers.insert(0, (rows, reads, sizes))
        rows = np.flatnonzero(np.bincount(reads, minlength=n))
    features, position = inherent, np.arange(n)
    for layer, (rows, reads, sizes) in enumerate(layers):
        features = tape.conv(
            features, inherent, rows, position[reads], sizes,
            *(param_nodes[name.format(layer=layer)]
              for name in (LATENT_W, LATENT_B, MERGE_W, MERGE_B)))
        position[rows] = np.arange(rows.size)
    return features


def diffuse_all(graph, params, depth, cap, rng, rows=None):
    """Value-level diffusion pass: the diffused features of ``rows``, by
    default the (|V|, d) table of every entity (see :func:`build_diffusion`).

    Deterministic given the rng state (neighbor sampling is the only
    randomness). ``depth`` must be >= 1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    plan = sample_neighbor_plan(graph, cap, depth, rng)
    tape = Tape()
    nodes = {name: tape.param(name, value) for name, value in params.items()}
    out = build_diffusion(tape, plan, nodes, depth, rows)
    tape.forward()
    return out.value
