"""Seeded inputs for the benchmark workloads.

``ACCEPT6`` repeats the world and hyperparameters of the criterion-6
acceptance fixture (``tests/test_acceptance.py``); the benchmark keeps its
own copy so that it never imports the test suite. ``ml1m_world`` generates
a MovieLens-1M-shaped interaction log: the real file is not bundled, so the
scale workload uses a synthetic graph of the same size and degree shape.
metacsr only ever sees the generated histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACCEPT6 = {
    "world": dict(n_items=500, n_chains=3, n_regular=300, n_new=60,
                  mix_weight=0.95, successors=1, chain_kind="permutation",
                  seq_len_min=40, seq_len_max=60, seed=101),
    "model": dict(dim=24, diffusion_depth=1, neighbor_cap=12, t_min=2,
                  t_max=8),
    "meta": dict(inner_lr=0.5, outer_lr=2e-2, inner_steps=1,
                 weight_decay=5e-4, task_batch=4, n_way=8, k_support=5,
                 k_query=10, k_neg=4, fine_tune_steps=5,
                 plateau_windows=1000, max_outer_steps=100000),
    "seed": 202,
}

# MovieLens-1M: 6,040 users, 3,706 rated items, 1,000,209 ratings, and
# every user has rated at least 20 movies.
ML1M_USERS = 6040
ML1M_ITEMS = 3706
ML1M_EDGES = 1_000_209
ML1M_MIN_DEGREE = 20
ML1M_MAX_DEGREE = 2314
EDGE_TOLERANCE = 0.05


@dataclass
class Ml1mWorld:
    """User histories (item ids in behavior order) over the catalog."""

    regular: dict[int, list[int]]
    n_items: int

    @property
    def n_edges(self) -> int:
        return sum(len(h) for h in self.regular.values())


def _degrees(rng, n_users, target_edges):
    """Heavy-tailed (log-normal) behavior counts >= ML1M_MIN_DEGREE whose
    sum lands on ``target_edges``; the scale is found by bisection."""
    raw = rng.lognormal(mean=0.0, sigma=1.0, size=n_users)
    lo, hi = 0.0, float(ML1M_MAX_DEGREE)
    for _ in range(60):
        scale = 0.5 * (lo + hi)
        degrees = np.minimum(ML1M_MIN_DEGREE + np.floor(raw * scale),
                             ML1M_MAX_DEGREE).astype(np.int64)
        if degrees.sum() < target_edges:
            lo = scale
        else:
            hi = scale
    return degrees


def ml1m_world(seed) -> Ml1mWorld:
    """ML-1M-shaped world: Zipf item popularity, log-normal user activity.

    Each user picks their count of distinct items without replacement,
    weighted by a Zipf(1) popularity over a seeded item ranking (Gumbel
    top-k), in a seeded order. The realised shape is checked before
    returning.
    """
    rng = np.random.default_rng(seed)
    degrees = _degrees(rng, ML1M_USERS, ML1M_EDGES)
    ranks = rng.permutation(ML1M_ITEMS) + 1
    log_pop = -np.log(ranks.astype(np.float64))
    histories = {}
    for user, degree in enumerate(degrees):
        keys = log_pop + rng.gumbel(size=ML1M_ITEMS)
        picked = np.argpartition(-keys, degree - 1)[:degree]
        rng.shuffle(picked)
        histories[user] = picked.tolist()
    world = Ml1mWorld(regular=histories, n_items=ML1M_ITEMS)
    check_ml1m_shape(world)
    return world


def check_ml1m_shape(world):
    """Raise ValueError unless the world has the ML-1M shape."""
    n_edges = world.n_edges
    items = set()
    for history in world.regular.values():
        items.update(history)
    problems = []
    if len(world.regular) != ML1M_USERS:
        problems.append(f"{len(world.regular)} users, want {ML1M_USERS}")
    if len(items) != world.n_items or world.n_items != ML1M_ITEMS:
        problems.append(f"{len(items)} items used of {world.n_items}, "
                        f"want {ML1M_ITEMS}")
    if abs(n_edges - ML1M_EDGES) > EDGE_TOLERANCE * ML1M_EDGES:
        problems.append(f"{n_edges} edges, want {ML1M_EDGES} +- 5%")
    low = min(len(h) for h in world.regular.values())
    if low < ML1M_MIN_DEGREE:
        problems.append(f"minimum degree {low} < {ML1M_MIN_DEGREE}")
    if any(len(set(h)) != len(h) for h in world.regular.values()):
        problems.append("a user repeats an item")
    if problems:
        raise ValueError("ML-1M-shaped world: " + "; ".join(problems))
