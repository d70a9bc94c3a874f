"""Reference scorers for directional comparisons.

Popularity ranks by global training-interaction counts. BPR-MF learns user
and item factors with SGD on sampled (user, positive, negative) triples;
users it never trained (cold users) are represented by the mean item factor
of their behaviors before the held-out one. The joint trainer fits the full
metaCSR architecture with plain Adam mini-batches (no episodes, no inner
loop), which is the "without meta-learning" ablation arm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, metrics
from . import meta as meta_mod
from .autodiff import stable_sigmoid
from .data import window_sequence
from .seeding import component_rng


@dataclass
class PopularityModel:
    counts: np.ndarray

    @classmethod
    def fit(cls, histories, n_items):
        counts = np.zeros(n_items)
        for items in histories.values():
            for item in items:
                counts[item] += 1
        return cls(counts=counts)

    def rank(self, user, history, candidates):
        return metrics.ranked(candidates,
                              [self.counts[item] for item in candidates])


@dataclass
class BprMfModel:
    user_factors: np.ndarray
    item_factors: np.ndarray
    trained_users: frozenset

    def rank(self, user, history, candidates):
        """``history`` ends with the held-out positive, which the cold-user
        fallback leaves out."""
        if user in self.trained_users:
            vector = self.user_factors[user]
        else:
            vector = self.item_factors[history[:-1]].mean(axis=0)
        return metrics.ranked(
            candidates, self.item_factors[np.asarray(candidates)] @ vector)


def train_bpr(histories, n_users, n_items, rng, dim=32, epochs=20,
              lr=0.05, reg=0.002):
    """SGD over sampled triples on the pairwise logistic objective.

    One epoch visits every (user, item) interaction once in a shuffled
    order, pairing each with a uniformly sampled unseen negative. A user
    who has interacted with every item has no negative to draw: a
    ValueError.
    """
    seen = {u: set(items) for u, items in histories.items()}
    for user, items in seen.items():
        if items and len(items) >= n_items and items.issuperset(
                range(n_items)):
            raise ValueError(f"user {user} has interacted with all "
                             f"{n_items} items: no negative to draw")
    user_factors = rng.normal(scale=0.1, size=(n_users, dim))
    item_factors = rng.normal(scale=0.1, size=(n_items, dim))
    pairs = [(u, it) for u, items in sorted(histories.items())
             for it in items]
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        for idx in order:
            user, pos = pairs[idx]
            neg = int(rng.integers(n_items))
            while neg in seen[user]:
                neg = int(rng.integers(n_items))
            pu = user_factors[user]
            diff = item_factors[pos] - item_factors[neg]
            weight = 1.0 - float(stable_sigmoid(np.asarray(pu @ diff)))
            grad_u = weight * diff - reg * pu
            grad_pos = weight * pu - reg * item_factors[pos]
            grad_neg = -weight * pu - reg * item_factors[neg]
            user_factors[user] += lr * grad_u
            item_factors[pos] += lr * grad_pos
            item_factors[neg] += lr * grad_neg
    return BprMfModel(user_factors=user_factors, item_factors=item_factors,
                      trained_users=frozenset(u for u, _ in pairs))


def joint_train(graph_, histories, params, cfg, seed, max_steps=None,
                batch_size=None, on_step=None):
    """Plain Adam mini-batch training of the identical architecture.

    Each step draws random training windows from all regular users and
    minimizes the same pairwise objective; there are no episodes and no
    inner adaptation, so this is the meta-less arm of the comparison.
    Mutates ``params``; returns the loss trace. A negative ``max_steps``
    is a ValueError.
    """
    cfg.validate()
    config = params.config
    rng_batch = component_rng(seed, "joint/batches")
    rng_neg = component_rng(seed, "joint/negatives")
    rng_plan = component_rng(seed, "joint/neighbor-plan")
    eligible = sorted(u for u, h in histories.items()
                      if len(h) >= config.t_min + 1)
    if not eligible:
        raise ValueError("no users long enough for training windows")
    if batch_size is None:
        batch_size = cfg.task_batch * cfg.n_way
    adam = meta_mod.AdamState()
    cap = cfg.max_outer_steps if max_steps is None else max_steps
    if cap < 0:
        raise ValueError(f"max_steps must be >= 0, not {cap!r}")
    trace = []
    for step in range(cap):
        picked = rng_batch.choice(len(eligible), size=batch_size)
        batch = [window_sequence(histories[eligible[i]], config.t_min,
                                 config.t_max, rng_batch, user=eligible[i])
                 for i in picked]
        # the feature pass is released as soon as the call returns
        value, g1, g2 = meta_mod.query_grads(
            losses.ItemFeatures(graph_, params, rng_plan),
            [(params.theta2, batch, rng_neg)], cfg, histories, config)
        adam.apply(params.theta1, g1, cfg)
        adam.apply(params.theta2, meta_mod.sum_grads(g2), cfg)
        trace.append((step, value))
        if on_step:
            on_step(step, value)
    return trace
