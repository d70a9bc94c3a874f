"""Held-out next-item evaluation for cold and warm scenarios.

Every test user contributes one query: the last behavior is the positive,
paired with sampled negatives the user never touched. Cold users are
fine-tuned on their remaining behaviors first; warm users are scored
directly. Any scorer exposing ``rank(user, history, candidates)`` can be
plugged in, so the baselines share the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import meta, metrics
from . import sequence as seq
from .autodiff import Segments
from .data import BehaviorSequence, build_eval_candidates
from .seeding import component_rng


def support_sequences(user, history, t_min, t_max):
    """Deterministic adaptation examples from a history prefix.

    One sequence per eligible target inside ``history[:-1]`` (the held-out
    last behavior never appears), each with the longest window up to t_max.
    """
    prefix = history[:-1]
    out = []
    for target_index in range(t_min, len(prefix)):
        window = prefix[max(0, target_index - t_max):target_index]
        out.append(BehaviorSequence(user=user, items=tuple(window),
                                    target=prefix[target_index]))
    return out


@dataclass
class ModelScorer:
    """Ranks candidates with the meta model, optionally fine-tuning."""

    params: object
    features: np.ndarray
    cfg: meta.MetaConfig
    fine_tune_steps: int = 0
    seed: int = 0

    def rank(self, user, history, candidates):
        """The meta-test step: adapt theta2 to ``user`` with
        ``fine_tune_steps`` SGD updates on the support sequences of
        ``history`` (none: the meta-initialization scores directly), encode
        the last ``t_max`` items before the held-out behavior and score
        ``candidates``. Negatives for the updates come from the user's
        ``fine-tune/{user}`` stream and avoid ``set(history)``, passed as
        ``{user: history}``. Without the sequence encoder the window pools
        as a ``segment_mean`` node does, and candidates score by
        ``pair_loss``'s rule. Returns (item, score) pairs in
        :func:`metrics.rank_order`."""
        config = self.params.config
        support = support_sequences(user, history, config.t_min,
                                    config.t_max) \
            if self.fine_tune_steps > 0 else []
        theta2 = meta.fine_tune_theta2(
            self.params, support, self.features, self.cfg,
            component_rng(self.seed, f"fine-tune/{user}"),
            {user: history}, self.fine_tune_steps)
        window = list(history[:-1])[-config.t_max:]
        if config.use_sequence:
            s_u = seq.encode_sequence(self.features[window], theta2)
        else:
            s_u = Segments(window, [len(window)]).forward(self.features)[0]
        return metrics.ranked(candidates, seq.score_candidates(
            s_u, self.features[list(candidates)]))


def evaluate_model(scorer, test_histories, n_items, n_neg=100, seed=0,
                   top_n=range(1, 21), min_history=3, **report_meta):
    """Score every eligible test user and aggregate a MetricsReport.

    Users need ``min_history`` behaviors (window + held-out target).
    Candidate sets are deterministic per (user, seed).
    """
    queries = []
    per_user = []
    for user in sorted(test_histories):
        history = test_histories[user]
        if len(history) < min_history:
            continue
        rng = component_rng(seed, f"candidates/{user}")
        positive, negatives = build_eval_candidates(history, n_items, n_neg,
                                                    rng)
        items, scores = zip(*scorer.rank(user, history,
                                         [positive] + negatives))
        query = metrics.RankedQuery(
            scores=scores, relevant=tuple(item == positive for item in items),
            item_ids=items)
        queries.append(query)
        per_user.append((user, items.index(positive) + 1, metrics.auc([query])))
    if not queries:
        raise ValueError("no eligible test users")
    report = metrics.build_report(queries, top_n=top_n, seed=seed,
                                  **report_meta)
    return report, per_user
