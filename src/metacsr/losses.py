"""Pairwise ranking objective and the full differentiable training graph.

The per-pair loss is the numerically safe BPR form
``-log sigmoid(p_pos - p_neg)`` (softplus of the negated difference),
mean-reduced over each sequence's sampled negatives and then over the
batch. ``build_batch_loss`` assembles sequence encoding and scoring for a
whole batch on one tape, grouping sequences of equal length so the node
count stays small; ``build_model_loss`` prepends the diffusion stack to
produce the complete graph from raw parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from . import sequence as seq
from .autodiff import Tape
from .data import sample_negatives

log = logging.getLogger(__name__)


def pairwise_loss(p_pos, p_negs) -> float:
    """Mean over negatives of -log sigmoid(p_pos - p_neg)."""
    if len(p_negs) == 0:
        raise ValueError("need at least one negative")
    diffs = np.asarray([p_pos - p for p in p_negs], dtype=np.float64)
    return float(np.logaddexp(0.0, -diffs).mean())


@dataclass
class BatchInfo:
    """What the batch builder actually used (for tests and diagnostics)."""

    n_sequences: int = 0
    n_skipped: int = 0
    negatives: list[list[int]] = field(default_factory=list)


def _grouped_preferences(tape, item_features, group, theta2, use_sequence):
    """(n_seq, d) preference matrix node for equal-length sequences."""
    t_len = len(group[0].items)
    n_seq = len(group)
    all_ids = np.asarray([it for s in group for it in s.items])
    embeds = tape.lookup(item_features, all_ids)
    if not use_sequence:
        return seq.block_mean(tape, embeds, n_seq, t_len)
    return seq.build_sequence_encoder(tape, embeds, theta2, n_seq, t_len)


def _scores(tape, prefs, item_features, cand_ids, rep_seq, theta2):
    """Engagement probabilities for candidate rows against their sequences."""
    cands = tape.lookup(item_features, np.asarray(cand_ids))
    prefs_rep = tape.lookup(prefs, np.asarray(rep_seq))
    dim = theta2[seq.COMBINE_B].value.shape[0]
    # row dot products via mean * d, avoiding a per-row reduction op
    return tape.sigmoid(
        tape.scale(tape.mean_axis(tape.mul(cands, prefs_rep), 1), dim))


def build_batch_loss(tape, item_features, theta2, sequences, k_neg, rng,
                     user_positives, n_items, t_min=2, use_sequence=True):
    """Sequence encoding + scoring + pairwise loss for one batch.

    ``item_features`` is a (n_items, d) node; ``theta2`` maps sequence
    parameter names to nodes. Negatives are sampled per sequence, in input
    order, from items outside ``user_positives[user]``. Sequences shorter
    than ``t_min`` are skipped with a counted warning. Returns
    (scalar mean-loss node, BatchInfo).
    """
    if k_neg < 1:
        raise ValueError("k_neg must be >= 1")
    info = BatchInfo()
    usable = []
    for s in sequences:
        if len(s.items) < t_min:
            info.n_skipped += 1
            continue
        positives = user_positives.get(s.user, set())
        info.negatives.append(sample_negatives(positives, n_items, k_neg, rng))
        usable.append(s)
    if info.n_skipped:
        log.warning("skipped %d sequences shorter than %d",
                    info.n_skipped, t_min)
    if not usable:
        raise ValueError("no usable sequences in batch")
    info.n_sequences = len(usable)

    by_len: dict[int, list[int]] = {}
    for idx, s in enumerate(usable):
        by_len.setdefault(len(s.items), []).append(idx)

    pair_nodes = []
    for t_len in sorted(by_len):
        idxs = by_len[t_len]
        group = [usable[i] for i in idxs]
        prefs = _grouped_preferences(tape, item_features, group, theta2,
                                     use_sequence)
        width = 1 + k_neg
        cand_ids = []
        rep_seq = []
        for row, i in enumerate(idxs):
            cand_ids.append(usable[i].target)
            cand_ids.extend(info.negatives[i])
            rep_seq.extend([row] * width)
        probs = _scores(tape, prefs, item_features, cand_ids, rep_seq, theta2)
        pos_rep = [row * width for row in range(len(idxs)) for _ in range(k_neg)]
        neg_pos = [row * width + 1 + j
                   for row in range(len(idxs)) for j in range(k_neg)]
        pairs = tape.softplus(tape.add(tape.lookup(probs, neg_pos),
                                       tape.neg(tape.lookup(probs, pos_rep))))
        pair_nodes.append(pairs)
    all_pairs = pair_nodes[0] if len(pair_nodes) == 1 \
        else tape.concat(pair_nodes, axis=0)
    # equal k_neg everywhere: mean over all pairs == mean over sequences of
    # per-sequence means
    return tape.mean_axis(all_pairs, 0), info


def item_feature_node(tape, graph_, theta1_nodes, config, plan=None):
    """Item-rows feature node: the diffusion output, or the raw inherent
    table when diffusion is ablated; either way gradients reach theta1."""
    item_rows = np.arange(graph_.n_users, graph_.n_entities)
    if not config.use_diffusion:
        return tape.lookup(theta1_nodes[gr.INHERENT], item_rows)
    if plan is None:
        raise ValueError("diffusion requires a neighbor plan")
    diffused = gr.build_diffusion(tape, graph_, plan, theta1_nodes,
                                  config.diffusion_depth)
    return tape.lookup(diffused, item_rows)


def build_model_loss(graph_, params, sequences, k_neg, rng, user_positives,
                     plan=None):
    """Complete loss graph from raw parameters.

    Returns (tape, loss node, BatchInfo).
    """
    tape = Tape()
    config = params.config
    theta1_nodes = {name: tape.param(name, value)
                    for name, value in params.theta1.items()}
    theta2_nodes = {name: tape.param(name, value)
                    for name, value in params.theta2.items()}
    features = item_feature_node(tape, graph_, theta1_nodes, config,
                                 plan=plan)
    loss, info = build_batch_loss(
        tape, features, theta2_nodes, sequences, k_neg, rng, user_positives,
        n_items=graph_.n_items, t_min=config.t_min,
        use_sequence=config.use_sequence)
    return tape, loss, info


def cached_item_features(graph_, params, rng):
    """Concrete diffused (or inherent) item feature table, theta1 frozen."""
    config = params.config
    if not config.use_diffusion:
        return params.theta1[gr.INHERENT][graph_.n_users:].copy()
    table = gr.diffuse_all(graph_, params.theta1, config.diffusion_depth,
                           config.neighbor_cap, rng)
    return table.diffused[graph_.n_users:].copy()
