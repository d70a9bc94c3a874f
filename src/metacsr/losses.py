"""Pairwise ranking objective, the batch loss graph and the item features.

The per-pair loss is the numerically safe BPR form
``-log sigmoid(p_pos - p_neg)`` (softplus of the negated difference),
mean-reduced over each sequence's sampled negatives and then over the
batch. ``build_batch_loss`` assembles a whole batch on one tape as two
nodes: one ``encoder`` node (or, without the sequence encoder, one
``segment_mean`` node) gathers every sequence's item rows from the
feature table and pools them to preferences, and one ``pair_loss`` node
scores every candidate and reduces the pairs. The item features enter
it as a node: :class:`ItemFeatures` is the one differentiable pass from
theta1 (a loss tape reads its value as a param and hands that param's
gradient back), and ``cached_item_features`` is the value-only table for
evaluation.
"""

from __future__ import annotations

import numpy as np

from . import graph as gr
from . import sequence as seq
from .autodiff import Tape
from .data import sample_negatives


def build_batch_loss(tape, item_features, theta2, sequences, k_neg, rng,
                     histories, n_items, use_sequence=True):
    """Sequence encoding + scoring + pairwise loss for one batch; returns
    the scalar mean-loss node.

    ``item_features`` is a (n_items, d) node; ``theta2`` maps sequence
    parameter names to nodes. Negatives are drawn in one call for the
    batch, sequence by sequence in input order, from items outside
    ``set(histories[user])``: one set per user of the batch, made here and
    dropped with the call. An empty batch is a ValueError.
    """
    if k_neg < 1:
        raise ValueError("k_neg must be >= 1")
    if not sequences:
        raise ValueError("no sequences in batch")
    seen = {u: set(histories[u]) for u in {s.user for s in sequences}}
    negatives = sample_negatives([seen[s.user] for s in sequences], n_items,
                                 k_neg, rng)

    lengths = [len(s.items) for s in sequences]
    ids = [i for s in sequences for i in s.items]
    if use_sequence:
        prefs = seq.build_sequence_encoder(tape, item_features, ids, theta2,
                                           lengths)
    else:
        prefs = tape.segment_mean(item_features, ids, lengths)
    cand_ids = [c for s, sampled in zip(sequences, negatives)
                for c in (s.target, *sampled)]
    # equal k_neg everywhere: the mean over all pairs is the mean over
    # sequences of per-sequence means
    return tape.pair_loss(item_features, prefs, cand_ids, k_neg)


def item_feature_node(tape, graph_, theta1_nodes, config, plan=None):
    """Item-rows feature node: the diffusion output, or the raw inherent
    table's item rows (each a mean over one row, the row times 1.0) when
    diffusion is ablated; either way gradients reach theta1. Diffusion
    computes only the item rows and what they read (see
    :func:`graph.build_diffusion`)."""
    item_rows = np.arange(graph_.n_users, graph_.n_entities)
    if not config.use_diffusion:
        return tape.segment_mean(theta1_nodes[gr.INHERENT], item_rows,
                                 np.ones_like(item_rows))
    if plan is None:
        raise ValueError("diffusion requires a neighbor plan")
    return gr.build_diffusion(tape, plan, theta1_nodes,
                              config.diffusion_depth, item_rows)


class ItemFeatures:
    """One forward pass of the item-feature table from theta1.

    Draws a neighbor plan from ``rng`` when diffusion is on and keeps the
    pass on its own tape, so a loss built over ``value`` (read as a param
    of the loss's tape) can push its gradient w.r.t. the table back to
    theta1. theta1 must not change between the pass and
    :meth:`theta1_grads`. The tape computes only the rows that reach the
    item rows (see :func:`item_feature_node`) and keeps what their
    backward reads (see :meth:`Tape.conv`); the plan is dropped once the
    tape is built. In a backward, the inherent table's gradient stays
    row-sparse until its param sums it into one table.
    """

    def __init__(self, graph_, params, rng):
        config = params.config
        plan = gr.sample_neighbor_plan(
            graph_, config.neighbor_cap, config.diffusion_depth, rng) \
            if config.use_diffusion else None
        self._tape = Tape()
        nodes = {name: self._tape.param(name, value)
                 for name, value in params.theta1.items()}
        self._out = item_feature_node(self._tape, graph_, nodes, config,
                                      plan=plan)
        del plan    # freed before the forward; the tape holds what it reads
        self._tape.forward()
        self.value = self._out.value

    def theta1_grads(self, adjoint):
        """theta1 gradients of a loss whose gradient w.r.t. the table is
        ``adjoint``; a fresh mapping per call."""
        return self._tape.backward(self._out, adjoint=adjoint)


def cached_item_features(graph_, params, rng):
    """Concrete item feature table, theta1 frozen: the value of
    :func:`item_feature_node` for a plan drawn from ``rng``."""
    config = params.config
    if not config.use_diffusion:
        return params.theta1[gr.INHERENT][graph_.n_users:].copy()
    return gr.diffuse_all(graph_, params.theta1, config.diffusion_depth,
                          config.neighbor_cap, rng,
                          np.arange(graph_.n_users, graph_.n_entities))
