"""Masked bidirectional self-attention over a user's item-embedding sequence.

For a sequence of T item embeddings, each pair (m, n) gets a content logit
``score_w^T sigmoid(src_w @ e_m + dst_w @ e_n)`` plus an additive position
bias of ``-exp(|m - n|)`` that decays attention with distance. The forward
pass lets position n attend to sources m <= n, the backward pass to m >= n
(the diagonal is included in both so every position has a non-empty
attendable set). Both directions are one ``attention`` tape node, whose
value holds the two outputs side by side; it is mean-pooled over positions
and projected to the preference vector. A batch of sequences of any
lengths is encoded as one block padded to the longest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, stable_sigmoid

# theta2 parameter names
ATT_SCORE_W = "seq.att_score_w"   # d x 1
ATT_SRC_W = "seq.att_src_w"       # d x d, applied to the attended source e_m
ATT_DST_W = "seq.att_dst_w"       # d x d, applied to the target position e_n
COMBINE_W = "seq.combine_w"       # d x 2d
COMBINE_B = "seq.combine_b"       # d


@dataclass(frozen=True)
class PositionBias:
    """Additive attention masks: finite entries are -exp(|m - n|)."""

    forward: np.ndarray   # [m, n] finite iff m <= n
    backward: np.ndarray  # [m, n] finite iff m >= n


def position_bias(length: int) -> PositionBias:
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    idx = np.arange(length)
    decay = -np.exp(np.abs(idx[:, None] - idx[None, :]).astype(np.float64))
    fw = np.where(idx[:, None] <= idx[None, :], decay, -np.inf)
    bw = np.where(idx[:, None] >= idx[None, :], decay, -np.inf)
    return PositionBias(forward=fw, backward=bw)


def init_seq_params(dim, rng) -> dict[str, np.ndarray]:
    bound = 1.0 / np.sqrt(dim)
    return {
        ATT_SCORE_W: rng.uniform(-bound, bound, size=(dim, 1)),
        ATT_SRC_W: rng.uniform(-bound, bound, size=(dim, dim)),
        ATT_DST_W: rng.uniform(-bound, bound, size=(dim, dim)),
        COMBINE_W: rng.uniform(-1.0 / np.sqrt(2 * dim), 1.0 / np.sqrt(2 * dim),
                               size=(dim, 2 * dim)),
        COMBINE_B: np.zeros(dim),
    }


def build_attention(tape, embeds, params, lengths, biases):
    """Masked self-attention over stacked sequences padded to T rows each.

    ``embeds`` holds the sequences' item embeddings as consecutive blocks
    of T rows, of which sequence i's first ``lengths[i]`` are live; the
    padded rows may hold any finite embedding. Each of ``biases`` is a
    (T, T) numpy mask for one direction, indexed [m, n]. The content logit
    is computed once, for the live pairs alone: m and n inside the
    sequence, and the bias finite in some direction. Each direction
    gathers its logits from that one vector, one row per (sequence, target
    position n); its dead entries read slot 0 and are masked by -inf. A
    row softmax thus yields each position's distribution over sources m
    (all zero on padded rows), and each sequence's (T, T) block of those
    rows mixes its own embeddings. Returns the one ``attention`` node: the
    (n_seq * T, len(biases) * d) table of the directions' outputs side by
    side, rows in (sequence, position) order; its ``saved[1]`` holds each
    direction's (n_seq * T, T) weights after a forward.
    """
    t_len = biases[0].shape[0]
    inside = np.arange(t_len) < np.asarray(lengths)[:, None]
    # [sequence, n, m] masks, one per direction, and their union
    finite = [inside[:, :, None] & inside[:, None, :] & np.isfinite(b.T)
              for b in biases]
    live = np.logical_or.reduce(finite)
    seq_i, pos_n, pos_m = np.nonzero(live)
    slot = np.zeros(live.shape, dtype=np.intp)
    slot[live] = np.arange(seq_i.size)
    # pair i attends from source m to target n
    return tape.attention(
        embeds, params[ATT_SRC_W], params[ATT_DST_W], params[ATT_SCORE_W],
        seq_i * t_len + pos_m, seq_i * t_len + pos_n,
        slot.reshape(-1, t_len),
        [np.where(ok, bias.T, -np.inf).reshape(-1, t_len)
         for bias, ok in zip(biases, finite)])


def block_mean(tape, rows, lengths):
    """Mean over the first ``lengths[i]`` rows of each sequence's block of
    ``max(lengths)`` consecutive rows: the (n_seq, d) node."""
    lengths = np.asarray(lengths)
    live = np.arange(lengths.max()) < lengths[:, None]
    return tape.segment_mean(rows, np.flatnonzero(live), lengths)


def build_preference(tape, attended, params, lengths):
    """Mean-pool the (n_seq * T, 2d) attention table ``[forward |
    backward]`` per sequence and project: the (n_seq, d) preference
    node."""
    return tape.dense(block_mean(tape, attended, lengths), params[COMBINE_W],
                      params[COMBINE_B])


def build_sequence_encoder(tape, embeds, params, lengths):
    """Full encoder: padded embeddings node (see :func:`build_attention`)
    -> (n_seq, d) preference node."""
    bias = position_bias(int(np.max(lengths)))
    attended = build_attention(tape, embeds, params, lengths,
                               (bias.forward, bias.backward))
    return build_preference(tape, attended, params, lengths)


def encode_sequence(seq_embeds, params):
    """Value-level full encoder for one sequence."""
    seq_embeds = np.asarray(seq_embeds, dtype=np.float64)
    tape = Tape()
    nodes = {name: tape.leaf(name, value) for name, value in params.items()}
    node = build_sequence_encoder(tape, tape.leaf("e", seq_embeds), nodes,
                                  [seq_embeds.shape[0]])
    tape.forward()
    return node.value[0].copy()


def score_candidates(preference, item_embeds):
    """Engagement probabilities: sigmoid(item_embeds @ preference)."""
    preference = np.asarray(preference, dtype=np.float64)
    item_embeds = np.asarray(item_embeds, dtype=np.float64)
    return stable_sigmoid(item_embeds @ preference)
