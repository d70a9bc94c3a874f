"""Masked bidirectional self-attention over a user's item-embedding sequence.

For a sequence of T item embeddings, each pair (m, n) gets a content logit
``score_w^T sigmoid(src_w @ e_m + dst_w @ e_n)`` plus an additive position
bias of ``-exp(|m - n|)`` that decays attention with distance. The forward
pass lets position n attend to sources m <= n, the backward pass to m >= n
(the diagonal is included in both so every position has a non-empty
attendable set). Per-direction outputs are mean-pooled over positions,
concatenated and projected to the preference vector.
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


def build_attention(tape, embeds, params, n_seq, bias):
    """Masked self-attention over n_seq stacked sequences of equal length.

    ``embeds`` holds the sequences' item embeddings as consecutive blocks
    of T rows; ``bias`` is the (T, T) numpy mask for this direction,
    indexed [m, n]. Logits are laid out with one row per (sequence, target
    position n), so a row softmax yields each position's distribution over
    sources m, and each sequence's (T, T) block of those rows mixes its
    own T embeddings. Returns the (n_seq * T, d) output node, rows in
    (sequence, position) order, and the (n_seq * T, T) attention node.
    """
    t_len = bias.shape[0]
    # row m of srcs is src_w @ e_m, row n of dsts is dst_w @ e_n
    srcs = tape.matmul(embeds, tape.transpose(params[ATT_SRC_W]))
    dsts = tape.matmul(embeds, tape.transpose(params[ATT_DST_W]))
    base = np.repeat(np.arange(n_seq) * t_len, t_len * t_len)
    # pairs in (sequence, n, m) order, m fastest
    pair_m = base + np.tile(np.tile(np.arange(t_len), t_len), n_seq)
    pair_n = base + np.tile(np.repeat(np.arange(t_len), t_len), n_seq)
    hidden = tape.sigmoid(tape.add(tape.lookup(srcs, pair_m),
                                   tape.lookup(dsts, pair_n)))
    content = tape.reshape(tape.matmul(hidden, params[ATT_SCORE_W]),
                           (n_seq * t_len, t_len))
    logits = tape.add(content, tape.constant(np.tile(bias.T, (n_seq, 1))))
    att = tape.masked_softmax_rows(logits)
    return tape.block_matmul(att, embeds), att


def block_mean(tape, rows, n_seq, t_len):
    """Mean over each sequence's block of t_len consecutive rows."""
    return tape.segment_mean(rows, np.arange(n_seq * t_len),
                             np.full(n_seq, t_len))


def build_preference(tape, fw, bw, params, n_seq, t_len):
    """Mean-pool both directions per sequence, concatenate, project: the
    (n_seq, d) preference node."""
    pooled = tape.concat([block_mean(tape, fw, n_seq, t_len),
                          block_mean(tape, bw, n_seq, t_len)], axis=1)
    return tape.relu(tape.add(
        tape.matmul(pooled, tape.transpose(params[COMBINE_W])),
        params[COMBINE_B]))


def build_sequence_encoder(tape, embeds, params, n_seq, t_len):
    """Full encoder: stacked embeddings node -> (n_seq, d) preference node."""
    bias = position_bias(t_len)
    fw, _ = build_attention(tape, embeds, params, n_seq, bias.forward)
    bw, _ = build_attention(tape, embeds, params, n_seq, bias.backward)
    return build_preference(tape, fw, bw, params, n_seq, t_len)


def _param_nodes(tape, params):
    return {name: tape.leaf(name, value) for name, value in params.items()}


def _attention(seq_embeds, params, bias):
    tape = Tape()
    out, att = build_attention(
        tape, tape.leaf("e", np.asarray(seq_embeds, dtype=np.float64)),
        _param_nodes(tape, params), 1, np.asarray(bias))
    tape.forward()
    return out.value.copy(), att.value.copy()


def masked_self_attention(seq_embeds, params, bias):
    """Value-level attention pass: (T, d) embeddings -> (T, d) outputs.

    ``bias`` is a (T, T) matrix indexed [m, n]; -inf marks masked pairs.
    """
    return _attention(seq_embeds, params, bias)[0]


def attention_weights(seq_embeds, params, bias):
    """Attention distributions, one row per target position n."""
    return _attention(seq_embeds, params, bias)[1]


def encode_preference(fw_out, bw_out, params):
    """Value-level preference head: two (T, d) matrices -> (d,) vector."""
    tape = Tape()
    node = build_preference(tape, tape.leaf("fw", np.asarray(fw_out, float)),
                            tape.leaf("bw", np.asarray(bw_out, float)),
                            _param_nodes(tape, params), 1, len(fw_out))
    tape.forward()
    return node.value[0].copy()


def encode_sequence(seq_embeds, params):
    """Value-level full encoder for one sequence."""
    seq_embeds = np.asarray(seq_embeds, dtype=np.float64)
    tape = Tape()
    node = build_sequence_encoder(tape, tape.leaf("e", seq_embeds),
                                  _param_nodes(tape, params), 1,
                                  seq_embeds.shape[0])
    tape.forward()
    return node.value[0].copy()


def score(preference, item_embed):
    """Engagement probability in (0, 1) for one (preference, item) pair."""
    preference = np.asarray(preference, dtype=np.float64)
    item_embed = np.asarray(item_embed, dtype=np.float64)
    if preference.shape != item_embed.shape:
        raise ValueError("preference and item embedding dimensions differ")
    return float(stable_sigmoid(np.asarray(preference @ item_embed)))


def score_candidates(preference, item_embeds):
    """Vectorized :func:`score` over the rows of a candidate matrix."""
    preference = np.asarray(preference, dtype=np.float64)
    item_embeds = np.asarray(item_embeds, dtype=np.float64)
    return stable_sigmoid(item_embeds @ preference)
