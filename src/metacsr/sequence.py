"""Masked bidirectional self-attention over a user's item-embedding sequence.

For a sequence of T item embeddings, each pair (m, n) gets a content logit
``score_w^T sigmoid(src_w @ e_m + dst_w @ e_n)`` plus an additive position
bias of ``-exp(|m - n|)`` that decays attention with distance. The forward
pass lets position n attend to sources m <= n, the backward pass to m >= n
(the diagonal is included in both so every position has a non-empty
attendable set). The two outputs side by side are mean-pooled over
positions and projected to the preference vector, all in one ``encoder``
tape node, which gathers the sequences' rows of the item table and owns
the pair layout. A batch of sequences of any lengths is encoded as one
block padded to the longest.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, pair_probabilities

# theta2 parameter names
ATT_SCORE_W = "seq.att_score_w"   # d x 1
ATT_SRC_W = "seq.att_src_w"       # d x d, applied to the attended source e_m
ATT_DST_W = "seq.att_dst_w"       # d x d, applied to the target position e_n
COMBINE_W = "seq.combine_w"       # d x 2d
COMBINE_B = "seq.combine_b"       # d


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


def build_sequence_encoder(tape, items, ids, params, lengths):
    """The (n_seq, d) preference node of the sequences whose item ids
    ``ids`` holds concatenated, sequence i the next ``lengths[i]``, read
    from the item table node ``items``: one ``encoder`` node (see
    :meth:`Tape.encoder`)."""
    return tape.encoder(items, ids, params[ATT_SRC_W], params[ATT_DST_W],
                        params[ATT_SCORE_W], params[COMBINE_W],
                        params[COMBINE_B], lengths)


def encode_sequence(seq_embeds, params):
    """Value-level full encoder for one sequence."""
    seq_embeds = np.asarray(seq_embeds, dtype=np.float64)
    tape = Tape()
    nodes = {name: tape.constant(value) for name, value in params.items()}
    node = build_sequence_encoder(tape, tape.constant(seq_embeds),
                                  np.arange(len(seq_embeds)), nodes,
                                  [len(seq_embeds)])
    tape.forward()
    return node.value[0].copy()


def score_candidates(preference, item_embeds):
    """Engagement probabilities of the rows ``item_embeds`` for one
    ``preference``: ``pair_loss``'s rule (:func:`autodiff.pair_probabilities`),
    bit for bit the probabilities a ``pair_loss`` node gives those rows."""
    return pair_probabilities(item_embeds, preference)
