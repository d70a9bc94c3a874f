import math

import numpy as np
import pytest

from metacsr import sequence as seq
from metacsr.autodiff import Tape, _attention, finite_difference_check

from oracles import (
    reference_attention,
    reference_encode,
    reference_position_bias,
    reference_preference,
    sigmoid,
    tape_value,
)


def _encoder_node(embeds, params, lengths):
    """The encoder node over constants, after a forward: sequence i reads
    the first ``lengths[i]`` rows of block i of ``embeds``, whose blocks
    are ``max(lengths)`` rows each."""
    lengths = np.asarray(lengths)
    tape = Tape()
    node = seq.build_sequence_encoder(
        tape, tape.constant(embeds),
        np.flatnonzero(np.arange(lengths.max()) < lengths[:, None]),
        {k: tape.constant(v) for k, v in params.items()}, lengths)
    tape.forward()
    return node


def _attention_table(node, params):
    """The attention table ``[forward | backward]`` that an encoder node
    pooled, recomputed from its gathered rows over its layout; its
    weights are the node's."""
    table, _, atts = _attention(node.saved[0], params[seq.ATT_SRC_W],
                                params[seq.ATT_DST_W], params[seq.ATT_SCORE_W],
                                *node.aux[:4])
    assert all(np.array_equal(a, b) for a, b in zip(atts, node.saved[2]))
    return table


@pytest.fixture
def params4():
    return seq.init_seq_params(4, np.random.default_rng(11))


def attention(direction, embeds, params):
    """One sequence's attention output and weights in ``direction`` (0:
    forward, 1: backward) inside its encoder node."""
    node = _encoder_node(embeds, params, [len(embeds)])
    d = embeds.shape[1]
    table = _attention_table(node, params)
    return (table[:, direction * d: (direction + 1) * d],
            node.saved[2][direction])


def position_masks(t_len):
    """The [m, n] bias tables of the forward and the backward direction that
    an encoder node over one sequence of ``t_len`` rows holds."""
    node = _encoder_node(np.zeros((t_len, 2)),
                         seq.init_seq_params(2, np.random.default_rng(0)),
                         [t_len])
    return tuple(mask.T for mask in node.aux[3])


def test_position_bias_length_one():
    fw, bw = position_masks(1)
    np.testing.assert_array_equal(fw, [[-1.0]])
    np.testing.assert_array_equal(bw, [[-1.0]])


def test_position_bias_t3_entries():
    fw, bw = position_masks(3)
    assert fw[0][1] == pytest.approx(-math.e)
    assert fw[1][0] == -math.inf
    assert bw[2][0] == pytest.approx(-math.exp(2))
    assert bw[0][2] == -math.inf
    # diagonal included in both directions
    assert fw[1][1] == pytest.approx(-1.0)
    assert bw[1][1] == pytest.approx(-1.0)


def test_position_bias_matches_reference():
    for got, want in zip(position_masks(5), reference_position_bias(5)):
        np.testing.assert_array_equal(got, want)


def test_attention_distributions_sum_to_one(params4):
    rng = np.random.default_rng(0)
    embeds = rng.normal(size=(5, 4))
    for direction in (0, 1):
        _, att = attention(direction, embeds, params4)
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-9)
        assert (att >= 0).all()


def test_single_position_output_is_input(params4):
    embeds = np.random.default_rng(1).normal(size=(1, 4))
    out, _ = attention(0, embeds, params4)
    np.testing.assert_allclose(out, embeds, rtol=1e-12)


def test_attention_matches_scalar_reference(params4):
    rng = np.random.default_rng(2)
    embeds = rng.normal(size=(3, 4))
    for direction, bias in enumerate(reference_position_bias(3)):
        expected, expected_att = reference_attention(
            embeds, params4[seq.ATT_SCORE_W], params4[seq.ATT_SRC_W],
            params4[seq.ATT_DST_W], bias)
        out, att = attention(direction, embeds, params4)
        np.testing.assert_allclose(out, expected, rtol=1e-10)
        np.testing.assert_allclose(att, expected_att, rtol=1e-10)


def test_stacked_attention_blocks_match_single_sequence_and_reference(
        params4):
    """Each block of a padded batch attends as its sequence alone does and
    as the reference; the node pools each block's live rows and projects
    the pool."""
    rng = np.random.default_rng(12)
    lengths, t_len = [4, 2, 3], 4
    embeds = rng.normal(size=(len(lengths) * t_len, 4))
    node = _encoder_node(embeds, params4, lengths)
    table = _attention_table(node, params4)
    # content logits: only the pairs inside each sequence, once
    _, sigmoids, atts, pooled = node.saved
    assert sigmoids.shape == (sum(n * n for n in lengths), 4)
    assert table.shape == (len(lengths) * t_len, 8)
    assert node.value.shape == pooled.shape[:1] + (4,) == (3, 4)
    biases = reference_position_bias(t_len)
    for k, bias in enumerate(biases):
        out, att = table[:, 4 * k: 4 * k + 4], atts[k]
        for i, n in enumerate(lengths):
            rows = slice(i * t_len, i * t_len + n)
            live = embeds[rows]
            single, single_att = attention(k, live, params4)
            expected, expected_att = reference_attention(
                live, params4[seq.ATT_SCORE_W], params4[seq.ATT_SRC_W],
                params4[seq.ATT_DST_W], bias[:n, :n])
            np.testing.assert_allclose(out[rows], single, rtol=1e-12)
            np.testing.assert_allclose(att[rows, :n], single_att,
                                       rtol=1e-12)
            np.testing.assert_allclose(out[rows], expected, rtol=1e-10)
            np.testing.assert_allclose(att[rows, :n], expected_att,
                                       rtol=1e-10)
            # padded sources get no weight, padded positions no output
            assert not att[rows, n:].any()
            pad = slice(i * t_len + n, (i + 1) * t_len)
            assert not att[pad].any() and not out[pad].any()
    for i, n in enumerate(lengths):
        np.testing.assert_allclose(
            pooled[i], table[i * t_len: i * t_len + n].mean(axis=0),
            rtol=1e-12)
    np.testing.assert_array_equal(node.value, np.maximum(
        pooled @ params4[seq.COMBINE_W].T + params4[seq.COMBINE_B], 0.0))


def _encoder_node_count(t_len, n_seq=3, dim=4):
    params = seq.init_seq_params(dim, np.random.default_rng(0))
    tape = Tape()
    nodes = {k: tape.param(k, v) for k, v in params.items()}
    embeds = tape.constant(np.zeros((n_seq * t_len, dim)))
    before = len(tape.nodes)
    seq.build_sequence_encoder(tape, embeds, np.arange(n_seq * t_len), nodes,
                               [t_len] * n_seq)
    return len(tape.nodes) - before


def test_encoder_node_count_independent_of_sequence_length():
    assert _encoder_node_count(2) == _encoder_node_count(10) == 1


def test_forward_causality_bitwise(params4):
    rng = np.random.default_rng(3)
    embeds = rng.normal(size=(6, 4))
    base, _ = attention(0, embeds, params4)
    for n in range(5):
        poked = embeds.copy()
        poked[n + 1:] += rng.normal(size=poked[n + 1:].shape)
        again, _ = attention(0, poked, params4)
        assert (again[: n + 1] == base[: n + 1]).all()


def test_backward_causality_bitwise(params4):
    rng = np.random.default_rng(4)
    embeds = rng.normal(size=(5, 4))
    base, _ = attention(1, embeds, params4)
    poked = embeds.copy()
    poked[:2] += 1.0
    again, _ = attention(1, poked, params4)
    assert (again[2:] == base[2:]).all()


def test_attention_decays_with_distance(params4):
    # identical content embeddings leave only the position bias, so the
    # attention at the last position strictly decreases with distance
    embeds = np.tile(np.random.default_rng(5).normal(size=4), (6, 1))
    _, att = attention(0, embeds, params4)
    last = att[-1]
    for gap in range(1, 5):
        assert last[5 - gap] > last[5 - gap - 1]


def test_preference_zero_inputs(params4):
    """Zero embeddings attend to zero rows, so the pool is zero and so is
    the projection without a bias."""
    prefs = tape_value(
        lambda t, e, p: seq.build_sequence_encoder(t, e, range(3), p, [3]),
        np.zeros((3, 4)), {**params4, seq.COMBINE_B: np.zeros(4)})[0]
    np.testing.assert_array_equal(prefs, np.zeros(4))


def test_preference_single_row_meanpool_is_identity(params4):
    """A length-1 sequence attends to itself in both directions, and the
    mean of one row is that row."""
    e = np.random.default_rng(6).normal(size=(1, 4))
    got = tape_value(
        lambda t, x, p: seq.build_sequence_encoder(t, x, [0], p, [1]),
        e, params4)[0]
    pooled = np.concatenate([e[0], e[0]])
    expected = np.maximum(params4[seq.COMBINE_W] @ pooled
                          + params4[seq.COMBINE_B], 0.0)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_preference_matches_scalar_reference(params4):
    """Each sequence's preference is the reference pool and projection of
    its rows of the node's attention table."""
    rng = np.random.default_rng(7)
    lengths, t_len = [4, 1, 3], 4
    embeds = rng.normal(size=(len(lengths) * t_len, 4))
    node = _encoder_node(embeds, params4, lengths)
    table = _attention_table(node, params4)
    for i, n in enumerate(lengths):
        rows = table[i * t_len: i * t_len + n]
        expected = reference_preference(rows[:, :4], rows[:, 4:],
                                        params4[seq.COMBINE_W],
                                        params4[seq.COMBINE_B])
        np.testing.assert_allclose(node.value[i], expected, rtol=1e-10)


def test_full_encoder_matches_scalar_reference(params4):
    rng = np.random.default_rng(8)
    embeds = rng.normal(size=(4, 4))
    np.testing.assert_allclose(seq.encode_sequence(embeds, params4),
                               reference_encode(embeds, params4), rtol=1e-10)


def test_score_candidates_vectorizes():
    rng = np.random.default_rng(10)
    s_u = rng.normal(size=5)
    items = rng.normal(size=(7, 5))
    got = seq.score_candidates(s_u, items)
    np.testing.assert_allclose(got, [sigmoid(s_u @ row) for row in items],
                               rtol=1e-12)


def test_score_candidates_is_pair_loss_rule_bit_for_bit():
    """Cold ranking scores with training's rule: the probabilities of a
    ``pair_loss`` node over the same rows, bit for bit."""
    rng = np.random.default_rng(11)
    for draw in range(100):
        dim, k_neg = int(rng.integers(1, 40)), int(rng.integers(1, 30))
        table = rng.normal(size=(50, dim))
        pref = rng.normal(size=dim)
        cands = rng.integers(50, size=1 + k_neg)
        tape = Tape()
        node = tape.pair_loss(tape.constant(table), tape.constant(pref[None]),
                              cands, k_neg)
        tape.forward()
        assert np.array_equal(seq.score_candidates(pref, table[cands]),
                              node.saved[0][0]), draw


def test_encoder_gradient_finite_differences():
    rng = np.random.default_rng(14)
    dim, t_len = 4, 4
    params = seq.init_seq_params(dim, rng)
    tape = Tape()
    nodes = {name: tape.param(name, value) for name, value in params.items()}
    embeds = tape.param("embeds", rng.normal(size=(t_len, dim)))
    s_u = seq.build_sequence_encoder(tape, embeds, range(t_len), nodes,
                                     [t_len])
    loss = tape.sum(tape.mul(s_u, tape.constant(rng.normal(size=(1, dim)))))
    for name in ["embeds", seq.ATT_SCORE_W, seq.ATT_SRC_W, seq.ATT_DST_W,
                 seq.COMBINE_W, seq.COMBINE_B]:
        assert finite_difference_check(tape, loss, name, 1e-6) < 1e-4, name
