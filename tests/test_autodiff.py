import ast
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from metacsr import sequence as seq
from metacsr.autodiff import (
    _BLOCK_FLOATS,
    RowGrad,
    _add_adjoints,
    _scatter_rows,
    Segments,
    ShapeError,
    Tape,
    finite_difference_check,
    l2_normalize_rows,
    masked_softmax_rows,
    stable_sigmoid,
)

from oracles import (
    column_pool,
    masked_row_norms,
    masked_softmax_formula,
    out_of_place_backward,
    unfused_conv,
    unfused_encoder,
    unfused_pair_loss,
)

ENCODER_INPUTS = ("items", seq.ATT_SRC_W, seq.ATT_DST_W, seq.ATT_SCORE_W,
                  seq.COMBINE_W, seq.COMBINE_B)


def naive_matmul(a, b):
    """Triple-loop reference multiplier (oracle)."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def _projection(t, x, w, b):
    """``relu([x, x] @ w.T + b)`` as an ``encoder`` node: each row of the
    bound (m, k) node ``x`` a sequence of length 1, whose attention output
    and pool are the row itself, under constant attention weights; ``w``
    is (d, 2k)."""
    m, k = x.value.shape
    return t.encoder(x, np.arange(m), *(t.constant(np.ones(shape))
                                        for shape in ((k, k), (k, k), (k, 1))),
                     w, b, [1] * m)


def test_relu_forward():
    t = Tape()
    x = t.constant([[-1.0, 0.0, 2.0]])
    y = _projection(t, x, t.constant(np.eye(3, 6)), t.constant(np.zeros(3)))
    t.forward()
    np.testing.assert_array_equal(y.value, [[0.0, 0.0, 2.0]])


def test_sigmoid_at_zero():
    """All-zero scores: every probability is 0.5, every pair softplus(0)."""
    t = Tape()
    items = t.constant(np.zeros((4, 3)))
    prefs = t.constant(np.ones((2, 3)))
    loss = t.pair_loss(items, prefs, [0, 1, 2, 3, 3, 2, 1, 0], 3)
    t.forward()
    assert loss.value.shape == ()
    np.testing.assert_allclose(loss.value, np.log(2.0), rtol=1e-15)


def test_dense_matches_triple_loop():
    """The encoder's projection of length-1 sequences, each pooled to its
    row twice, is the triple loop's relu(x2 @ w.T + b)."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(4, 6))
    b = rng.normal(size=4)
    t = Tape()
    c = _projection(t, t.constant(x), t.constant(w), t.constant(b))
    t.forward()
    assert c.value.shape == (2, 4)
    np.testing.assert_allclose(
        c.value, np.maximum(naive_matmul(np.concatenate([x, x], axis=1),
                                         w.T) + b, 0.0), rtol=1e-12)


def _conv_of(t, features, inherent, latent_width=2, rows=(0,)):
    """A conv node over constants: each of ``rows`` pools features rows 0
    and 1; weights for a 2-wide inherent table."""
    return t.conv(t.constant(features), t.constant(inherent), rows,
                  [0, 1] * len(rows), [2] * len(rows),
                  t.constant(np.ones((latent_width, 2))),
                  t.constant(np.ones(latent_width)),
                  t.constant(np.ones((2, 4))), t.constant(np.ones(2)))


def _encoder_of(t, items_shape, lengths=(2, 1, 2), w_shape=(3, 3),
                score_shape=(3, 1), combine_shape=(3, 6), bias_shape=(3,),
                ids=None):
    """An encoder node over constants of ones of the given shapes, reading
    items 0, 1, ... in order unless ``ids`` are given."""
    items, *weights = (t.constant(np.ones(shape)) for shape in (
        items_shape, w_shape, w_shape, score_shape, combine_shape,
        bias_shape))
    return t.encoder(items, np.arange(sum(lengths)) if ids is None else ids,
                     *weights, lengths)


def _live_rows(lengths):
    """The ids that read, for sequences of ``lengths`` padded to the
    longest, the rows of their blocks' live positions."""
    lengths = np.asarray(lengths)
    return np.flatnonzero(np.arange(lengths.max()) < lengths[:, None])


def _encoder_values(rng, rows, d):
    """Random encoder inputs: a (rows, d) item table and the five
    weights."""
    return [rng.normal(size=(rows, d)),
            *(rng.normal(size=(d, d)) for _ in range(2)),
            rng.normal(size=(d, 1)), rng.normal(size=(d, 2 * d)),
            rng.normal(size=d)]


def test_matrix_ops_reject_vectors():
    for build in (lambda t: _encoder_of(t, (6, 3), combine_shape=(6,)),
                  lambda t: _encoder_of(t, (6,)),
                  lambda t: _conv_of(t, np.ones(3), np.ones((2, 2))),
                  lambda t: _conv_of(t, np.ones((2, 2)), np.ones(3))):
        t = Tape()
        node = build(t)
        with pytest.raises(ShapeError, match=f"node {node.idx}"):
            t.forward()


def test_sigmoid_gradient_at_zero():
    """At zero scores one pair's loss moves by sigmoid(0) = 0.5 per unit of
    p_neg - p_pos, and each probability by sigmoid'(0) = 0.25 per unit of
    score: the positive's row gets -0.125 * prefs, the negative's +0.125."""
    t = Tape()
    items = t.param("items", np.zeros((3, 2)))
    prefs = t.param("prefs", [[1.0, -2.0]])
    loss = t.pair_loss(items, prefs, [2, 0], 1)
    t.forward()
    grads = t.backward(loss)
    np.testing.assert_allclose(grads["items"],
                               [[0.125, -0.25], [0.0, 0.0], [-0.125, 0.25]])
    np.testing.assert_array_equal(grads["prefs"], [[0.0, 0.0]])


def test_relu_gradient_flat_region():
    t = Tape()
    x = t.param("x", [[-1.0]])
    loss = t.sum(_projection(t, x, t.constant([[1.0, 0.0]]),
                             t.constant([0.0])))
    t.forward()
    np.testing.assert_array_equal(t.backward(loss)["x"], [[0.0]])


def test_linear_layer_gradient_nearly_exact():
    """Positive inputs and weights keep every unit in relu's linear part."""
    rng = np.random.default_rng(3)
    t = Tape()
    w = t.param("w", np.abs(rng.normal(size=(4, 10))))
    x = t.param("x", np.abs(rng.normal(size=(1, 5))) + 0.5)
    loss = t.sum(_projection(t, x, w, t.constant(np.zeros(4))))
    assert finite_difference_check(t, loss, "w") < 1e-8


def _fused_rule_case(t, rng, live, lengths=(2, 1, 2), ids=None):
    """An encoder node whose inputs named in ``live`` (e: the item table,
    s: src_w, d: dst_w, w: score_w, c: combine_w, b: combine_b) read the
    param p and whose others are params named by their letter. The item
    table is p, src_w and dst_w read rows of it through unit-count segment
    means, and each other input in ``live`` is a param p/<letter>; a
    combine_b outside ``live`` is large, so that most projected rows pass
    the relu. The sequences read ``ids``, by default the rows of their
    padded blocks' live positions."""
    table = rng.normal(size=(len(lengths) * max(lengths), 3))
    a = t.param("p", table) if set(live) & set("esd") else None
    reads = {
        "e": lambda: a,
        "s": lambda: t.segment_mean(a, [0, 2, 4], [1, 1, 1]),
        "d": lambda: t.mul(t.segment_mean(a, [5, 1, 3], [1, 1, 1]),
                           t.param("x", rng.normal(size=(3, 3)))),
    }
    shapes = {"e": table.shape, "s": (3, 3), "d": (3, 3), "w": (3, 1),
              "c": (3, 6), "b": (3,)}
    inputs = [reads[k]() if k in live and k in reads else
              t.param(f"p/{k}", rng.normal(size=shapes[k])) if k in live else
              t.param(k, rng.normal(size=shapes[k]) + 10.0 * (k == "b"))
              for k in "esdwcb"]
    return t.encoder(inputs[0], _live_rows(lengths) if ids is None else ids,
                     *inputs[1:], lengths)


# The ops the ``encoder`` node fused, each kept as a case of it whose params
# reach the inputs that op's gradient rule differentiates (see
# _fused_rule_case), over lengths that exercise the rule: (live, lengths)
FUSED_RULES = {
    # the projection weights, each read transposed
    "transpose": ("sd", (2, 1, 2)),
    # both operands of the two projections' products
    "matmul": ("esd", (2, 1, 2)),
    # the score weight alone, over pairs that repeat rows in both tables
    "pair_logits": ("w", (3, 3, 2)),
    # the flat content logits read through a slot table four to a row
    "reshape": ("esdw", (4, 1, 3)),
    # the score weight alone, through padded rows that mask every entry
    "masked_softmax_rows": ("w", (3, 2, 3)),
    # both operands of each direction's block product
    "block_matmul": ("e", (2, 1, 2)),
    # both directions side by side, every sequence at one length
    "concat": ("esdw", (2, 2, 2)),
    # the four attention inputs, a length-1 sequence among longer ones
    "attention": ("esdw", (3, 1, 2)),
    # the projection's three operands: the pool, combine_w and combine_b
    "dense": ("ecb", (2, 1, 2)),
}


def _op_case(name, rng):
    """Build (tape, loss) for one op kind whose inputs read random
    params."""
    t = Tape()
    if name in FUSED_RULES:
        out = _fused_rule_case(t, rng, *FUSED_RULES[name])
    elif name == "encoder":
        # params reach every input; items repeat within and across
        # sequences and padded slots read row 0, so the gather's gradient
        # sums rows
        out = _fused_rule_case(t, rng, "esdwcb", ids=[1, 4, 1, 5, 1])
    elif name == "add_same":
        a = t.param("p", rng.normal(size=(3, 4)))
        out = t.add(a, t.param("x", rng.normal(size=(3, 4))))
    elif name == "mul":
        a = t.param("p", rng.normal(size=(2, 5)))
        out = t.mul(a, t.param("x", rng.normal(size=(2, 5))))
    elif name == "pair_loss":
        # p reaches items and prefs; repeated candidates and prefs rows;
        # k_neg of 1 (3 rows) and of 3 (2 rows)
        a = t.param("p", rng.normal(size=(6, 3)))
        prefs = t.mul(t.segment_mean(a, [1, 4, 1], [1, 1, 1]),
                      t.param("x", rng.normal(size=(3, 3))))
        out = t.add(t.pair_loss(a, prefs, [0, 2, 2, 5, 1, 2], 1),
                    t.pair_loss(a, t.segment_mean(prefs, [2, 1], [1, 1]),
                                [4, 0, 4, 3, 2, 2, 5, 0], 3))
    elif name == "conv":
        # p is the pooled table and the inherent table (a layer 0) and
        # reaches latent_w; the other weights are params of their own;
        # repeated ids and an empty segment
        a = t.param("p", rng.normal(size=(6, 3)) + 0.2)
        out = t.conv(a, a, [0, 2, 5], [0, 2, 2, 5, 1], [3, 0, 2],
                     t.segment_mean(a, [0, 2, 5], [1, 1, 1]),
                     *(t.param(f"p/{k}", rng.normal(size=shape))
                       for k, shape in (("lb", (3,)), ("mw", (3, 6)),
                                        ("mb", (3,)))))
    elif name == "segment_mean":
        a = t.param("p", rng.normal(size=(6, 3)))
        # repeated ids within and across segments, and an empty segment
        out = t.segment_mean(a, [0, 2, 2, 5, 1, 2], [3, 0, 2, 1])
    elif name == "sum":
        a = t.param("p", rng.normal(size=(3, 2)))
        return t, t.sum(a)
    else:
        raise AssertionError(name)
    # weight the output so the loss is not a plain sum (exercises adjoints)
    w = t.constant(rng.normal(size=out_shape(t, out)))
    return t, t.sum(t.mul(out, w))


def _checked_params(tape):
    """The params an op case differentiates on purpose, p and p/<input>;
    the others keep their inputs live, so that every rule runs."""
    return [name for name in tape.params
            if name == "p" or name.startswith("p/")]


def out_shape(tape, node):
    tape.forward()
    return node.value.shape


ALL_OPS = [
    "add_same", "mul", "encoder", "pair_loss", "conv", "segment_mean", "sum",
]


@pytest.mark.parametrize("op", ALL_OPS + list(FUSED_RULES))
def test_every_op_gradient_against_finite_differences(op):
    # 5 random draws per op; the acceptance suite runs the 100-draw sweep
    for seed in range(5):
        t, loss = _op_case(op, np.random.default_rng(1000 + seed))
        for name in _checked_params(t):
            assert finite_difference_check(t, loss, name,
                                           epsilon=1e-6) < 1e-4, (op, name)


@pytest.mark.parametrize("op", ALL_OPS + list(FUSED_RULES))
def test_backward_releases_each_consumed_adjoint(op):
    """Every ndarray adjoint a gradient rule consumed is freed before the
    next rule runs, and the last one before backward returns, from the
    loss and from a seeded inner node; the caller's seed is exempt, and
    numpy scalars (0-d products), which take no weak reference, are
    skipped. A second backward gives the same gradients."""
    rng = np.random.default_rng(11)
    t, loss = _op_case(op, rng)
    root = loss if op == "sum" else loss.inputs[0].inputs[0]
    t.forward()
    seed = rng.normal(size=root.value.shape)
    original = t._input_grads
    consumed = []

    def spy(node, adj):
        assert all(ref() is None for ref in consumed), node
        if isinstance(adj, np.ndarray) and adj is not seed:
            consumed.append(weakref.ref(adj))
        return original(node, adj)

    t._input_grads = spy
    first = {name: g.copy() for name, g in t.backward(loss).items()}
    assert consumed and all(ref() is None for ref in consumed)
    consumed.clear()
    t.backward(root, seed)
    assert all(ref() is None for ref in consumed)
    second = t.backward(loss)
    assert set(second) == set(first) == set(t.params)
    for name, grad in first.items():
        np.testing.assert_array_equal(second[name], grad)


@pytest.mark.parametrize("op", ALL_OPS + list(FUSED_RULES))
def test_backward_writes_only_arrays_it_made(op):
    """No gradient a rule returns (a RowGrad's values included) shares
    memory with the rule's adjoint, an input's value or another returned
    gradient; a seeded backward leaves the seed's bits as they were; a
    second backward returns a new mapping with the same bits and leaves
    the first one's arrays as they were."""
    rng = np.random.default_rng(12)
    t, loss = _op_case(op, rng)
    root = loss if op == "sum" else loss.inputs[0].inputs[0]
    t.forward()
    original = t._input_grads
    rules = []

    def spy(node, adj):
        grads = original(node, adj)
        arrays = [g.values if isinstance(g, RowGrad) else g
                  for g in grads if g is not None]
        for k, g in enumerate(arrays):
            for other in [adj, *(i.value for i in node.inputs),
                          *arrays[k + 1:]]:
                assert not np.shares_memory(g, other), node
        rules.append(node.op)
        return grads

    t._input_grads = spy
    seed = np.asarray(rng.normal(size=root.value.shape))
    seed[rng.random(seed.shape) < 0.3] = -0.0
    bits = seed.view(np.uint64).copy()
    first = t.backward(root, seed)
    kept = {name: g.copy() for name, g in first.items()}
    assert np.array_equal(seed.view(np.uint64), bits)
    second = t.backward(root, seed)
    assert rules and second is not first
    assert second.keys() == first.keys() == t.params.keys()
    for name, g in kept.items():
        assert _same_bits(second[name], g) and _same_bits(first[name], g)


def test_finite_difference_check_of_an_unreached_param_is_zero():
    """The loss does not depend on a param it does not reach, so both
    gradients are zero; a name the tape lacks is refused by name."""
    t = Tape()
    x = t.param("x", [1.0, 2.0])
    t.param("unused", [[3.0, -1.0]])
    loss = t.sum(t.mul(x, x))
    assert finite_difference_check(t, loss, "unused") == 0.0
    with pytest.raises(ValueError, match="'missing'"):
        finite_difference_check(t, loss, "missing")


def test_masked_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 6))
    z[1, 3:] = -np.inf
    z[4, :] = -np.inf
    a = masked_softmax_rows(z)
    sums = a.sum(axis=1)
    np.testing.assert_allclose(sums[[0, 1, 2, 3, 5]], 1.0, atol=1e-9)
    np.testing.assert_array_equal(a[4], np.zeros(6))


def test_l2_normalize_unit_or_zero():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 4))
    x[2] = 0.0
    y, n = l2_normalize_rows(x)
    np.testing.assert_array_equal(n[:, 0], np.linalg.norm(x, axis=1))
    norms = np.linalg.norm(y, axis=1)
    np.testing.assert_allclose(norms[[0, 1, 3, 4]], 1.0, atol=1e-9)
    np.testing.assert_array_equal(y[2], np.zeros(4))


def test_non_scalar_loss_rejected():
    t = Tape()
    x = t.param("x", [1.0, 2.0])
    y = t.mul(x, x)
    t.forward()
    with pytest.raises(ValueError, match="not scalar"):
        t.backward(y)


def test_shape_mismatch_names_node():
    """No op broadcasts: an ``add`` of a matrix and a row vector fails."""
    for b_shape in ((4, 2), (3,)):
        t = Tape()
        c = t.add(t.constant(np.ones((2, 3))), t.constant(np.ones(b_shape)))
        with pytest.raises(ShapeError, match=f"node {c.idx}"):
            t.forward()


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 2), (5, 3)),   # 5 ids are not 2 blocks of 2
    ((3, 2), (4, 3)),   # 4 ids for 3 blocks of 2
    ((2, 2), (6, 3)),   # 6 ids are 3 blocks of 2, one more than named
    ((1, 1), (0, 3)),   # no ids for a block of 1
])
def test_block_matmul_rejects_bad_shapes(a_shape, b_shape):
    """The block products inside ``encoder`` read the blocks it gathers
    for n sequences of T items (``a_shape`` = (n, T)); ids that are not
    the sequences' n * T items (here one per row of a table of
    ``b_shape``) are refused when the node is built."""
    n, t_len = a_shape
    with pytest.raises(ValueError, match=f"{b_shape[0]} item ids for "
                                         f"sequences of {n * t_len} items"):
        _encoder_of(Tape(), b_shape, lengths=[t_len] * n,
                    ids=np.arange(b_shape[0]))


def test_encoder_refuses_empty_lengths():
    for lengths in ([], [2, 0], [[2]]):
        with pytest.raises(ValueError, match="lengths"):
            Tape().encoder(None, [], *(None,) * 5, lengths)


def test_forward_reruns_with_new_param_binding():
    t = Tape()
    x = t.param("x", [1.0])
    y = t.mul(x, t.constant([3.0]))
    t.forward()
    np.testing.assert_allclose(y.value, [3.0])
    t.set_param("x", [2.0])
    t.forward()
    np.testing.assert_allclose(y.value, [6.0])


def test_stable_sigmoid_extremes():
    np.testing.assert_allclose(stable_sigmoid(np.array([800.0])), [1.0])
    np.testing.assert_allclose(stable_sigmoid(np.array([-800.0])), [0.0])


def test_stable_sigmoid_matches_masked_form_bit_for_bit():
    def masked(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                        1e-300, -1e-300, 1e-17, -1e-17, 36.0, -36.0, 709.0,
                        -709.0, 745.0, -745.0, 800.0, -800.0, 1e300, -1e300,
                        np.finfo(float).max, -np.finfo(float).max])
    rng = np.random.default_rng(6)
    for size in (1, 3, 7, 101):
        x = rng.choice(special, size=size) * rng.choice([1.0, 0.5], size=size)
        x[::2] = rng.normal(scale=30.0, size=x[::2].shape)
        np.testing.assert_array_equal(stable_sigmoid(x), masked(x))
    np.testing.assert_array_equal(stable_sigmoid(special), masked(special))
    assert stable_sigmoid(np.asarray(-0.0)) == 0.5
    assert stable_sigmoid(np.asarray(3.0)).shape == ()


def test_stable_sigmoid_is_the_two_branch_form_bit_for_bit():
    """One division gives the bits of ``1/(1+e)`` for x >= 0 and
    ``e/(1+e)`` otherwise, NaN payloads and signed zeros included."""
    def two_branch(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    tiny = np.finfo(float).smallest_subnormal
    x = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny,
                  1e-310, -1e-310, 700.0, -700.0, 1.5, -1.5])
    x = np.concatenate([x, np.random.default_rng(2).normal(0, 40, 500)])
    assert np.array_equal(stable_sigmoid(x).view(np.uint64),
                          two_branch(x).view(np.uint64))


def _const_gather_tape():
    rng = np.random.default_rng(7)
    t = Tape()
    table = t.constant(rng.normal(size=(50, 3)))
    rows = t.segment_mean(table, [4, 9, 4], [1, 1, 1])
    w = t.param("w", rng.normal(size=(3, 3)))
    x = t.param("x", rng.normal(size=(3, 3)))
    h = t.mul(t.add(rows, x), w)
    loss = t.sum(t.mul(h, t.segment_mean(
        t.constant(rng.normal(size=(9, 3))), [0, 3, 8], [1, 1, 1])))
    return t, loss, table, rows, x


def test_backward_skips_nodes_no_param_feeds():
    """A segment mean over a constant table runs no gradient rule, and the
    params' gradients are those of a pass that differentiates it; a root
    that no param feeds, a constant or an op over one, gives {}."""
    t, loss, table, rows, x = _const_gather_tape()
    t.forward()
    assert not table.live and not rows.live and x.live
    differentiated = []
    original = t._input_grads

    def spy(node, adj):
        differentiated.append(node.op)
        return original(node, adj)

    t._input_grads = spy
    skipped = {name: g.copy() for name, g in t.backward(loss).items()}
    assert "segment_mean" not in differentiated
    assert skipped.keys() == {"w", "x"}
    assert t.backward(table, np.ones(table.value.shape)) == {}
    assert t.backward(rows, np.ones(rows.value.shape)) == {}
    assert "segment_mean" not in differentiated

    for node in t.nodes:
        node.live = node.op != "const"
    grads = t.backward(loss)
    assert "segment_mean" in differentiated
    assert grads.keys() == skipped.keys()
    for name, grad in skipped.items():
        np.testing.assert_array_equal(grads[name], grad)


def test_segment_mean_equals_chained_add_and_scale_bit_for_bit():
    rng = np.random.default_rng(5)
    table = rng.normal(size=(40, 7))
    counts = rng.integers(0, 7, size=25)
    counts[3] = 0
    ids = rng.integers(0, 40, size=int(counts.sum()))
    t = Tape()
    pooled = t.segment_mean(t.constant(table), ids, counts)
    t.forward()
    start = 0
    for i, count in enumerate(counts):
        want = np.zeros(7)
        if count:
            acc = table[ids[start]]
            for j in range(1, count):
                acc = acc + table[ids[start + j]]
            want = acc * (1.0 / count)
        start += count
        assert np.array_equal(pooled.value[i], want), i


def test_segment_mean_rejects_counts_that_do_not_cover_ids():
    t = Tape()
    table = t.constant(np.ones((3, 2)))
    with pytest.raises(ValueError, match="counts"):
        t.segment_mean(table, [0, 1, 2], [1, 1])


@pytest.mark.parametrize("bad", [-1, -3, 3, 7])
def test_segment_ids_outside_the_table_are_refused_by_name(bad):
    """A negative id would read a row from the end of the table and one
    past it would raise numpy's IndexError; both name the node, in every
    op that gathers rows by id: a segment mean, a diffusion layer's pool,
    an encoder's items (its padded slot reads row 0) and a pair loss's
    candidates."""
    for build in (lambda t, x: t.segment_mean(x, [0, bad, 2], [2, 1]),
                  lambda t, x: t.conv(x, x, [0, 1], [0, bad, 2], [2, 1],
                                      *(t.constant(v) for v in (
                                          np.ones((2, 2)), np.ones(2),
                                          np.ones((2, 4)), np.ones(2)))),
                  lambda t, x: t.encoder(x, [0, bad, 2],
                                         *(t.constant(np.ones(shape)) for
                                           shape in ((2, 2), (2, 2), (2, 1),
                                                     (2, 4), (2,))), [2, 1]),
                  lambda t, x: t.pair_loss(x, t.constant(np.ones((2, 2))),
                                           [0, bad, 2, 0], 1)):
        t = Tape()
        node = build(t, t.constant(np.ones((3, 2))))
        with pytest.raises(ShapeError, match=f"node {node.idx} .*"
                                             f"span \\[{min(bad, 0)}, "
                                             f"{max(bad, 2)}\\]"):
            t.forward()


@pytest.mark.parametrize("dim", [1, 24, 128])
def test_blocked_pool_equals_the_column_loop(dim):
    """Segment counts from 0 to 9 over more rows than a block holds, ids
    repeated within and across segments, -0.0 and NaN entries: every row
    is the column loop's sum, bit for bit, and so is the backward's pool
    of the transposed layout, as a table."""
    rng = np.random.default_rng(dim)
    block = _BLOCK_FLOATS // dim
    for n_segments in (1, block - 1, block, 2 * block + 3):
        counts = rng.integers(0, 10, size=n_segments)
        counts[rng.random(n_segments) < 0.2] = 0
        n_rows = int(rng.integers(1, 3 * block))
        ids = rng.integers(0, n_rows, size=int(counts.sum()))
        table = rng.normal(size=(n_rows, dim))
        table[rng.random(table.shape) < 0.05] = -0.0
        table.flat[rng.integers(table.size)] = np.nan
        segments = Segments(ids, counts)
        assert _same_bits(segments.pool(table),
                          column_pool(table, ids, counts)), n_segments
        adj = rng.normal(size=(n_segments, dim))
        reader_ids = np.repeat(np.arange(n_segments), counts)[
            np.argsort(ids, kind="stable")]
        grad = segments.backward(n_rows, adj.copy())
        if isinstance(grad, RowGrad):
            grad = grad.dense(table.shape)
        assert _same_bits(grad, column_pool(
            adj * (1.0 / np.maximum(counts, 1))[:, None], reader_ids,
            np.bincount(ids, minlength=n_rows))), n_segments


def test_segments_backward_pools_only_the_rows_read():
    """When the segments read fewer than half the table's rows, the
    backward is a RowGrad of the rows read, in increasing order, whose
    dense form is the column pool of the transposed layout bit for bit,
    -0.0 adjoints included (as +0.0); otherwise, unread rows or not, it is
    that pool as a table. A second backward reuses the layout."""
    rng = np.random.default_rng(25)
    for draw in range(90):
        n_rows, d = int(rng.integers(1, 40)), int(rng.choice([1, 3, 128]))
        counts = rng.integers(0, 6, size=int(rng.integers(1, 30)))
        reach = [1, n_rows // 2, n_rows][draw % 3]
        ids = rng.integers(0, max(reach, 1), size=int(counts.sum()))
        segments = Segments(ids, counts)
        table = rng.normal(size=(n_rows, d))
        adj = rng.normal(size=(counts.size, d))
        adj[rng.random(adj.shape) < 0.3] = -0.0
        readers = np.bincount(ids, minlength=n_rows)
        want = column_pool(
            adj * (1.0 / np.maximum(counts, 1))[:, None],
            np.repeat(np.arange(counts.size), counts)[
                np.argsort(ids, kind="stable")], readers)
        for _ in range(2):
            grad = segments.backward(n_rows, adj.copy())
            if 2 * np.count_nonzero(readers) >= n_rows:
                assert type(grad) is np.ndarray, draw
                assert _same_bits(grad, want), draw
            else:
                assert isinstance(grad, RowGrad), draw
                np.testing.assert_array_equal(grad.rows,
                                              np.flatnonzero(readers))
                assert _same_bits(grad.dense(table.shape), want + 0.0), draw


def test_backward_from_non_scalar_node_with_given_adjoint():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 2))
    weights = rng.normal(size=(3, 2))

    def grads(seeded):
        t = Tape()
        p = t.param("p", np.arange(24.0).reshape(3, 8) / 20 - 0.5)
        out = _projection(t, t.param("x", x.T), p, t.constant(np.zeros(3)))
        loss = t.sum(t.mul(out, t.constant(weights.T)))
        t.forward()
        return (t.backward(out, weights.T) if seeded
                else t.backward(loss))["p"]

    np.testing.assert_array_equal(grads(True), grads(False))
    t = Tape()
    p = t.param("p", [1.0, 2.0])
    y = t.mul(p, p)
    t.forward()
    with pytest.raises(ValueError, match="shape"):
        t.backward(y, np.ones(3))


def test_lookup_gradient_equals_add_at_bit_for_bit():
    """The gather's gradient rule, ``_scatter_rows``, sums each cell in id
    order from 0.0, as np.add.at does: repeated ids (a batch's candidates,
    an encoder's items and padding), strictly increasing ids (a diffusion
    layer's inherent rows), rows nothing reads and -0.0 adjoints."""
    rng = np.random.default_rng(13)
    for draw in range(200):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 9)))
        if draw % 5 == 0:
            ids = np.flatnonzero(rng.random(shape[0]) < 0.5)
        else:
            # few distinct ids, so repeats are many and most rows go unread
            pool = rng.integers(shape[0], size=int(rng.integers(1, 4)))
            ids = rng.choice(pool, size=int(rng.integers(0, 60)))
        adj = rng.normal(size=ids.shape + shape[1:])
        adj[rng.random(adj.shape) < 0.2] = -0.0
        want = np.zeros(shape)
        np.add.at(want, ids, adj)
        assert _same_bits(_scatter_rows(shape, ids, adj), want), draw


def test_l2norm_value_and_gradient_equal_masked_forms():
    rng = np.random.default_rng(14)
    for draw in range(100):
        rows, dim = int(rng.integers(1, 20)), int(rng.integers(1, 40))
        x = rng.normal(size=(rows, dim))
        x[rng.random(rows) < 0.3] = 0.0
        x[rng.random(rows) < 0.1] *= 1e-14       # nonzero, below eps
        adj = rng.normal(size=(rows, dim))
        if draw % 2:
            adj = np.asfortranarray(adj)        # as a transpose's adjoint
        y, n = l2_normalize_rows(x)
        assert np.array_equal(y, masked_row_norms(x)), draw
        assert np.array_equal(Tape._l2norm_grad(n, y, adj),
                              masked_row_norms(x, adj)), draw


def test_product_rules_skip_inputs_that_are_not_live(monkeypatch):
    """The rule of a constant operand is not run; the param's gradient is
    the formula's, bit for bit. An attention over constant embeddings (as
    in adaptation, whose feature table is a constant) computes none of
    their four terms, nor a constant weight's."""
    from metacsr import autodiff

    rng = np.random.default_rng(15)
    dense_live = []
    dense_grads = autodiff._dense_grads
    monkeypatch.setattr(autodiff, "_dense_grads", lambda x, w, g, live: (
        dense_live.append(tuple(live)) or dense_grads(x, w, g, live)))
    for const_first in (True, False):
        t = Tape()
        c = t.constant(rng.normal(size=(6, 3)))
        p = t.param("p", rng.normal(size=(6, 3)))
        inputs = (c, p) if const_first else (p, c)
        out = t.mul(*inputs)
        t.forward()
        adj = rng.normal(size=out.value.shape)
        assert t._input_grads(out, adj)[inputs.index(c)] is None
        assert np.array_equal(t.backward(out, adj)["p"], adj * c.value)

    lengths, t_len, d = [3, 2], 3, 4
    values = _encoder_values(rng, len(lengths) * t_len, d)
    for dead in [{0}, {1}, {2}, {3}, {4}, {5}, {0, 1, 2, 3}]:
        t = Tape()
        nodes = [t.constant(v) if i in dead else t.param(n, v)
                 for i, (n, v) in enumerate(zip(ENCODER_INPUTS, values))]
        out = t.encoder(nodes[0], _live_rows(lengths), *nodes[1:], lengths)
        t.forward()
        adj = rng.normal(size=out.value.shape)
        dense_live.clear()
        grads = t._input_grads(out, adj)
        assert all(grads[i] is None for i in dead), dead
        # the projection's rule, then dst_w's and src_w's: (x, w, b) live;
        # with every attention input dead, the pool's gradient is not taken
        assert dense_live == [(not dead >= {0, 1, 2, 3}, 4 not in dead,
                               5 not in dead)] + [
            (0 not in dead, 2 not in dead, False),
            (0 not in dead, 1 not in dead, False)] * (len(dead) == 1), dead
        got = t.backward(out, adj)
        want = unfused_encoder(values[0], _live_rows(lengths), *values[1:],
                               lengths, out.aux[:4], adj)[1:]
        assert set(got) == {ENCODER_INPUTS[i] for i in range(6)} - {
            ENCODER_INPUTS[i] for i in dead}
        for name, grad in zip(ENCODER_INPUTS, want):
            assert name not in got or _same_bits(got[name], grad), \
                (dead, name)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _bind(tape, name, value, live):
    return tape.param(name, value) if live else tape.constant(value)


def _check_encoder(values, lengths, live, adj, draw):
    """An encoder node over ``values`` (each input a param if ``live``
    marks it, else a constant), whose sequences read the item table's
    rows of their padded blocks' live positions: its value and every live
    input's gradient for the adjoint ``adj`` equal the unfused chain's bit
    for bit, and an input that is not live gets no gradient."""
    t = Tape()
    nodes = [_bind(t, n, v, on)
             for n, v, on in zip(ENCODER_INPUTS, values, live)]
    ids = _live_rows(lengths)
    out = t.encoder(nodes[0], ids, *nodes[1:], lengths)
    t.forward()
    want = unfused_encoder(values[0], ids, *values[1:], lengths,
                           out.aux[:4], adj)
    assert _same_bits(out.value, want[0]), draw
    got = t.backward(out, adj)
    assert got.keys() == {n for n, on in zip(ENCODER_INPUTS, live) if on}
    for name, grad in zip(ENCODER_INPUTS, want[1:]):
        assert name not in got or _same_bits(got[name], grad), (draw, name)


def test_dense_equals_the_unfused_chain_bit_for_bit():
    """The encoder's projection over sequences of length 1, whose pools
    are their rows twice: value and every live input's gradient equal the
    chain's, the transpose, matmul, add and relu rules last, bit for bit:
    -0.0 and NaN weights, all-negative pre-activations, zero embeddings
    (pre-activations are b, -0.0 too); the embeddings, combine_w and
    combine_b live or not, the attention weights constant."""
    rng = np.random.default_rng(16)
    for draw in range(80):
        m, k, d = (int(v) for v in rng.integers((1, 1, 1), (7, 6, 6)))
        values = _encoder_values(rng, m, k)
        values[4], values[5] = rng.normal(size=(d, 2 * k)), rng.normal(size=d)
        x, w, b = values[0], values[4], values[5]
        x[rng.random(x.shape) < 0.2] = -0.0
        b[rng.random(d) < 0.3] = -0.0
        if draw % 4 == 1:
            b -= 100.0                      # every pre-activation < 0
        if draw % 4 == 2:
            w.flat[rng.integers(w.size)] = np.nan
        if draw % 5 == 3:
            x[:] = 0.0
        adj = rng.normal(size=(m, d))
        adj[rng.random(adj.shape) < 0.2] = -0.0
        on = [bool(draw >> bit & 1) for bit in range(3)]
        _check_encoder(values, [1] * m,
                       [on[0], False, False, False, on[1], on[2]], adj, draw)


def test_attention_equals_the_unfused_chain_bit_for_bit():
    """The ``encoder`` node's value and every live input's gradient equal
    the rules of the nodes it replaced (the attention's: two transposes
    and matmuls, pair_logits, the logits' lookup, per direction a mask, an
    add, a masked softmax and a block product, and a concat; the segment
    mean's loop; the projection's transpose, matmul, add and relu), bit
    for bit: d from 1 to 128; a batch of one sequence or up to a dozen, of
    lengths 1 to 10, a length-1 sequence beside length-T ones, or every
    sequence at one length; -0.0 and saturating entries, all-negative
    projections, -0.0 adjoint cells and every live pattern of the six
    inputs, dead embeddings (the inner step's constant table) included;
    pairs spread over several of the backward's blocks; an input that is
    not live gets no gradient computed."""
    rng = np.random.default_rng(17)
    for draw in range(128):
        d = int(rng.choice([1, 3, 24, 128]))
        n_seq = 1 if draw % 7 == 0 else int(rng.integers(1, 13))
        lengths = rng.integers(1, 11, size=n_seq)
        if draw % 3 == 0:
            lengths[:] = lengths[0]
        elif draw % 3 == 1:
            lengths[rng.integers(n_seq)] = 1
        values = _encoder_values(rng, n_seq * int(lengths.max()), d)
        for v in values[1:3]:
            v *= rng.choice([1.0, 30.0])
        for v in values:
            v[rng.random(v.shape) < 0.1] = -0.0
        if draw % 5 == 4:
            values[5] -= 100.0              # every projected row is zero
        adj = rng.normal(size=(n_seq, d))
        adj[rng.random(adj.shape) < 0.2] = -0.0
        _check_encoder(values, lengths,
                       [bool(draw >> bit & 1) for bit in range(6)], adj, draw)
    # the block mean's two zero-sign branches, every input live: fewer
    # than half the table's rows live (9 of 27), then at least half (11
    # of 12) with -0.0 adjoint cells
    for lengths in ([9, 1, 1], [4, 3, 4]):
        values = _encoder_values(rng, len(lengths) * max(lengths), 24)
        adj = rng.normal(size=(len(lengths), 24))
        adj[:, ::3] = -0.0
        _check_encoder(values, lengths, [True] * 6, adj, lengths)
    # pairs across several of the backward's blocks, _BLOCK_FLOATS // d
    # pairs (1,365 at d = 24) of whole sequences: 60 sequences of lengths
    # 6 to 8; one sequence of length 40, whose 1,600 pairs fill a block
    # alone; and src_w and the embeddings dead while dst_w is live, so
    # that only the dst_w table is scattered
    for case, lengths, live in (
            ("60-sequences", rng.integers(6, 9, size=60), [True] * 6),
            ("one-long-sequence", np.array([40]), [True] * 6),
            ("dead-src-live-dst", rng.integers(6, 9, size=60),
             [False, False] + [True] * 4)):
        assert (lengths ** 2).sum() > _BLOCK_FLOATS // 24, case
        values = _encoder_values(rng, len(lengths) * int(lengths.max()), 24)
        for v in values:
            v[rng.random(v.shape) < 0.05] = -0.0
        _check_encoder(values, lengths, live,
                       rng.normal(size=(len(lengths), 24)), case)


def test_encoder_backward_holds_no_pair_gradient():
    """tracemalloc: the backward of one ``encoder`` node over 320
    sequences of lengths 2 to 8 at d = 24 (9,103 pairs), items live, peaks
    under 2.0 (pairs x d) float64 tables above its entry. Forming the
    whole (pairs x h) pair gradient and one cell index per pair scatter,
    beside the (2, n, T, k) table adjoint: 3.49 tables (5.82 MiB).
    Scattering one block of whole sequences at a time: 2.17 tables; also
    freeing the table adjoint once its block products are taken: 1.53
    tables (2.56 MiB) in a first version, 1.48 (2.47 MiB) as written. The
    gradients are bit-equal on every side."""
    rng = np.random.default_rng(5)
    d, n_items = 24, 500
    lengths = rng.integers(2, 9, size=320)
    t = Tape()
    nodes = [t.param(name, value) for name, value in zip(
        ENCODER_INPUTS, _encoder_values(rng, n_items, d))]
    out = t.encoder(nodes[0], rng.integers(n_items, size=lengths.sum()),
                    *nodes[1:], lengths)
    t.forward()
    adj = rng.normal(size=out.value.shape)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        grads = t.backward(out, adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads.keys() == set(ENCODER_INPUTS)
    table = (lengths ** 2).sum() * d * 8
    assert peak - entry < 2.0 * table, (peak - entry) / table


def test_pair_loss_equals_the_unfused_chain_bit_for_bit():
    """Loss and every live input's gradient equal the scoring chain's and
    the pairwise tail's twelve node rules, bit for bit: d from 1 to 128,
    k_neg from 1 to 5, repeated candidates, ReLU zeros (and -0.0) in the
    preferences and saturating scores; an input that is not live gets no
    gradient computed."""
    rng = np.random.default_rng(19)
    for draw in range(120):
        d = int(rng.choice([1, 3, 24, 128]))
        k_neg, n_items, n_rows = (int(v) for v in
                                  rng.integers((1, 1, 1), (6, 12, 9)))
        items = rng.normal(size=(n_items, d)) * rng.choice([0.1, 1.0, 30.0])
        prefs = np.maximum(rng.normal(size=(n_rows, d)), 0.0)
        prefs[rng.random(prefs.shape) < 0.2] = -0.0
        cand = rng.integers(n_items, size=n_rows * (1 + k_neg))
        want = unfused_pair_loss(items, prefs, cand, k_neg)
        live = [True, True] if draw % 4 == 0 else \
            [bool(draw >> bit & 1) for bit in range(2)]
        t = Tape()
        inputs = [_bind(t, name, v, on)
                  for name, v, on in zip(("items", "prefs"), (items, prefs),
                                         live)]
        loss = t.pair_loss(*inputs, cand, k_neg)
        t.forward()
        assert _same_bits(loss.value, want[0]), draw
        got = t.backward(loss)
        assert got.keys() == {n for n, on in zip(("items", "prefs"), live)
                              if on}, draw
        for name, grad in zip(("items", "prefs"), want[1:]):
            assert name not in got or _same_bits(got[name], grad), draw


@pytest.mark.parametrize("op", ["encoder", "pair_loss"])
def test_backwards_leave_the_saved_state_as_the_forward_left_it(op):
    """After one forward, two backwards of a fused node return the same
    gradients bit for bit and leave every array the forward saved byte for
    byte as it was: what a backward reads of its forward, no backward
    writes. The encoder's items repeat and its padded slots read row 0;
    the pair loss's candidates repeat."""
    rng = np.random.default_rng(21)
    t = Tape()
    if op == "encoder":
        lengths = [3, 1, 2]
        values = _encoder_values(rng, 6, 4)
        out = t.encoder(*(t.param(name, value) for name, value in
                          zip(ENCODER_INPUTS[:1], values)),
                        [1, 4, 1, 5, 1, 0],
                        *(t.param(name, value) for name, value in
                          zip(ENCODER_INPUTS[1:], values[1:])), lengths)
    else:
        out = t.pair_loss(t.param("items", rng.normal(size=(6, 3))),
                          t.param("prefs", rng.normal(size=(2, 3))),
                          [0, 2, 2, 5, 4, 0, 4, 3], 3)
    t.forward()
    saved = [(a.shape, a.dtype, a.tobytes()) for a in out.saved]
    adj = rng.normal(size=out.value.shape)
    first, second = t.backward(out, adj), t.backward(out, adj)
    assert first.keys() == second.keys() == t.params.keys()
    for name, grad in first.items():
        assert _same_bits(second[name], grad), name
    assert [(a.shape, a.dtype, a.tobytes()) for a in out.saved] == saved


def test_fused_ops_reject_mismatched_shapes():
    for build in (lambda t: _encoder_of(t, (6, 3), combine_shape=(3, 5)),
                  lambda t: _encoder_of(t, (6, 3), bias_shape=(2,)),
                  lambda t: _encoder_of(t, (6, 2)),
                  lambda t: _encoder_of(t, (6, 3), score_shape=(3, 2)),
                  lambda t: _encoder_of(t, (6, 3), w_shape=(3,)),
                  lambda t: t.pair_loss(t.constant(np.ones((4, 3))),
                                        t.constant(np.ones((2, 2))),
                                        [0, 1, 2, 3], 1),
                  lambda t: t.pair_loss(t.constant(np.ones((4, 3))),
                                        t.constant(np.ones((2, 3))),
                                        [0, 1, 2, 3, 0], 1),
                  lambda t: _conv_of(t, np.ones((2, 2)), np.ones((2, 2)), 3),
                  lambda t: _conv_of(t, np.ones((2, 3)), np.ones((2, 2))),
                  lambda t: _conv_of(t, np.ones((2, 2)), np.ones((2, 2)),
                                     rows=(0, 2)),
                  lambda t: _conv_of(t, np.ones((2, 2)), np.ones((2, 2)),
                                     rows=(-1,))):
        t = Tape()
        node = build(t)
        with pytest.raises(ShapeError, match=f"node {node.idx}"):
            t.forward()


def test_masked_softmax_rows_equals_the_formula_bit_for_bit():
    """Masked entries (-inf, +inf, NaN), all-masked rows, -0.0 and wide
    logit ranges give the boolean-index formula's output bit for bit."""
    rng = np.random.default_rng(18)
    for t_len in (1, 2, 5, 8, 10):
        for draw in range(30):
            z = rng.normal(size=(int(rng.integers(1, 700)), t_len))
            z *= rng.choice([1.0, 30.0, 800.0])
            z[rng.random(z.shape) < 0.4] = -np.inf
            z[rng.random(z.shape[0]) < 0.1] = -np.inf
            z[rng.random(z.shape) < 0.05] = -0.0
            z[rng.random(z.shape) < 0.02] = rng.choice([np.nan, np.inf])
            assert _same_bits(masked_softmax_rows(z),
                              masked_softmax_formula(z)), (t_len, draw)


def _dispatched_ops(method):
    """The op names ``method`` compares ``op`` with."""
    names = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) \
                and node.left.id == "op":
            for right in node.comparators:
                names |= {c.value for c in ast.walk(right)
                          if isinstance(c, ast.Constant)}
    return names


def built_ops(tree=None):
    """The op names ``Tape``'s builders hand to ``_append``."""
    tree = tree or ast.parse(inspect.getsource(Tape))
    return {call.args[0].value for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) == "_append"
            and isinstance(call.args[0], ast.Constant)}


def test_every_op_has_a_builder_a_forward_and_a_gradient_rule():
    """The ops ``Tape`` builders append, the ops ``_compute`` evaluates and
    the ops ``_input_grads`` differentiates are one set (sources aside):
    a deleted builder that leaves its rules behind, or an op without a
    rule, fails here by name."""
    tree = ast.parse(inspect.getsource(Tape))
    methods = {f.name: f for f in tree.body[0].body
               if isinstance(f, ast.FunctionDef)}
    built = built_ops(tree)
    computed = _dispatched_ops(methods["_compute"])
    differentiated = _dispatched_ops(methods["_input_grads"])
    sources = built - computed      # bound, not computed
    assert sources == {"param", "const"}, sources
    assert computed == built - sources, computed ^ (built - sources)
    assert differentiated == built - sources, \
        differentiated ^ (built - sources)


def test_conv_equals_the_six_node_chain_bit_for_bit():
    """Value and every live input's gradient equal the lookup, segment
    mean, dense, concat, dense and row-normalization rules', bit for bit:
    the pooled table as the inherent table (a layer 0) or a second table,
    repeated ids, empty segments, all-zero merge rows, -0.0 adjoints and
    every live pattern; an input that is not live gets no gradient."""
    rng = np.random.default_rng(20)
    names = ("features", "inherent", "latent_w", "latent_b", "merge_w",
             "merge_b")
    for draw in range(160):
        d = int(rng.choice([1, 3, 8, 24]))
        n_rows = int(rng.integers(1, 9))
        n_inherent = n_rows + int(rng.integers(0, 12))
        layer0 = draw % 2 == 0
        n_features = n_inherent if layer0 else int(rng.integers(1, 20))
        counts = rng.integers(0, 6, size=n_rows)
        counts[rng.random(n_rows) < 0.25] = 0
        ids = rng.integers(0, n_features, size=int(counts.sum()))
        rows = np.sort(rng.choice(n_inherent, n_rows, replace=False)) \
            if draw % 3 else rng.integers(0, n_inherent, size=n_rows)
        inherent = rng.normal(size=(n_inherent, d))
        inherent[rng.random(n_inherent) < 0.2] = 0.0
        features = inherent if layer0 else rng.normal(size=(n_features, d))
        weights = [rng.normal(size=(d, d)), rng.normal(size=d),
                   rng.normal(size=(d, 2 * d)), rng.normal(size=d)]
        if draw % 4 == 1:
            weights[3] -= 100.0         # every merge row is zero
        adj = rng.normal(size=(n_rows, d))
        adj[rng.random(adj.shape) < 0.2] = -0.0
        want = unfused_conv(features, inherent, rows, ids, counts, *weights,
                            adj)
        live = [bool(draw >> bit & 1) for bit in range(1, 7)]
        if layer0:
            live[0] = live[1]
        t = Tape()
        nodes = [_bind(t, name, v, on) for name, v, on in
                 zip(names, [features, inherent, *weights], live)]
        if layer0:
            nodes[0] = nodes[1]
        out = t.conv(nodes[0], nodes[1], rows, ids, counts, *nodes[2:])
        t.forward()
        assert _same_bits(out.value, want[0]), draw
        got = t.backward(out, adj)
        grads = list(want[1:])
        if layer0:
            grads[1] = grads[0] + grads[1]
        assert got.keys() == {name for name, on in list(zip(
            names, live))[layer0:] if on}, draw
        for name, grad in list(zip(names, grads))[layer0:]:
            assert name not in got or _same_bits(got[name], grad), \
                (draw, name)


def test_two_conv_layers_sharing_inherent_equal_the_chained_rules():
    """Two stacked ``conv`` nodes that share ``inherent``: the value, the
    inherent gradient ``(A + G_pool) + G_rows`` (layer 1's rows, then
    layer 0's pool and rows) and every weight gradient equal two chained
    unfused layers', bit for bit. Overlapping and disjoint row sets, -0.0
    adjoints, unsorted or repeated rows (a dense scatter), the inherent
    gradient a dense ndarray, and a second backward, which gives the same
    bits in a new mapping and leaves the first call's arrays as they
    were."""
    rng = np.random.default_rng(23)
    names = ("latent_w", "latent_b", "merge_w", "merge_b")

    def layer_rows(pool, draw):
        rows = np.sort(rng.choice(pool, int(rng.integers(1, pool.size + 1)),
                                  replace=False))
        if draw % 5 == 4:
            rows = rng.permutation(rows)
        elif draw % 5 == 3:
            rows = rng.choice(rows, rows.size)
        return rows

    for draw in range(120):
        d = int(rng.choice([1, 3, 8]))
        n = int(rng.integers(2, 14))
        inherent = rng.normal(size=(n, d))
        inherent[rng.random(n) < 0.2] = 0.0
        rows0 = layer_rows(np.arange(n), draw)
        rest = np.setdiff1d(np.arange(n), rows0)
        disjoint = draw % 2 == 0 and rest.size > 0
        rows1 = layer_rows(rest if disjoint else np.arange(n), draw // 5)
        counts0, counts1 = (rng.integers(0, 5, size=r.size)
                            for r in (rows0, rows1))
        ids0 = rng.integers(0, n, size=int(counts0.sum()))
        ids1 = rng.integers(0, rows0.size, size=int(counts1.sum()))
        weights = [[rng.normal(size=(d, d)), rng.normal(size=d),
                    rng.normal(size=(d, 2 * d)), rng.normal(size=d)]
                   for _ in range(2)]
        if draw % 4 == 1:
            weights[0][3] -= 100.0      # every layer-0 merge row is zero
        adj = rng.normal(size=(rows1.size, d))
        adj[rng.random(adj.shape) < 0.3] = -0.0

        out0 = unfused_conv(inherent, inherent, rows0, ids0, counts0,
                            *weights[0], np.zeros((rows0.size, d)))[0]
        out1, g_out0, g_rows1, *w1 = unfused_conv(
            out0, inherent, rows1, ids1, counts1, *weights[1], adj)
        _, g_pool0, g_rows0, *w0 = unfused_conv(
            inherent, inherent, rows0, ids0, counts0, *weights[0], g_out0)
        want = {"inherent": (g_rows1 + g_pool0) + g_rows0}
        for layer, grads in enumerate((w0, w1)):
            want.update({f"{layer}/{k}": g for k, g in zip(names, grads)})

        t = Tape()
        inh = t.param("inherent", inherent)
        nodes = [[t.param(f"{layer}/{k}", v) for k, v in zip(names, w)]
                 for layer, w in enumerate(weights)]
        c0 = t.conv(inh, inh, rows0, ids0, counts0, *nodes[0])
        c1 = t.conv(c0, inh, rows1, ids1, counts1, *nodes[1])
        t.forward()
        assert _same_bits(c1.value, out1), draw
        first = None
        for _ in range(2):
            got = t.backward(c1, adj)
            assert got is not first, draw
            assert type(got["inherent"]) is np.ndarray, draw
            assert got.keys() == want.keys()
            for name, grad in want.items():
                assert _same_bits(got[name], grad), (draw, name)
            if first is None:
                first = got
                kept = {k: g.copy() for k, g in got.items()}
        assert all(_same_bits(g, kept[k]) for k, g in first.items()), draw


def test_row_sparse_sums_equal_the_dense_sums():
    """A RowGrad plus a dense gradient, either first, plus a RowGrad, and
    a RowGrad alone as a table: the dense sums bit for bit, with every
    -0.0 of the sparse values and of the dense rows."""
    rng = np.random.default_rng(24)
    for draw in range(200):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))

        def sparse():
            rows = np.flatnonzero(rng.random(n) < 0.6)
            values = rng.choice([-0.0, 0.0, 1.5, -2.0], size=(rows.size, d))
            return RowGrad(rows, values)

        def dense_of(grad):
            table = np.zeros((n, d))
            np.add.at(table, grad.rows, grad.values)
            return table

        a, c = sparse(), sparse()
        b = rng.choice([-0.0, 0.0, 0.5, -1.0], size=(n, d))
        assert _same_bits(a.dense((n, d)), dense_of(a)), draw
        want = (dense_of(a) + b) + dense_of(c)
        for sparse_first in (True, False):
            total = _add_adjoints(a, b.copy(), (n, d)) if sparse_first \
                else _add_adjoints(b.copy(), a, (n, d))
            total = _add_adjoints(total, c, (n, d))
            assert _same_bits(total, want), draw
        both = _add_adjoints(a, c, (n, d))
        assert _same_bits(both, dense_of(a) + dense_of(c)), draw


def _aliasing_tapes(rng):
    """Graphs where a node sums several gradients: two from one
    ``add(x, x)``, two from one ``encoder`` that reads a param twice, or
    ones ``add`` rules handed on beside other rules'."""
    def add_twice(t, x, z):
        return t.add(t.add(x, x), t.add(x, z))       # add(x, x); x and z

    def encoder_twice(t, x, z):
        # z is both projection weights of one sequence of length 3
        h = t.encoder(x, [0, 1, 2], z, z,
                      *(t.constant(rng.normal(size=shape))
                        for shape in ((3, 1), (3, 6), (3,))), [3])
        return t.add(t.add(h, t.add(h, h)), t.segment_mean(h, [0], [1]))

    def chained_adds(t, x, z):
        h = t.add(x, z)
        r = t.add(t.add(h, h),
                  t.segment_mean(t.add(h, x), [1, 2, 0], [1, 1, 1]))
        return t.add(r, t.mul(h, t.add(h, z)))

    def three_consumers(t, x, z):
        # x is the pooled and the inherent table of a conv; unsorted rows
        conv = t.conv(x, x, [2, 0, 1], [0, 2, 1, 1, 2], [2, 1, 2], z,
                      *(t.constant(rng.normal(size=shape))
                        for shape in ((3,), (3, 6), (3,))))
        return t.add(t.add(t.mul(x, z), conv),
                     t.segment_mean(x, [0, 2, 1, 1], [2, 1, 1]))

    for build in (add_twice, encoder_twice, chained_adds, three_consumers):
        t = Tape()
        x = t.param("x", rng.normal(size=(3, 3)))
        z = t.param("z", rng.normal(size=(3, 3)))
        out = build(t, x, z)
        t.forward()
        yield t, out, rng.normal(size=out.value.shape)


def test_in_place_adjoint_sums_equal_the_out_of_place_ones():
    """Parameter gradients equal a backward that makes every sum a new
    array, bit for bit, on graphs where ``add`` rules hand one adjoint to
    several inputs; no value changes."""
    rng = np.random.default_rng(21)
    for t, out, adj in _aliasing_tapes(rng):
        values = [n.value.copy() for n in t.nodes]
        grads = out_of_place_backward(t, out, adj)
        t.forward()
        got = t.backward(out, adj.copy())
        assert got.keys() == grads.keys() == {"x", "z"}
        for name, grad in grads.items():
            assert _same_bits(got[name], grad), name
        assert all(_same_bits(n.value, v) for n, v in zip(t.nodes, values))
