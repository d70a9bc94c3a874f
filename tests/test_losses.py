import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from metacsr import graph as gr
from metacsr import losses
from metacsr import sequence as seq
from metacsr.autodiff import Tape, finite_difference_check
from metacsr.data import BehaviorSequence
from metacsr.params import ModelConfig, init_model

from oracles import (drawn_negatives, full_stack_tape, neighbor_plan,
                     reference_convolve, reference_encode,
                     reference_pairwise_loss, scalar_negatives, sigmoid,
                     skewed_pairs)


def test_pairwise_gradient_signs():
    """The loss pulls the positive's score up and the negative's down."""
    t = Tape()
    items = t.param("items", [[0.4, 0.1], [0.7, -0.2]])
    prefs = t.constant([[1.0, 0.5]])
    loss = t.pair_loss(items, prefs, [0, 1], 1)
    t.forward()
    # the loss's slope along each candidate's score
    d_pos, d_neg = t.backward(loss)["items"] @ prefs.value[0]
    assert d_pos < 0 < d_neg
    assert finite_difference_check(t, loss, "items") < 1e-8


def _tiny_setup(dim=4, n_users=3, n_items=6, seed=5):
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 0)]
    g = gr.build_interaction_graph(edges, n_users, n_items)
    config = ModelConfig(dim=dim, diffusion_depth=2, neighbor_cap=10,
                         t_min=2, t_max=6)
    params = init_model(g.n_entities, config, np.random.default_rng(seed))
    histories = {0: [0, 1], 1: [1, 2], 2: [0, 3]}
    return g, params, histories


def test_batch_loss_single_sequence_equals_pairwise():
    g, params, histories = _tiny_setup()
    s = BehaviorSequence(user=0, items=(0, 1, 2), target=3)
    rng = np.random.default_rng(9)
    tape, loss, negatives = full_stack_tape(
        g, params, [s], k_neg=1, rng=rng, histories=histories,
        plan=gr.sample_neighbor_plan(g, 10, 2, np.random.default_rng(0)))
    tape.forward()

    # oracle: frozen features + value-level encoder + scalar pairwise loss
    feats = losses.cached_item_features(g, params, np.random.default_rng(0))
    s_u = seq.encode_sequence(feats[list(s.items)], params.theta2)
    (neg,) = negatives[0]
    p_pos = sigmoid(s_u @ feats[s.target])
    p_neg = sigmoid(s_u @ feats[neg])
    assert float(loss.value) == pytest.approx(
        reference_pairwise_loss(p_pos, [p_neg]), rel=1e-10)


def test_batch_loss_duplicate_sequence_mean_invariant():
    g, params, histories = _tiny_setup()
    s = BehaviorSequence(user=0, items=(0, 1), target=2)
    feats = losses.cached_item_features(g, params, np.random.default_rng(0))

    def run(seqs, rng_seed):
        tape = Tape()
        nodes = {k: tape.param(k, v) for k, v in params.theta2.items()}
        f = tape.constant(feats)
        # force the same negative for each copy
        rng = np.random.default_rng(rng_seed)
        loss = losses.build_batch_loss(
            tape, f, nodes, seqs, 1, rng, {0: [0, 1, 2, 4, 5]}, g.n_items)
        tape.forward()
        return float(loss.value)

    assert run([s], 3) == pytest.approx(run([s, s], 3), rel=1e-12)


def test_batch_loss_empty_batch_raises():
    g, params, histories = _tiny_setup()
    tape = Tape()
    nodes = {k: tape.param(k, v) for k, v in params.theta2.items()}
    with pytest.raises(ValueError, match="no sequences"):
        losses.build_batch_loss(
            tape, tape.constant(np.zeros((g.n_items, params.dim))), nodes,
            [], 1, np.random.default_rng(1), histories, g.n_items)


def test_grouped_encoder_matches_per_sequence_path():
    g, params, histories = _tiny_setup()
    feats = losses.cached_item_features(g, params, np.random.default_rng(0))
    seqs = [
        BehaviorSequence(user=0, items=(0, 1, 2), target=3),
        BehaviorSequence(user=1, items=(2, 4, 1), target=5),
        BehaviorSequence(user=2, items=(3, 0), target=1),
    ]
    tape = Tape()
    nodes = {k: tape.constant(v) for k, v in params.theta2.items()}
    prefs = seq.build_sequence_encoder(
        tape, tape.constant(feats), [i for s in seqs for i in s.items],
        nodes, [3, 3, 2])
    tape.forward()
    for row, s in enumerate(seqs):
        expected = seq.encode_sequence(feats[list(s.items)], params.theta2)
        np.testing.assert_allclose(prefs.value[row], expected, rtol=1e-9,
                                   atol=1e-12)
        oracle = reference_encode(feats[list(s.items)], params.theta2)
        np.testing.assert_allclose(prefs.value[row], oracle, rtol=1e-8,
                                   atol=1e-12)


def _mixed_batch(lengths, n_items=6):
    """One user's sequences of the given lengths, item ids cycling."""
    seqs = []
    for i, t_len in enumerate(lengths):
        items = tuple((3 * i + j) % n_items for j in range(t_len))
        seqs.append(BehaviorSequence(user=0, items=items,
                                     target=(i + 1) % n_items))
    return seqs


def _batch_tape(params, feats, seqs, use_sequence=True, k_neg=2):
    """Batch loss over a trainable feature table and theta2."""
    tape = Tape()
    table = tape.param("feats", feats)
    nodes = {k: tape.param(k, v) for k, v in params.theta2.items()}
    loss = losses.build_batch_loss(
        tape, table, nodes, seqs, k_neg, np.random.default_rng(4),
        {0: {0, 1}}, feats.shape[0], use_sequence=use_sequence)
    return tape, loss


def test_batch_loss_node_count_independent_of_distinct_lengths():
    """The node count grows with neither distinct lengths nor k_neg: a
    batch loss is two nodes, one ``encoder`` node that gathers the
    sequences' rows and encodes them to preferences (without the sequence
    encoder, one ``segment_mean`` node that averages them) and one
    ``pair_loss`` node for the ranking loss."""
    g, params, _ = _tiny_setup()
    feats = np.zeros((g.n_items, params.dim))
    for use_sequence, pool in ((True, "encoder"), (False, "segment_mean")):
        one, seven = (_batch_tape(params, feats, _mixed_batch(lengths),
                                  use_sequence)[0]
                      for lengths in ([5] * 7, range(2, 9)))
        assert len(seven.nodes) == len(one.nodes)
        k1, k4 = (_batch_tape(params, feats, _mixed_batch([2, 5, 3]),
                              use_sequence, k_neg=k_neg)[0].nodes
                  for k_neg in (1, 4))
        assert len(k1) == len(k4)
        assert [node.op for node in k1 if node.op != "param"] == [
            pool, "pair_loss"]


@pytest.mark.parametrize("use_sequence", [True, False])
def test_batch_loss_refuses_item_ids_outside_the_table(use_sequence):
    """A sequence item or a target at or beyond ``n_items``, or below 0,
    is a ValueError that names the node reading it, not numpy's
    IndexError or a row read from the table's end."""
    g, params, _ = _tiny_setup()
    feats = np.zeros((g.n_items, params.dim))
    for items, target in (((0, g.n_items), 1), ((0, 1), g.n_items),
                          ((-1, 1), 2)):
        seqs = [BehaviorSequence(user=0, items=(2, 3, 1), target=4),
                BehaviorSequence(user=0, items=items, target=target)]
        tape, _ = _batch_tape(params, feats, seqs, use_sequence)
        with pytest.raises(ValueError, match="ids span .* outside the "
                                             f"table's {g.n_items} rows"):
            tape.forward()


def test_mixed_length_batch_gradients_pass_finite_differences():
    g, params, _ = _tiny_setup(dim=3)
    feats = np.random.default_rng(8).normal(size=(g.n_items, params.dim))
    tape, loss = _batch_tape(params, feats, _mixed_batch([2, 5, 3, 5, 4]))
    for name in ["feats", *params.theta2]:
        assert finite_difference_check(tape, loss, name, 1e-6) < 1e-4, name


def test_padding_filler_leaves_loss_and_gradients_unchanged():
    """The row that the encoder's padded slots read, row 0 or any other,
    changes neither the loss nor any gradient."""
    g, params, _ = _tiny_setup()
    feats = np.random.default_rng(9).normal(size=(g.n_items, params.dim))
    seqs = _mixed_batch([2, 6, 3, 4])
    runs = []
    for filler in (0, 5, 2):
        tape, loss = _batch_tape(params, feats, seqs)
        encoder, = (node for node in tape.nodes if node.op == "encoder")
        *_, inside, gather = encoder.aux
        padded = ~inside.reshape(-1)
        assert padded.any()
        gather[padded] = filler
        tape.forward()
        runs.append((loss.value, tape.backward(loss)))
    for value, grads in runs[1:]:
        assert value == runs[0][0]
        assert grads.keys() == runs[0][1].keys()
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, runs[0][1][name], name)


def test_full_stack_matches_scalar_reference():
    """End-to-end oracle: diffusion + encoding + scoring + loss by hand."""
    g, params, histories = _tiny_setup(dim=3)
    seqs = [BehaviorSequence(user=0, items=(0, 1, 2), target=3),
            BehaviorSequence(user=1, items=(2, 0), target=4)]
    plan = gr.sample_neighbor_plan(g, 10, 2, np.random.default_rng(0))
    rng = np.random.default_rng(11)
    tape, loss, negatives = full_stack_tape(
        g, params, seqs, k_neg=2, rng=rng, histories=histories,
        plan=plan)
    tape.forward()

    # unrolled diffusion with the same neighbor plan
    inherent = params.theta1[gr.INHERENT]
    def layer(k):
        return (params.theta1[gr.LATENT_W.format(layer=k)],
                params.theta1[gr.LATENT_B.format(layer=k)],
                params.theta1[gr.MERGE_W.format(layer=k)],
                params.theta1[gr.MERGE_B.format(layer=k)])
    current = inherent
    for k in range(2):
        ids, counts = plan[k]
        starts = np.cumsum(counts) - counts
        nxt = [reference_convolve(inherent[e],
                                  [current[nb] for nb in
                                   ids[starts[e]:starts[e] + counts[e]]],
                                  *layer(k))
               for e in range(g.n_entities)]
        current = np.array(nxt)
    feats = current[g.n_users:]

    per_pair = []
    for i, s in enumerate(seqs):
        s_u = reference_encode(feats[list(s.items)], params.theta2)
        p_pos = sigmoid(float(s_u @ feats[s.target]))
        for neg in negatives[i]:
            p_neg = sigmoid(float(s_u @ feats[neg]))
            per_pair.append(-math.log(sigmoid(p_pos - p_neg)))
    assert float(loss.value) == pytest.approx(np.mean(per_pair), rel=1e-8)


def test_negative_sampling_respects_history_and_determinism():
    rng = np.random.default_rng(4)
    (negs,) = losses.sample_negatives([{0, 1, 2}], 50, 10, rng)
    assert len(set(negs)) == 10
    assert not set(negs) & {0, 1, 2}
    again = losses.sample_negatives([{0, 1, 2}], 50, 10,
                                    np.random.default_rng(4))
    assert [negs] == again
    with pytest.raises(ValueError, match="catalog"):
        losses.sample_negatives([set(range(45))], 50, 10,
                                np.random.default_rng(0))


@pytest.mark.parametrize("n_items, n_positives, k", [
    (500, 45, 4), (60, 50, 8), (12, 11, 1), (30, 5, 0)])
def test_batch_negative_draw_is_the_scalar_loop_and_its_stream(
        n_items, n_positives, k):
    """One call for a batch draws what the per-sequence rejection loop
    draws and leaves the rng where the loop leaves it, also when most
    draws are rejected (a few free items per set)."""
    rng = np.random.default_rng(21)
    excluded = [set(rng.choice(n_items, n_positives, replace=False).tolist())
                for _ in range(40)] + [set()]
    mine, ref = np.random.default_rng(5), np.random.default_rng(5)
    assert losses.sample_negatives(excluded, n_items, k, mine) \
        == scalar_negatives(excluded, n_items, k, ref)
    assert mine.integers(0, 2 ** 40) == ref.integers(0, 2 ** 40)


def test_batch_loss_draws_outside_each_users_history_set(monkeypatch):
    """A batch whose users repeat draws, per sequence in order, what the
    scalar loop draws outside ``set(history)``: repeated items and users
    change nothing, and the rng ends where the loop leaves it."""
    _, params, _ = _tiny_setup(n_items=12)
    histories = {0: [0, 1, 1, 5], 1: [2, 2, 2], 2: [3, 0, 3, 7, 9, 0]}
    seqs = [BehaviorSequence(user=u, items=(0, 1), target=4)
            for u in (2, 0, 2, 1, 0, 2)]
    drawn, real = [], losses.sample_negatives

    def spy(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(losses, "sample_negatives", spy)
    tape = Tape()
    nodes = {k: tape.param(k, v) for k, v in params.theta2.items()}
    mine, ref = np.random.default_rng(13), np.random.default_rng(13)
    losses.build_batch_loss(
        tape, tape.constant(np.zeros((12, params.dim))), nodes, seqs, 3,
        mine, histories, 12)
    assert drawn == [scalar_negatives([set(histories[s.user]) for s in seqs],
                                      12, 3, ref)]
    assert mine.integers(0, 2 ** 40) == ref.integers(0, 2 ** 40)


def test_batch_loss_counts_a_repeated_history_item_once():
    """Six catalog items and a history of four distinct ones in six
    behaviors leave two negatives, not zero: the error names them."""
    _, params, _ = _tiny_setup()
    tape = Tape()
    nodes = {k: tape.param(k, v) for k, v in params.theta2.items()}
    s = BehaviorSequence(user=0, items=(0, 1), target=2)
    with pytest.raises(ValueError,
                       match="6 items leaves only 2 negatives, need 3"):
        losses.build_batch_loss(
            tape, tape.constant(np.zeros((6, params.dim))), nodes, [s], 3,
            np.random.default_rng(0), {0: [0, 1, 1, 2, 2, 3]}, 6)


def test_full_stack_gradients_pass_finite_differences():
    g, params, histories = _tiny_setup(dim=3)
    seqs = [BehaviorSequence(user=0, items=(0, 1, 2, 4), target=3)]
    plan = gr.sample_neighbor_plan(g, 10, 2, np.random.default_rng(0))
    tape, loss, _ = full_stack_tape(
        g, params, seqs, k_neg=2, rng=np.random.default_rng(2),
        histories=histories, plan=plan)
    for name in [gr.INHERENT, "diff0.latent_w", "diff1.merge_w",
                 seq.ATT_SRC_W, seq.ATT_SCORE_W, seq.COMBINE_W,
                 seq.COMBINE_B]:
        assert finite_difference_check(tape, loss, name, 1e-6) < 1e-4, name


def test_ablation_no_sequence_uses_window_mean():
    g, params, histories = _tiny_setup()
    params.config.use_sequence = False
    feats = losses.cached_item_features(g, params, np.random.default_rng(0))
    s = BehaviorSequence(user=0, items=(0, 1, 2), target=3)
    tape = Tape()
    nodes = {k: tape.param(k, v) for k, v in params.theta2.items()}
    rng = np.random.default_rng(3)
    (neg,), = drawn_negatives([s], 1, rng, histories, g.n_items)
    loss = losses.build_batch_loss(
        tape, tape.constant(feats), nodes, [s], 1, rng, histories, g.n_items,
        use_sequence=params.config.use_sequence)
    tape.forward()
    s_u = feats[list(s.items)].mean(axis=0)
    p_pos = sigmoid(s_u @ feats[s.target])
    p_neg = sigmoid(s_u @ feats[neg])
    assert float(loss.value) == pytest.approx(
        reference_pairwise_loss(p_pos, [p_neg]), rel=1e-10)


def test_ablation_no_diffusion_uses_inherent_features():
    g, params, histories = _tiny_setup()
    params.config.use_diffusion = False
    s = BehaviorSequence(user=0, items=(0, 1, 2), target=3)
    tape, loss, negatives = full_stack_tape(
        g, params, [s], 1, np.random.default_rng(3), histories)
    tape.forward()
    feats = params.theta1[gr.INHERENT][g.n_users:]
    s_u = seq.encode_sequence(feats[list(s.items)], params.theta2)
    p_pos = sigmoid(s_u @ feats[s.target])
    p_neg = sigmoid(s_u @ feats[negatives[0][0]])
    assert float(loss.value) == pytest.approx(
        reference_pairwise_loss(p_pos, [p_neg]), rel=1e-10)


def _item_pass(g, theta1, config, plan, adjoint, prune):
    """Item rows and theta1 gradients for ``adjoint``: through
    ``item_feature_node``, or a unit-count segment mean (a gather) over
    the every-entity diffusion."""
    tape = Tape()
    nodes = {name: tape.param(name, value) for name, value in theta1.items()}
    if prune:
        out = losses.item_feature_node(tape, g, nodes, config, plan=plan)
    else:
        diffused = gr.build_diffusion(tape, plan, nodes,
                                      config.diffusion_depth)
        out = tape.segment_mean(diffused, np.arange(g.n_users, g.n_entities),
                                np.ones(g.n_items))
    tape.forward()
    return out.value, tape.backward(out, adjoint=adjoint)


def _assert_item_routes_equal(g, dim, depth, cap, rng, grads=None):
    """Training and evaluation item rows equal the every-entity table's
    bit for bit, and so do the training pass's theta1 gradients named in
    ``grads`` (default: every one)."""
    config = ModelConfig(dim=dim, diffusion_depth=depth, neighbor_cap=cap)
    theta1 = gr.init_diffusion_params(g.n_entities, dim, depth, rng)
    plan_seed = int(rng.integers(2**32))
    plan = gr.sample_neighbor_plan(g, cap, depth,
                                   np.random.default_rng(plan_seed))
    adjoint = rng.normal(size=(g.n_items, dim))
    value, grads_got = _item_pass(g, theta1, config, plan, adjoint, True)
    want_value, want_grads = _item_pass(g, theta1, config, plan, adjoint,
                                        False)
    table = gr.diffuse_all(g, theta1, depth, cap,
                           np.random.default_rng(plan_seed))
    cached = losses.cached_item_features(
        g, SimpleNamespace(config=config, theta1=theta1),
        np.random.default_rng(plan_seed))
    assert np.array_equal(table[g.n_users:], want_value)
    assert np.array_equal(value, want_value)
    assert np.array_equal(cached, want_value)
    assert grads_got.keys() == want_grads.keys() == theta1.keys()
    for name in grads or theta1:
        assert np.array_equal(grads_got[name], want_grads[name]), name


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_pruned_item_pass_equals_full_diffusion(depth):
    """Skewed graphs with isolated entities and a cap below the largest
    degree: the pruned training pass and the evaluation table give the
    every-entity diffusion's item rows, and the training pass its theta1
    gradients, exactly."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n_users, n_items = int(rng.integers(3, 40)), int(rng.integers(3, 60))
        g = gr.build_interaction_graph(
            skewed_pairs(rng, n_users, n_items, 300), n_users, n_items)
        cap = int(rng.integers(1, np.diff(g.indptr).max()))
        _assert_item_routes_equal(g, 5, depth, cap, rng)


def test_pruned_item_pass_equals_full_diffusion_at_blas_kernel_sizes():
    """2,400 item rows and 1,500 user rows at d=32, past the small-matrix
    GEMM kernels: the item rows and the inherent-table gradient stay
    bit-equal. Weight gradients reduce over fewer rows and may move in
    the last bits."""
    rng = np.random.default_rng(11)
    n_users, n_items = 1500, 2400
    pairs = [*skewed_pairs(rng, n_users, n_items, 4000),
             *zip(rng.integers(0, n_users, 16000).tolist(),
                  rng.integers(0, n_items, 16000).tolist())]
    g = gr.build_interaction_graph(pairs, n_users, n_items)
    _assert_item_routes_equal(g, 32, 2, 8, rng, grads=(gr.INHERENT,))


def test_item_features_pool_only_what_the_item_rows_read(monkeypatch):
    """Depth 2 on a bipartite graph with an isolated user: the last layer
    computes the item rows alone and pools their segments of the plan;
    layer 0 computes and pools only the user rows those segments read.
    Every projection runs on its layer's rows only, in training and in the
    evaluation table, and keeps its rows' pool, merge norms and merge
    mask."""
    convs = []
    conv = Tape.conv

    def conv_spy(tape, features, inherent, rows, ids, counts, *weights):
        node = conv(tape, features, inherent, rows, ids, counts, *weights)
        convs.append((node, *map(np.asarray, (rows, ids, counts))))
        return node

    monkeypatch.setattr(Tape, "conv", conv_spy)
    g, params, _ = _tiny_setup(n_users=4)
    losses.ItemFeatures(g, params, np.random.default_rng(0))
    assert len(convs) == 2
    plan = neighbor_plan(g, params.config, np.random.default_rng(0))
    plan_ids, plan_counts = plan[1]
    item_reads = plan_ids[plan_counts[: g.n_users].sum():]
    users = np.unique(item_reads)
    assert users.size == 3 and users.max() < g.n_users
    _, rows, ids, counts = convs[1]
    np.testing.assert_array_equal(rows, np.arange(g.n_users, g.n_entities))
    np.testing.assert_array_equal(counts, plan_counts[g.n_users:])
    np.testing.assert_array_equal(users[ids], item_reads)
    plan_ids, plan_counts = plan[0]
    starts = np.cumsum(plan_counts) - plan_counts
    _, rows, ids, counts = convs[0]
    np.testing.assert_array_equal(rows, users)
    np.testing.assert_array_equal(counts, plan_counts[users])
    np.testing.assert_array_equal(ids, np.concatenate(
        [plan_ids[starts[u]: starts[u] + plan_counts[u]] for u in users]))
    # the pool, the merge norms and the merge mask
    d = params.config.dim
    saved = [[(n, d), (n, 1), (n, d)] for n in (users.size, g.n_items)]
    assert [[a.shape for a in node.saved] for node, *_ in convs] == saved
    assert all(node.saved[2].dtype == bool for node, *_ in convs)
    del convs[:]
    losses.cached_item_features(g, params, np.random.default_rng(0))
    assert [[a.shape for a in node.saved] for node, *_ in convs] == saved


def _feature_pass_world():
    """A 2,000-user, 1,200-item graph of 60,000 uniform draws and depth-2
    diffusion parameters at d=64 and neighbor cap 25; also the rng after
    them."""
    rng = np.random.default_rng(3)
    n_users, n_items, dim = 2000, 1200, 64
    g = gr.build_interaction_graph(
        np.stack([rng.integers(0, n_users, 60000),
                  rng.integers(0, n_items, 60000)], axis=1), n_users, n_items)
    config = ModelConfig(dim=dim, diffusion_depth=2, neighbor_cap=25)
    params = SimpleNamespace(config=config, theta1=gr.init_diffusion_params(
        g.n_entities, dim, 2, rng))
    return g, params, rng


def _tables_held_by_one_pass():
    """tracemalloc: what one ItemFeatures pass on that world holds between
    its forward and its backward, in (entities x d) tables."""
    g, params, _ = _feature_pass_world()
    tracemalloc.start()
    try:
        features = losses.ItemFeatures(g, params, np.random.default_rng(0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert features.value.shape == (g.n_items, params.config.dim)
    return held / (g.n_entities * params.config.dim * 8)


def test_item_feature_pass_and_its_backward_stay_small():
    """tracemalloc: one ItemFeatures pass and two theta1_grads calls on
    that world peak under 13.5 (entities x d) tables. Fused layers that
    keep their pool and merge rows' norms and mask, rebuild their
    concatenation and hand the inherent table row-sparse gradients: 8.0
    tables (12.5 MiB). Keeping the concatenation: 9.8 (15.4 MiB); also
    the merge output, the plan and dense inherent gradients: 12.1 (18.9
    MiB); six nodes per layer: 15.4 (24.1 MiB)."""
    g, params, rng = _feature_pass_world()
    adjoint = rng.normal(size=(g.n_items, params.config.dim))
    tracemalloc.start()
    try:
        features = losses.ItemFeatures(g, params, np.random.default_rng(0))
        features.theta1_grads(adjoint)
        features.theta1_grads(adjoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.5 * g.n_entities * params.config.dim * 8, peak / 2**20


def test_item_feature_pass_holds_little_between_forward_and_backward():
    """What one ItemFeatures pass holds for its backward stays under 5.5
    (entities x d) tables. Keeping each layer's concatenation held 5.0
    tables (7.8 MiB); also the merge outputs and the sampled plan, 6.6
    (10.4 MiB)."""
    assert _tables_held_by_one_pass() < 5.5


def test_item_feature_pass_holds_no_concatenation():
    """What one ItemFeatures pass holds for its backward stays under 3.5
    (entities x d) tables: its value, each layer's pool, merge norms and
    merge mask, and the segment layouts, 3.0 tables (4.7 MiB); each
    backward rebuilds its layer's concatenation. Keeping the
    concatenations held 5.0."""
    assert _tables_held_by_one_pass() < 3.5
