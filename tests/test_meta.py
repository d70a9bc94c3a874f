import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from metacsr import graph as gr
from metacsr import baselines, losses, meta
from metacsr import sequence as seq
from metacsr.autodiff import Tape
from metacsr.data import BehaviorSequence, SyntheticWorldSpec, generate_synthetic_world, synthetic_split
from metacsr.evaluation import ModelScorer
from metacsr.params import ModelConfig, init_model
from metacsr.seeding import component_rng
from oracles import (all_params, feature_loss, full_stack_tape,
                     neighbor_plan, per_window_task, sigmoid)


def small_cfg(**kw):
    base = dict(inner_lr=1e-4, outer_lr=1e-2, task_batch=2, n_way=3,
                k_support=2, k_query=3, max_outer_steps=5, k_neg=1)
    base.update(kw)
    return meta.MetaConfig(**base)


@pytest.fixture(scope="module")
def tiny_world():
    spec = SyntheticWorldSpec(n_items=30, n_chains=2, n_regular=12, n_new=4,
                              mix_weight=0.95, successors=2,
                              seq_len_min=24, seq_len_max=30, seed=5)
    world = generate_synthetic_world(spec)
    regular, new = synthetic_split(world)
    edges = [(u, it) for u, items in regular.items() for it in items]
    graph = gr.build_interaction_graph(edges, n_users=len(regular),
                                       n_items=spec.n_items)
    return world, regular, new, graph


def fresh_params(graph, dim=6, seed=3, **switches):
    config = ModelConfig(dim=dim, diffusion_depth=1, neighbor_cap=8,
                         t_min=2, t_max=6, **switches)
    return init_model(graph.n_entities, config, np.random.default_rng(seed))


# ------------------------------------------------------------ task sampling


def test_sample_task_default_shape():
    histories = {u: list(range(40)) for u in range(40)}
    cfg = meta.MetaConfig()
    task = meta.sample_task(histories, meta.eligible_users(histories, cfg),
                            cfg, np.random.default_rng(0))
    assert len(task.users) == 15
    assert len(task.support) == 15 * 5
    assert len(task.query) == 15 * 15
    per_user = {}
    for s in task.support:
        per_user.setdefault(s.user, []).append(s)
    assert all(len(v) == 5 for v in per_user.values())


def test_sample_task_exact_budget_user_uses_all_targets():
    cfg = small_cfg(n_way=1, k_support=2, k_query=3)
    histories = {7: list(range(100, 107))}  # length 7 -> exactly 5 targets
    task = meta.sample_task(histories, meta.eligible_users(histories, cfg),
                            cfg, np.random.default_rng(1))
    targets = {s.target for s in task.support} | {s.target for s in task.query}
    assert targets == set(histories[7][2:])
    support_targets = {s.target for s in task.support}
    query_targets = {s.target for s in task.query}
    assert not support_targets & query_targets


def test_sample_task_deterministic():
    histories = {u: list(range(30)) for u in range(10)}
    cfg = small_cfg()
    eligible = meta.eligible_users(histories, cfg)
    a = meta.sample_task(histories, eligible, cfg, np.random.default_rng(9))
    b = meta.sample_task(histories, eligible, cfg, np.random.default_rng(9))
    assert a == b


def test_sample_task_insufficient_users_names_shortfall():
    histories = {0: list(range(30)), 1: [0, 1, 2]}
    cfg = small_cfg(n_way=3)
    with pytest.raises(ValueError, match="only 1 eligible"):
        meta.sample_task(histories, meta.eligible_users(histories, cfg),
                         cfg, np.random.default_rng(0))


def test_trainer_sample_tasks_equal_per_call_sample_task(tiny_world):
    """The trainer's eligible-user list, computed once, draws the tasks a
    per-call ``sample_task`` draws on the same streams, step after step;
    users come unsorted and some are too short to be eligible."""
    world, regular, new, graph = tiny_world
    rng = np.random.default_rng(4)
    histories = {int(u): rng.integers(0, 30, size=int(rng.integers(3, 12)))
                 .tolist() for u in rng.permutation(40)}
    params = fresh_params(graph)
    cfg = small_cfg(task_batch=3, n_way=4, k_support=2, k_query=3)
    trainer = meta.MetaTrainer(graph, histories, params, cfg, seed=5)
    assert 4 <= len(trainer.eligible) < len(histories)
    for step in range(5):
        rng = trainer._rng("tasks", step)
        assert trainer.sample_tasks(step) == [
            meta.sample_task(histories,
                             meta.eligible_users(histories, cfg,
                                                 params.config.t_min),
                             cfg, rng, params.config.t_min,
                             params.config.t_max)
            for _ in range(cfg.task_batch)]


def test_sample_task_draws_each_users_windows_as_the_per_window_loop():
    """One length draw per user takes the windows, and leaves the stream,
    exactly where one scalar draw per window did: over 400 tasks on 40
    seeds, with histories so short that some targets allow one length
    only (a draw over a single value takes nothing from the stream) and
    ``t_max`` above some histories' lengths."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        histories = {u: rng.integers(0, 50, size=int(rng.integers(
            6, 30))).tolist() for u in range(12)}
        cfg = small_cfg(n_way=4, k_support=2, k_query=2)
        t_min, t_max = int(rng.integers(2, 4)), int(rng.integers(3, 32))
        eligible = meta.eligible_users(histories, cfg, t_min)
        ours, theirs = (np.random.default_rng(seed + 1000) for _ in range(2))
        for _ in range(10):
            task = meta.sample_task(histories, eligible, cfg, ours, t_min,
                                    t_max)
            assert [list(task.users), *(
                [(s.user, s.items, s.target) for s in part]
                for part in (task.support, task.query))] == list(
                    per_window_task(histories, eligible, cfg, theirs, t_min,
                                    t_max))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_trainer_keeps_no_per_user_copy_of_the_histories():
    """Negative draws read the histories the trainer already holds, so
    building a trainer over 2,000 histories of 200 items allocates little
    more than its eligible-user list (a set per user would be ~16 MiB)."""
    n_users, n_items = 2000, 500
    rng = np.random.default_rng(11)
    histories = {u: rng.integers(0, n_items, size=200).tolist()
                 for u in range(n_users)}
    graph = gr.build_interaction_graph(
        [(u, it) for u, h in histories.items() for it in h], n_users, n_items)
    params = fresh_params(graph, dim=2)
    cfg = small_cfg()
    tracemalloc.start()
    try:
        trainer = meta.MetaTrainer(graph, histories, params, cfg, seed=5)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trainer.eligible) == n_users
    assert allocated < 2 ** 20


# ------------------------------------------------------------- inner loop


def _support_batch(tiny_world, params, cfg):
    world, regular, new, graph = tiny_world
    user = sorted(regular)[0]
    rng = np.random.default_rng(2)
    seqs = [meta.window_sequence(regular[user], 2, 6, rng, user=user)
            for _ in range(3)]
    features = losses.cached_item_features(graph, params,
                                           np.random.default_rng(0))
    return graph, seqs, regular, features


def test_inner_adapt_zero_rate_identity(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    cfg = small_cfg(inner_lr=0.0)
    graph, seqs, histories, features = _support_batch(tiny_world, params, cfg)
    adapted = meta.inner_adapt(params, seqs, cfg, features,
                               np.random.default_rng(1), histories)
    for name, value in params.theta2.items():
        np.testing.assert_array_equal(adapted[name], value)


def test_inner_adapt_single_step_is_sgd(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    cfg = small_cfg(inner_lr=0.05)
    graph, seqs, histories, features = _support_batch(tiny_world, params, cfg)

    _, grads = feature_loss(
        features, params.theta2, seqs, cfg.k_neg, np.random.default_rng(1),
        histories, params.config)()

    adapted = meta.inner_adapt(params, seqs, cfg, features,
                               np.random.default_rng(1), histories)
    for name, value in params.theta2.items():
        expected = value - 0.05 * grads.get(name, 0)
        np.testing.assert_allclose(adapted[name], expected, rtol=1e-12)


def test_inner_adapt_takes_each_step_at_the_updated_weights(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    cfg = small_cfg(inner_lr=0.05, inner_steps=2)
    graph, seqs, histories, features = _support_batch(tiny_world, params, cfg)
    support_loss = feature_loss(features, params.theta2, seqs, cfg.k_neg,
                                np.random.default_rng(1), histories,
                                params.config)
    expected = dict(params.theta2)
    for _ in range(2):
        _, grads = support_loss(expected)
        expected = {k: v - 0.05 * grads[k] if k in grads else v
                    for k, v in expected.items()}

    adapted = meta.inner_adapt(params, seqs, cfg, features,
                               np.random.default_rng(1), histories)
    for name, value in expected.items():
        assert np.array_equal(adapted[name], value), name


def test_inner_adapt_leaves_theta1_bit_identical(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    before = {k: v.copy() for k, v in params.theta1.items()}
    before2 = {k: v.copy() for k, v in params.theta2.items()}
    cfg = small_cfg(inner_lr=0.1, inner_steps=3)
    graph, seqs, histories, features = _support_batch(tiny_world, params, cfg)
    meta.inner_adapt(params, seqs, cfg, features, np.random.default_rng(1),
                     histories)
    for name, value in params.theta1.items():
        assert (value == before[name]).all()
    for name, value in params.theta2.items():
        assert (value == before2[name]).all()


def test_inner_adapt_pure_under_fixed_seed(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    cfg = small_cfg(inner_lr=0.05, inner_steps=2)
    graph, seqs, histories, features = _support_batch(tiny_world, params, cfg)
    a = meta.inner_adapt(params, seqs, cfg, features,
                         np.random.default_rng(7), histories)
    b = meta.inner_adapt(params, seqs, cfg, features,
                         np.random.default_rng(7), histories)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_adaptation_improves_support_fit(tiny_world):
    world, regular, new, graph = tiny_world
    cfg = small_cfg(inner_lr=1e-4, n_way=3, k_support=3, k_query=2)
    params = fresh_params(graph)
    features = losses.cached_item_features(graph, params,
                                           np.random.default_rng(0))
    rng = np.random.default_rng(3)
    failures = 0
    n_tasks = 12
    for t in range(n_tasks):
        task = meta.sample_task(regular, meta.eligible_users(regular, cfg, 2),
                                cfg, rng, 2, 6)
        support_loss = feature_loss(
            features, params.theta2, task.support, cfg.k_neg,
            np.random.default_rng(100 + t), regular, params.config)
        before, _ = support_loss(params.theta2)
        adapted = meta.inner_adapt(params, task.support, cfg, features,
                                   np.random.default_rng(100 + t), regular)
        after, _ = support_loss(adapted)
        if after > before:
            failures += 1
    assert failures / n_tasks < 0.05


# ------------------------------------------------------------- outer loop


def test_outer_update_zero_gradient_only_decays():
    cfg = small_cfg(weight_decay=5e-4, outer_lr=1e-2)
    adam = meta.AdamState()
    params = {"w": np.array([1.0, -2.0])}
    adam.apply(params, {"w": np.zeros(2)}, cfg)
    np.testing.assert_allclose(params["w"],
                               np.array([1.0, -2.0]) * (1 - 1e-2 * 5e-4))


def test_adam_step_reduces_simple_quadratic():
    cfg = small_cfg(outer_lr=0.1, weight_decay=0.0)
    adam = meta.AdamState()
    params = {"w": np.array([5.0])}
    for _ in range(200):
        adam.apply(params, {"w": 2 * params["w"]}, cfg)
    assert abs(params["w"][0]) < 0.5


def test_first_order_theta2_gradient_is_query_gradient_at_adapted(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    cfg = small_cfg(task_batch=1, n_way=2, k_support=2, k_query=2,
                    inner_lr=0.01)
    trainer = meta.MetaTrainer(graph, regular, params, cfg, seed=5)
    features = losses.ItemFeatures(graph, params,
                                   trainer._rng("neighbor-plan", 0))
    task = trainer.sample_tasks(0)[0]
    adapted = meta.inner_adapt(params, task.support, cfg, features.value,
                               trainer._rng("support-neg", 0, 0),
                               trainer.histories)
    _, g1, (g2,) = meta.query_grads(
        features, [(adapted, task.query, trainer._rng("query-neg", 0, 0))],
        cfg, trainer.histories, params.config)

    # oracle: evaluate the query gradient directly at the adapted weights,
    # with the same per-(step, task) negative stream
    _, grads = feature_loss(
        features.value, adapted, task.query, cfg.k_neg,
        trainer._rng("query-neg", 0, 0), trainer.histories,
        params.config)()
    for name in params.theta2:
        if name in grads:
            np.testing.assert_allclose(g2[name], grads[name], rtol=1e-9)


@pytest.mark.parametrize("task_batch", [1, 3])
def test_exact_equals_first_order_at_zero_inner_rate(tiny_world, task_batch):
    world, regular, new, graph = tiny_world
    seqs_cfg = dict(task_batch=task_batch, n_way=2, k_support=2, k_query=2,
                    inner_lr=0.0)
    params_a = fresh_params(graph)
    trainer_a = meta.MetaTrainer(graph, regular, params_a,
                                 small_cfg(order="first", **seqs_cfg), seed=8)
    loss_a = trainer_a.outer_update(trainer_a.sample_tasks(), 0)

    params_b = fresh_params(graph)
    trainer_b = meta.MetaTrainer(graph, regular, params_b,
                                 small_cfg(order="exact", **seqs_cfg), seed=8)
    loss_b = trainer_b.outer_update(trainer_b.sample_tasks(), 0)

    assert loss_a == loss_b
    for name in params_a.theta2:
        assert np.array_equal(params_a.theta2[name], params_b.theta2[name])
    for name in params_a.theta1:
        assert np.array_equal(params_a.theta1[name], params_b.theta1[name])


def test_exact_meta_gradient_matches_finite_differences_on_toy():
    """Two-parameter bilevel problem with analytic inner/outer losses."""
    a0, b0 = 0.7, -0.4
    alpha = 0.05

    def support_loss(a, b):
        return (b * a - 1.0) ** 2 + 0.3 * b ** 2

    def support_grads(theta2, a=a0):
        b = float(theta2["b"])
        g_b = 2.0 * (b * a - 1.0) * a + 0.6 * b
        g_a = 2.0 * (b * a - 1.0) * b
        return {"a": np.asarray(g_a)}, {"b": np.asarray(g_b)}

    def query_loss(a, b):
        return (a - 2.0 * b) ** 2 + 0.1 * a ** 2

    def query_grads(theta2p, a=a0):
        b = float(theta2p["b"])
        g_a = 2.0 * (a - 2.0 * b) + 0.2 * a
        g_b = -4.0 * (a - 2.0 * b)
        return query_loss(a, b), {"a": np.asarray(g_a)}, {"b": np.asarray(g_b)}

    theta2 = {"b": np.asarray(b0)}
    _, g_q1, g_q2 = query_grads(
        {"b": theta2["b"] - alpha * support_grads(theta2)[1]["b"]})
    c1, c2 = meta.bilevel_correction(theta2, g_q2, support_grads, alpha)
    g1 = {"a": g_q1["a"] + c1["a"]}
    g2 = {"b": g_q2["b"] + c2["b"]}

    def composite(a, b):
        g_b = 2.0 * (b * a - 1.0) * a + 0.6 * b
        return query_loss(a, b - alpha * g_b)

    eps = 1e-6
    fd_a = (composite(a0 + eps, b0) - composite(a0 - eps, b0)) / (2 * eps)
    fd_b = (composite(a0, b0 + eps) - composite(a0, b0 - eps)) / (2 * eps)
    assert float(g1["a"]) == pytest.approx(fd_a, rel=1e-3)
    assert float(g2["b"]) == pytest.approx(fd_b, rel=1e-3)
    # and the first-order value differs in the alpha-scaled curvature term
    _, _, g_q2 = query_grads({"b": b0 - alpha * float(
        support_grads({"b": np.asarray(b0)})[1]["b"])})
    assert abs(float(g_q2["b"]) - fd_b) > 1e-3


def test_meta_train_zero_steps_is_noop(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    snapshot = {k: v.copy() for k, v in all_params(params).items()}
    trace = meta.MetaTrainer(graph, regular, params, small_cfg(),
                             seed=1).train(max_steps=0)
    assert trace == []
    for name, value in all_params(params).items():
        np.testing.assert_array_equal(value, snapshot[name])


def test_meta_train_trace_deterministic(tiny_world):
    world, regular, new, graph = tiny_world
    cfg = small_cfg(max_outer_steps=3)
    params_a = fresh_params(graph)
    trace_a = meta.MetaTrainer(graph, regular, params_a, cfg, 21).train()
    params_b = fresh_params(graph)
    trace_b = meta.MetaTrainer(graph, regular, params_b, cfg, 21).train()
    assert trace_a == trace_b
    for name in params_a.theta2:
        np.testing.assert_array_equal(params_a.theta2[name],
                                      params_b.theta2[name])


def test_meta_train_decreases_query_loss(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    cfg = small_cfg(task_batch=4, n_way=4, k_support=3, k_query=5,
                    inner_lr=1e-3, outer_lr=2e-2, max_outer_steps=40)
    trace = meta.MetaTrainer(graph, regular, params, cfg, seed=2).train()
    first = np.mean([v for _, v in trace[:5]])
    last = np.mean([v for _, v in trace[-5:]])
    assert last < first


def _markov_world(n_chains=1, mix=0.98, n_new=10, seed=13):
    from metacsr.data import SyntheticWorldSpec, generate_synthetic_world, \
        synthetic_split

    spec = SyntheticWorldSpec(n_items=60, n_chains=n_chains, n_regular=30,
                              n_new=n_new, mix_weight=mix, successors=1,
                              chain_kind="permutation", seq_len_min=30,
                              seq_len_max=40, seed=seed)
    world = generate_synthetic_world(spec)
    regular, new = synthetic_split(world)
    edges = [(u, it) for u, items in regular.items() for it in items]
    graph = gr.build_interaction_graph(edges, len(regular), spec.n_items)
    return world, regular, new, graph


def _markov_training(graph, regular, steps=200, seed=9):
    from metacsr.params import ModelConfig
    from metacsr.seeding import component_rng

    config = ModelConfig(dim=12, diffusion_depth=1, neighbor_cap=8, t_max=6)
    cfg = meta.MetaConfig(inner_lr=0.3, outer_lr=5e-2, task_batch=2, n_way=4,
                          k_support=4, k_query=8, k_neg=4,
                          plateau_windows=1000, fine_tune_steps=5)
    params = init_model(graph.n_entities, config, component_rng(seed, "init"))
    trace = meta.MetaTrainer(graph, regular, params, cfg, seed).train(
        max_steps=steps)
    return params, cfg, trace


def test_meta_train_200_steps_cuts_query_loss_by_20_percent():
    world, regular, new, graph = _markov_world()
    params, cfg, trace = _markov_training(graph, regular)
    first = trace[0][1]
    last = np.mean([v for _, v in trace[-10:]])
    assert (first - last) / first >= 0.20


def test_adapted_model_ranks_chain_successor_above_median():
    from metacsr.evaluation import ModelScorer, evaluate_model
    from metacsr.seeding import component_rng

    world, regular, new, graph = _markov_world(n_chains=2, mix=0.95)
    params, cfg, trace = _markov_training(graph, regular)
    features = losses.cached_item_features(graph, params,
                                           component_rng(9, "eval/features"))
    scorer = ModelScorer(params=params, features=features, cfg=cfg,
                         fine_tune_steps=5, seed=9)
    _, per_user = evaluate_model(scorer, new, 60, n_neg=50, seed=9,
                                 top_n=[10], min_history=3)
    ranks = [rank for _, rank, _ in per_user]
    # the held-out positive follows the user's chain; over the 51-candidate
    # list the majority of users must place it in the top half
    assert np.median(ranks) < 26
    assert sum(rank < 26 for rank in ranks) >= 0.6 * len(ranks)


# -------------------------------------------------------------- fine-tune


def test_fine_tune_zero_steps_scores_with_initialization(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    features = losses.cached_item_features(graph, params,
                                           np.random.default_rng(0))
    user = sorted(new)[0]
    history = new[user]
    cands = [history[-1], 0, 1, 2]
    scorer = ModelScorer(params=params, features=features, cfg=small_cfg(),
                         fine_tune_steps=0)
    ranked = scorer.rank(user, history, cands)
    assert sorted(item for item, _ in ranked) == sorted(cands)
    # scores must match direct scoring with the untouched initialization
    window = history[:-1][-params.config.t_max:]
    s_u = seq.encode_sequence(features[window], params.theta2)
    expected = {c: sigmoid(s_u @ features[c]) for c in cands}
    for item, value in ranked:
        assert value == pytest.approx(expected[item], rel=1e-12)


def test_rank_without_the_sequence_encoder_pools_as_segment_mean(
        tiny_world, monkeypatch):
    """The no-sequence arm's preference for a window is the value of a
    ``segment_mean`` node over it, as in training, bit for bit."""
    world, regular, new, graph = tiny_world
    params = fresh_params(graph, dim=24, use_sequence=False)
    features = losses.cached_item_features(graph, params,
                                           np.random.default_rng(0))
    scorer = ModelScorer(params=params, features=features, cfg=small_cfg())
    prefs = []
    score = seq.score_candidates
    monkeypatch.setattr(seq, "score_candidates",
                        lambda pref, rows: prefs.append(pref) or
                        score(pref, rows))
    rng = np.random.default_rng(4)
    windows = [rng.integers(graph.n_items, size=int(rng.integers(
        2, params.config.t_max + 1))) for _ in range(100)]
    for window in windows:
        scorer.rank(0, [*window, 0], [1, 2])
    for window, pref in zip(windows, prefs):
        tape = Tape()
        node = tape.segment_mean(tape.constant(features), window,
                                 [len(window)])
        tape.forward()
        assert np.array_equal(pref, node.value[0]), window


def test_fine_tune_changes_theta2_not_theta1(tiny_world):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    before1 = {k: v.copy() for k, v in params.theta1.items()}
    features = losses.cached_item_features(graph, params,
                                           np.random.default_rng(0))
    user = sorted(new)[0]
    history = new[user]
    from metacsr.evaluation import support_sequences
    support = support_sequences(user, history, 2, 6)
    cfg = small_cfg(fine_tune_lr=0.05)
    theta2 = meta.fine_tune_theta2(params, support, features, cfg,
                                   np.random.default_rng(1),
                                   {user: history}, 5)
    assert any(not np.array_equal(theta2[k], params.theta2[k])
               for k in theta2)
    for name, value in params.theta1.items():
        assert (value == before1[name]).all()


def test_candidate_list_size_101(tiny_world):
    world, regular, new, graph = tiny_world
    from metacsr.data import build_eval_candidates
    # synthetic tiny world has 30 items; use a wider catalog for the check
    positive, negs = build_eval_candidates(list(range(12)), 500, 100,
                                           np.random.default_rng(0))
    assert len([positive] + negs) == 101


# ------------------------------------------------- one diffusion per step


@pytest.mark.parametrize("arm", ["first", "exact", "joint"])
def test_outer_step_runs_diffusion_once(tiny_world, monkeypatch, arm):
    world, regular, new, graph = tiny_world
    params = fresh_params(graph)
    builds = []
    original = gr.build_diffusion

    def counted(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gr, "build_diffusion", counted)
    if arm == "joint":
        baselines.joint_train(graph, regular, params, small_cfg(), seed=5,
                              max_steps=3)
    else:
        trainer = meta.MetaTrainer(graph, regular, params,
                                   small_cfg(order=arm), seed=5)
        for step in range(3):
            trainer.outer_update(trainer.sample_tasks(step), step)
    assert len(builds) == 3


@pytest.mark.parametrize("arm, pushes", [("first", 1), ("exact", 2 * 2 + 1),
                                          ("joint", 1)])
def test_query_tape_is_dead_when_the_feature_backward_starts(
        tiny_world, monkeypatch, arm, pushes):
    """Each tape ``meta`` built (the query tapes and the inner steps'),
    with every value it computed, is unreachable when a feature backward
    starts; exact mode's support gradients reach ``query_grads`` again."""
    world, regular, new, graph = tiny_world
    built = []
    alive = []

    class Recorded(Tape):
        def backward(self, *roots, adjoint=None):
            grads = super().backward(*roots, adjoint=adjoint)
            built.extend([weakref.ref(self)] + [
                weakref.ref(node.value) for node in self.nodes
                if node.op not in ("param", "const")
                and isinstance(node.value, np.ndarray)])
            return grads

    original = losses.ItemFeatures.theta1_grads

    def checked(self, adjoint):
        gc.collect()
        alive.append(sum(ref() is not None for ref in built))
        return original(self, adjoint)

    monkeypatch.setattr(meta, "Tape", Recorded)
    monkeypatch.setattr(losses.ItemFeatures, "theta1_grads", checked)
    params = fresh_params(graph)
    if arm == "joint":
        baselines.joint_train(graph, regular, params, small_cfg(), seed=5,
                              max_steps=1)
    else:
        trainer = meta.MetaTrainer(graph, regular, params,
                                   small_cfg(order=arm, inner_lr=0.05),
                                   seed=5)
        trainer.outer_update(trainer.sample_tasks(0), 0)
    assert built and alive == [0] * pushes


def _adam_grads(monkeypatch):
    """The gradient mapping of every ``AdamState.apply`` call, in order."""
    seen = []
    original = meta.AdamState.apply

    def record(self, params, grads, cfg):
        seen.append(grads)
        return original(self, params, grads, cfg)

    monkeypatch.setattr(meta.AdamState, "apply", record)
    return seen


def _deep_params(graph):
    config = ModelConfig(dim=6, diffusion_depth=2, neighbor_cap=4,
                         t_min=2, t_max=6)
    return init_model(graph.n_entities, config, np.random.default_rng(3))


def test_theta1_grads_through_kept_feature_tape_equal_single_tape(
        tiny_world, monkeypatch):
    world, regular, new, graph = tiny_world
    params = _deep_params(graph)
    before = params.clone()
    cfg = small_cfg(inner_lr=0.01)
    trainer = meta.MetaTrainer(graph, regular, params, cfg, seed=5)
    tasks = trainer.sample_tasks(0)
    features = losses.ItemFeatures(graph, before,
                                   trainer._rng("neighbor-plan", 0))
    adapted = [meta.inner_adapt(before, task.support, cfg, features.value,
                                trainer._rng("support-neg", 0, t),
                                trainer.histories)
               for t, task in enumerate(tasks)]
    grads = _adam_grads(monkeypatch)
    loss = trainer.outer_update(tasks, 0)
    g1, g2 = grads

    # reference: diffusion and every task's query loss on one tape
    tape = Tape()
    theta1 = {k: tape.param(k, v) for k, v in before.theta1.items()}
    plan = neighbor_plan(graph, before.config,
                         trainer._rng("neighbor-plan", 0))
    items = losses.item_feature_node(tape, graph, theta1, before.config,
                                     plan=plan)
    task_losses = []
    for t, (task, theta2) in enumerate(zip(tasks, adapted)):
        nodes = {k: tape.param(f"task{t}/{k}", v) for k, v in theta2.items()}
        task_losses.append(losses.build_batch_loss(
            tape, items, nodes, list(task.query), cfg.k_neg,
            trainer._rng("query-neg", 0, t), trainer.histories,
            graph.n_items))
    tape.forward()
    want_grads = tape.backward(*task_losses)
    total = float(task_losses[0].value)
    for task_loss in task_losses[1:]:
        total += float(task_loss.value)
    assert loss == total / len(tasks)
    assert set(g1) == set(before.theta1)
    for name in before.theta1:
        assert np.array_equal(g1[name], want_grads[name]), name
    for name in before.theta2:
        want = sum((want_grads[f"task{t}/{name}"] for t in range(len(tasks))),
                   np.zeros_like(before.theta2[name]))
        assert np.array_equal(g2[name], want), name


def test_joint_step_grads_equal_single_tape(tiny_world, monkeypatch):
    world, regular, new, graph = tiny_world
    params = _deep_params(graph)
    before = params.clone()
    cfg = small_cfg()
    calls = []
    original = meta.query_grads

    def spy(features, batches, *args):
        calls.append(list(batches[0][1]))
        return original(features, batches, *args)

    monkeypatch.setattr(meta, "query_grads", spy)
    grads = _adam_grads(monkeypatch)
    trace = baselines.joint_train(graph, regular, params, cfg, seed=5,
                                  max_steps=1, batch_size=6)
    batch, = calls
    g1, g2 = grads

    plan = neighbor_plan(graph, before.config,
                         component_rng(5, "joint/neighbor-plan"))
    tape, loss, _ = full_stack_tape(
        graph, before, batch, cfg.k_neg, component_rng(5, "joint/negatives"),
        regular, plan=plan)
    tape.forward()
    want = tape.backward(loss)
    assert trace == [(0, float(loss.value))]
    assert set(g1) == set(before.theta1)
    for name in before.theta1:
        assert np.array_equal(g1[name], want[name]), name
    for name in before.theta2:
        assert np.array_equal(g2[name], want[name]), name


def _exact_reference(graph, params, cfg, trainer, plan, t, task):
    """One task's exact meta-gradient from full-stack tapes: the support
    and the query loss each on one tape holding diffusion, rebound at
    every theta2 the correction visits; returns (loss, g1, g2)."""
    def objective(kind, sequences):
        tape, out, _ = full_stack_tape(
            graph, params, list(sequences), cfg.k_neg,
            trainer._rng(kind, 0, t), trainer.histories, plan=plan)

        def at(theta2):
            for name, value in theta2.items():
                tape.set_param(name, value)
            tape.forward()
            grads = tape.backward(out)
            return (float(out.value),
                    {k: grads[k] for k in params.theta1},
                    {k: grads.get(k, np.zeros_like(v))
                     for k, v in params.theta2.items()})
        return at

    support = objective("support-neg", task.support)
    _, _, g_s2 = support(params.theta2)
    adapted = {k: v - cfg.inner_lr * g_s2[k] for k, v in params.theta2.items()}
    loss, q1, q2 = objective("query-neg", task.query)(adapted)
    c1, c2 = meta.bilevel_correction(params.theta2, q2,
                                     lambda theta2: support(theta2)[1:],
                                     cfg.inner_lr)
    return (loss, {k: q1[k] + c1[k] for k in q1},
            {k: q2[k] + c2[k] for k in q2})


def test_exact_step_grads_equal_full_stack_tapes(tiny_world, monkeypatch):
    world, regular, new, graph = tiny_world
    params = _deep_params(graph)
    before = params.clone()
    cfg = small_cfg(order="exact", task_batch=1, inner_lr=0.05)
    trainer = meta.MetaTrainer(graph, regular, params, cfg, seed=5)
    tasks = trainer.sample_tasks(0)
    plan = neighbor_plan(graph, before.config,
                         trainer._rng("neighbor-plan", 0))
    grads = _adam_grads(monkeypatch)
    loss = trainer.outer_update(tasks, 0)
    g1, g2 = grads

    want_loss, want1, want2 = _exact_reference(graph, before, cfg, trainer,
                                               plan, 0, tasks[0])
    assert loss == want_loss
    assert set(g1) == set(before.theta1)
    for name in before.theta1:
        assert np.array_equal(g1[name], want1[name]), name
    for name in before.theta2:
        assert np.array_equal(g2[name], want2[name]), name


def test_exact_step_sums_each_tasks_correction(tiny_world, monkeypatch):
    world, regular, new, graph = tiny_world
    params = _deep_params(graph)
    before = params.clone()
    cfg = small_cfg(order="exact", task_batch=3, inner_lr=0.05)
    trainer = meta.MetaTrainer(graph, regular, params, cfg, seed=5)
    tasks = trainer.sample_tasks(0)
    assert len({task.support for task in tasks}) == 3
    plan = neighbor_plan(graph, before.config,
                         trainer._rng("neighbor-plan", 0))
    grads = _adam_grads(monkeypatch)
    loss = trainer.outer_update(tasks, 0)
    g1, g2 = grads

    # one query tape sums the tasks' feature adjoints before one push, so
    # the per-task references agree up to summation order
    refs = [_exact_reference(graph, before, cfg, trainer, plan, t, task)
            for t, task in enumerate(tasks)]
    assert loss == pytest.approx(sum(r[0] for r in refs) / 3, rel=1e-12)
    for i, (got, names) in enumerate(((g1, before.theta1),
                                      (g2, before.theta2))):
        for name in names:
            want = sum(r[1 + i][name] for r in refs)
            np.testing.assert_allclose(got[name], want, rtol=1e-9,
                                       atol=1e-15, err_msg=name)


def test_exact_step_pushes_each_adjoint_once(tiny_world, monkeypatch):
    """One push for the shared query tape plus two per task for the
    correction's support gradients; none is computed and discarded."""
    world, regular, new, graph = tiny_world
    pushes = []
    original = losses.ItemFeatures.theta1_grads

    def counted(self, adjoint):
        pushes.append(1)
        return original(self, adjoint)

    monkeypatch.setattr(losses.ItemFeatures, "theta1_grads", counted)
    trainer = meta.MetaTrainer(
        graph, regular, fresh_params(graph),
        small_cfg(order="exact", task_batch=3, inner_lr=0.05), seed=5)
    trainer.outer_update(trainer.sample_tasks(0), 0)
    assert len(pushes) == 2 * 3 + 1


# ops no program path appends: the benchmark's diffusion probe reduces its
# output with them (``perfbench/workloads.py``)
PROBE_ONLY_OPS = {"sum", "mul"}


def test_every_tape_op_has_a_program_caller(tiny_world, monkeypatch):
    """Every op a ``Tape`` builder can append is appended while the
    program runs: first-order, exact and joint steps, the evaluation
    table, a fine-tuned cold ranking and the no-diffusion and no-sequence
    arms. An op that only tests build is a second implementation."""
    from test_autodiff import built_ops

    world, regular, new, graph = tiny_world
    seen = set()
    append = Tape._append

    def recorded(self, op, *args, **kwargs):
        seen.add(op)
        return append(self, op, *args, **kwargs)

    monkeypatch.setattr(Tape, "_append", recorded)
    for order in ("first", "exact"):
        trainer = meta.MetaTrainer(graph, regular, fresh_params(graph),
                                   small_cfg(order=order, inner_lr=0.05),
                                   seed=5)
        trainer.outer_update(trainer.sample_tasks(0), 0)
    baselines.joint_train(graph, regular, fresh_params(graph), small_cfg(),
                          seed=5, max_steps=1)
    params = fresh_params(graph)
    features = losses.cached_item_features(graph, params,
                                           np.random.default_rng(1))
    user = min(new)
    ModelScorer(params=params, features=features, cfg=small_cfg(),
                fine_tune_steps=2, seed=5).rank(user, new[user], [0, 1, 2])
    for arm in ({"use_diffusion": False}, {"use_sequence": False}):
        trainer = meta.MetaTrainer(graph, regular, fresh_params(graph, **arm),
                                   small_cfg(), seed=5)
        trainer.outer_update(trainer.sample_tasks(0), 0)
    assert built_ops() - seen == PROBE_ONLY_OPS
