from pathlib import Path

import numpy as np
import pytest

from metacsr import baselines, graph as gr, losses, meta, metrics
from metacsr.data import (SplitSpec, SyntheticWorldSpec,
                          generate_synthetic_world, parse_interactions,
                          split_users, synthetic_split)
from metacsr.evaluation import ModelScorer, evaluate_model
from metacsr.params import ModelConfig, init_model

from oracles import all_params, bpr_probe_loss

FIXTURE = Path(__file__).parent / "fixtures" / "ml1m_500.dat"


@pytest.fixture(scope="module")
def world_data():
    spec = SyntheticWorldSpec(n_items=40, n_chains=2, n_regular=14, n_new=4,
                              mix_weight=0.95, successors=2,
                              seq_len_min=24, seq_len_max=30, seed=9)
    world = generate_synthetic_world(spec)
    regular, new = synthetic_split(world)
    edges = [(u, it) for u, items in regular.items() for it in items]
    graph = gr.build_interaction_graph(edges, len(regular), spec.n_items)
    return world, regular, new, graph


def test_popularity_deterministic_and_user_independent(world_data):
    world, regular, new, graph = world_data
    model = baselines.PopularityModel.fit(regular, graph.n_items)
    cands = [3, 1, 7, 2]
    a = model.rank(0, [1, 2], cands)
    b = model.rank(99, [5], cands)
    assert a == b
    assert a == baselines.PopularityModel.fit(regular, graph.n_items).rank(
        0, [1, 2], cands)
    assert [item for item, _ in a] == sorted(
        cands, key=lambda i: (-model.counts[i], i))


def test_bpr_zero_epochs_keeps_initialization(world_data):
    world, regular, new, graph = world_data
    rng = np.random.default_rng(4)
    init_u = np.random.default_rng(4).normal(scale=0.1,
                                             size=(len(regular), 8))
    model = baselines.train_bpr(regular, len(regular), graph.n_items,
                                rng, dim=8, epochs=0)
    np.testing.assert_array_equal(model.user_factors, init_u)


def test_bpr_probe_loss_decreases(world_data):
    """The probe loss after ten epochs is below the one after one: one rng
    seed replays the same first epochs for every epoch count."""
    world, regular, new, graph = world_data
    probe_values = [bpr_probe_loss(baselines.train_bpr(
        regular, len(regular), graph.n_items, np.random.default_rng(5),
        dim=8, epochs=epochs), regular, graph.n_items)
        for epochs in range(1, 11)]
    assert probe_values[-1] < probe_values[0]


def test_bpr_cold_user_scores_via_mean_item_factors(world_data):
    world, regular, new, graph = world_data
    model = baselines.train_bpr(regular, len(regular), graph.n_items,
                                np.random.default_rng(6), dim=8, epochs=2)
    cold_user = len(regular) + 50  # outside the factor table
    history = [1, 2, 3]
    cands = [4, 5, 6]
    ranked = model.rank(cold_user, history, cands)
    # the last history item is the held-out positive, so it is left out
    vector = model.item_factors[history[:-1]].mean(axis=0)
    expected = sorted(
        [(c, float(model.item_factors[c] @ vector)) for c in cands],
        key=lambda p: (-p[1], p[0]))
    assert [i for i, _ in ranked] == [i for i, _ in expected]
    for (_, got), (_, want) in zip(ranked, expected):
        assert got == pytest.approx(want, rel=1e-12)


def test_bpr_cold_user_fallback_leaves_out_held_out_positive(world_data):
    world, regular, new, graph = world_data
    model = baselines.train_bpr(regular, len(regular), graph.n_items,
                                np.random.default_rng(6), dim=8, epochs=2)
    history = [1, 2, 3]  # 3 is the held-out positive
    cands = [3, 4, 5, 6]
    ranked = dict(model.rank(len(regular) + 50, history, cands))
    vector = model.item_factors[[1, 2]].mean(axis=0)
    for c in cands:
        assert ranked[c] == pytest.approx(float(model.item_factors[c] @ vector),
                                          rel=1e-12)


def test_bpr_new_users_inside_the_factor_table_use_the_fallback():
    # real-data splits interleave new-user ids with regular ones, so the
    # factor table (sized by the largest regular id) holds rows BPR never
    # trained for most new users
    parsed = parse_interactions(FIXTURE)
    regular, new = split_users(parsed.records, SplitSpec())
    n_users = max(regular) + 1
    assert sum(u < n_users for u in new) == 8
    model = baselines.train_bpr(regular, n_users, parsed.stats.n_items,
                                np.random.default_rng(0), dim=8, epochs=1)
    cands = list(range(10))
    for user, history in new.items():
        if len(history) < 2:
            continue
        ranked = dict(model.rank(user, history, cands))
        vector = model.item_factors[history[:-1]].mean(axis=0)
        for c in cands:
            assert ranked[c] == pytest.approx(
                float(model.item_factors[c] @ vector), rel=1e-12), user
    for user in regular:
        ranked = dict(model.rank(user, regular[user], cands))
        assert ranked[0] == pytest.approx(
            float(model.item_factors[0] @ model.user_factors[user]))


def test_bpr_refuses_a_user_who_has_seen_every_item():
    """Such a user has no negative to draw; the refusal comes before the
    first draw, so it names the user and the catalog at once."""
    with pytest.raises(ValueError, match="user 0 has interacted with all 3"):
        baselines.train_bpr({1: [2], 0: [2, 0, 1]}, 2, 3,
                            np.random.default_rng(0))


def test_every_scorer_orders_tied_candidates_by_the_metrics_rule():
    """Popularity, BPR-MF, the meta model and a RankedQuery all order tied
    scores by :func:`metrics.rank_order`: descending score, then ascending
    item id, whatever order the candidates come in."""
    rng = np.random.default_rng(2)
    cands = [5, 0, 3, 2, 1, 4]
    # items 0 and 5 share a row, and so do 1, 2 and 3: each group ties
    rows = rng.normal(size=(2, 4))[[0, 1, 1, 1, 0, 0]]
    rows[4] = rng.normal(size=4)
    params = init_model(6, ModelConfig(dim=4, t_min=2, t_max=3),
                        np.random.default_rng(0))
    scorers = [baselines.PopularityModel(np.array([2., 5., 5., 5., 0., 2.])),
               baselines.BprMfModel(rng.normal(size=(1, 4)), rows,
                                    frozenset({0})),
               ModelScorer(params=params, features=rows,
                           cfg=meta.MetaConfig())]
    for scorer in scorers:
        ranked = scorer.rank(0, [4, 1, 3], cands)
        scores = dict(ranked)
        assert len(set(scores.values())) == 3, scorer
        order = metrics.rank_order([scores[c] for c in cands], cands)
        assert ranked == [(cands[i], scores[cands[i]]) for i in order]
        groups = [[item for item, _ in ranked if scores[item] == s]
                  for s in dict.fromkeys(scores[item] for item, _ in ranked)]
        assert sorted(groups) == [[0, 5], [1, 2, 3], [4]], scorer
        query = metrics.RankedQuery(
            scores=tuple(scores[c] for c in cands),
            relevant=tuple(c == 2 for c in cands), item_ids=tuple(cands))
        assert query.ranking() == [item == 2 for item, _ in ranked]


def test_joint_train_deterministic(world_data):
    world, regular, new, graph = world_data
    cfg = meta.MetaConfig(task_batch=2, n_way=2, k_support=2, k_query=2,
                          outer_lr=1e-2)
    config = ModelConfig(dim=5, diffusion_depth=1, neighbor_cap=6, t_max=6)
    params_a = init_model(graph.n_entities, config,
                          np.random.default_rng(7))
    trace_a = baselines.joint_train(graph, regular, params_a, cfg, seed=3,
                                    max_steps=3, batch_size=8)
    params_b = init_model(graph.n_entities, config,
                          np.random.default_rng(7))
    trace_b = baselines.joint_train(graph, regular, params_b, cfg, seed=3,
                                    max_steps=3, batch_size=8)
    assert trace_a == trace_b
    for name in params_a.theta2:
        np.testing.assert_array_equal(params_a.theta2[name],
                                      params_b.theta2[name])


def test_joint_and_meta_models_share_checkpoint_shapes(world_data, tmp_path):
    from metacsr import checkpoint as ckpt
    world, regular, new, graph = world_data
    config = ModelConfig(dim=5, diffusion_depth=1, neighbor_cap=6, t_max=6)
    cfg = meta.MetaConfig(task_batch=1, n_way=2, k_support=2, k_query=2)
    joint_params = init_model(graph.n_entities, config,
                              np.random.default_rng(1))
    baselines.joint_train(graph, regular, joint_params, cfg, seed=1,
                          max_steps=1, batch_size=4)
    meta_params = init_model(graph.n_entities, config,
                             np.random.default_rng(2))
    meta.MetaTrainer(graph, regular, meta_params, cfg, seed=2).train(
        max_steps=1)
    ckpt.save_model(tmp_path / "joint.ckpt", joint_params)
    ckpt.save_model(tmp_path / "meta.ckpt", meta_params)
    a = ckpt.load_model(tmp_path / "joint.ckpt")
    b = ckpt.load_model(tmp_path / "meta.ckpt")
    assert {k: v.shape for k, v in all_params(a).items()} == \
        {k: v.shape for k, v in all_params(b).items()}


def test_joint_train_loss_decreases(world_data):
    world, regular, new, graph = world_data
    cfg = meta.MetaConfig(outer_lr=2e-2, k_neg=1)
    config = ModelConfig(dim=6, diffusion_depth=1, neighbor_cap=6, t_max=6)
    params = init_model(graph.n_entities, config, np.random.default_rng(8))
    trace = baselines.joint_train(graph, regular, params, cfg, seed=6,
                                  max_steps=30, batch_size=16)
    first = np.mean([v for _, v in trace[:5]])
    last = np.mean([v for _, v in trace[-5:]])
    assert last < first


def test_baseline_scorers_plug_into_evaluation(world_data):
    world, regular, new, graph = world_data
    pop = baselines.PopularityModel.fit(regular, graph.n_items)
    report, per_user = evaluate_model(pop, new, graph.n_items, n_neg=20,
                                      seed=4, top_n=[1, 5], model="popularity")
    assert 0.0 <= report.auc <= 1.0
    assert report.n_users == len(per_user) > 0
    assert report.model == "popularity"
