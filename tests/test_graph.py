import numpy as np
import pytest

from metacsr import graph as gr
from metacsr.autodiff import Tape, finite_difference_check

from oracles import (degree, neighbors, reference_convolve,
                     reference_neighbor_plan, skewed_pairs, tape_value)


def weights4(rng=None, dim=4):
    rng = rng or np.random.default_rng(21)
    return gr.init_diffusion_params(n_entities=1, dim=dim, depth=1, rng=rng)


def layer0(params):
    return (params[gr.LATENT_W.format(layer=0)],
            params[gr.LATENT_B.format(layer=0)],
            params[gr.MERGE_W.format(layer=0)],
            params[gr.MERGE_B.format(layer=0)])


def convolve_one(tape, neighbors, inherent, *weights):
    """One (1, d) inherent row's layer, pooling every row of ``neighbors``."""
    k = neighbors.value.shape[0]
    return tape.conv(neighbors, inherent, [0], np.arange(k), [k], *weights)


def test_empty_interactions_build_empty_adjacency():
    g = gr.build_interaction_graph([], n_users=2, n_items=3)
    assert g.n_entities == 5
    assert all(degree(g, e) == 0 for e in range(5))


def test_duplicate_edges_deduplicated():
    g = gr.build_interaction_graph([(0, 0), (0, 0)], n_users=1, n_items=1)
    assert degree(g, 0) == 1
    assert neighbors(g, 0) == (g.n_users + 0,)


def test_degrees_match_brute_force_count():
    edges = [(0, 0), (0, 1), (1, 1), (2, 0)]
    g = gr.build_interaction_graph(edges, n_users=3, n_items=2)
    # oracle: count incidences per endpoint over the deduplicated edge set
    expected = {e: 0 for e in range(g.n_entities)}
    for u, i in set(edges):
        expected[u] += 1
        expected[g.n_users + i] += 1
    for e in range(g.n_entities):
        assert degree(g, e) == expected[e]


def test_adjacency_symmetric_and_bipartite():
    rng = np.random.default_rng(1)
    edges = [(int(rng.integers(4)), int(rng.integers(6))) for _ in range(30)]
    g = gr.build_interaction_graph(edges, n_users=4, n_items=6)
    for e in range(g.n_entities):
        for nb in neighbors(g, e):
            assert e in neighbors(g, nb)
            assert (e < 4) != (nb < 4)  # no user-user or item-item edge


def test_out_of_range_ids_rejected():
    with pytest.raises(ValueError, match="out of range"):
        gr.build_interaction_graph([(5, 0)], n_users=2, n_items=2)
    with pytest.raises(ValueError, match="out of range"):
        gr.build_interaction_graph([(0, 9)], n_users=2, n_items=2)


def test_non_integer_ids_rejected():
    for pairs in ([(0, 1.5)], [(0, "3")], [(0.0, 1)], [(0, 1), (1, None)]):
        with pytest.raises(ValueError, match="must be integers"):
            gr.build_interaction_graph(pairs, n_users=2, n_items=4)


def test_pairs_that_are_not_two_tuples_rejected():
    for pairs in ([(0, 1, 2)], [(0,)], [(0, 1), (1,)], [0, 1]):
        with pytest.raises(ValueError, match="2-tuples"):
            gr.build_interaction_graph(pairs, n_users=2, n_items=4)


def test_out_of_range_error_names_first_offending_id():
    cases = [([(0, 0), (1, 7), (9, 1)], "item id 7 "),
             ([(0, 0), (5, 9), (1, 8)], "user id 5 "),
             ([(1, 1), (0, -1)], "item id -1 "),
             ([(-3, 0)], "user id -3 ")]
    for pairs, message in cases:
        with pytest.raises(ValueError, match=message + "out of range"):
            gr.build_interaction_graph(pairs, n_users=2, n_items=2)


def _flat(layer):
    return (np.array([nb for nbrs in layer for nb in nbrs], dtype=np.intp),
            np.array([len(nbrs) for nbrs in layer], dtype=np.intp))


@pytest.mark.parametrize("cap", [1, 3, 8, 1000])
def test_neighbor_plan_is_the_set_built_plan_and_rng_stream(cap):
    """CSR ids and counts equal the per-entity loop over set-built
    adjacency, and leave the rng where it left it: skewed graphs with
    isolated entities, a cap at or above the largest degree, depth 2."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n_users, n_items = int(rng.integers(2, 40)), int(rng.integers(2, 60))
        pairs = skewed_pairs(rng, n_users, n_items, int(rng.integers(0, 400)))
        g = gr.build_interaction_graph(pairs, n_users, n_items)
        for e, nbrs in enumerate(reference_neighbor_plan(
                pairs, n_users, n_items, 10 ** 6, 1, None)[0]):
            assert neighbors(g, e) == tuple(nbrs)
        _assert_reference_plan_and_stream(pairs, n_users, n_items, cap, 2,
                                          100 + seed)


def _assert_reference_plan_and_stream(pairs, n_users, n_items, cap, depth,
                                      seed):
    g = gr.build_interaction_graph(pairs, n_users, n_items)
    got_rng, want_rng = (np.random.default_rng(seed) for _ in "ab")
    got = gr.sample_neighbor_plan(g, cap, depth, got_rng)
    want = reference_neighbor_plan(pairs, n_users, n_items, cap, depth,
                                   want_rng)
    assert len(got) == depth
    for (ids, counts), layer in zip(got, want):
        want_ids, want_counts = _flat(layer)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(counts, want_counts)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("degree,cap", [(10_001, 201), (20_000, 401)])
def test_neighbor_plan_keeps_the_stream_where_choice_tail_shuffles(degree,
                                                                    cap):
    """``Generator.choice`` tail-shuffles when degree > 10,000 and
    cap > degree // 50 (user 1); users 0 and 2 take Floyd's algorithm
    before and after it, and user 3 (10,500) takes it at cap 201 but
    tail-shuffles at cap 401."""
    degrees = [300, degree, 250, 10_500]
    pairs = [(user, item) for user, d in enumerate(degrees)
             for item in range(d)]
    _assert_reference_plan_and_stream(pairs, 5, 20_000, cap, 2, degree)


@pytest.mark.parametrize("cap", [1, 50])
def test_neighbor_plan_keeps_the_stream_just_above_cap(cap):
    """Degrees cap+1 .. cap+10, where Floyd's draws often repeat a taken
    position and fall back to j; an isolated user at the end."""
    pairs = [(user, item) for user in range(10)
             for item in range(cap + 1 + user)]
    for seed in range(5):
        _assert_reference_plan_and_stream(pairs, 11, cap + 10, cap, 2, seed)


def test_neighbor_plan_of_empty_graph():
    g = gr.build_interaction_graph([], 3, 2)
    plan = gr.sample_neighbor_plan(g, 4, 2, np.random.default_rng(0))
    assert len(plan) == 2
    for ids, counts in plan:
        assert ids.size == 0
        np.testing.assert_array_equal(counts, np.zeros(5))


def sample_neighbors(g, entity, cap, rng):
    """``entity``'s row of a one-layer neighbor plan, as a list."""
    ids, counts = gr.sample_neighbor_plan(g, cap, 1, rng)[0]
    start = counts[:entity].sum()
    return ids[start:start + counts[entity]].tolist()


def test_sample_neighbors_under_cap_returns_all():
    g = gr.build_interaction_graph([(0, 0), (0, 1), (0, 2)], 1, 3)
    got = sample_neighbors(g, 0, cap=10, rng=np.random.default_rng(0))
    assert got == [g.n_users + 0, g.n_users + 1, g.n_users + 2]


def test_sample_neighbors_cap_binding():
    g = gr.build_interaction_graph([(0, i) for i in range(100)], 1, 100)
    got = sample_neighbors(g, 0, cap=20, rng=np.random.default_rng(0))
    assert len(got) == 20
    assert len(set(got)) == 20


def test_sample_neighbors_deterministic_under_seed():
    g = gr.build_interaction_graph([(0, i) for i in range(50)], 1, 50)
    a = sample_neighbors(g, 0, 7, np.random.default_rng(42))
    b = sample_neighbors(g, 0, 7, np.random.default_rng(42))
    assert a == b


def test_isolated_entity_samples_empty():
    g = gr.build_interaction_graph([], 1, 1)
    assert sample_neighbors(g, 0, 5, np.random.default_rng(0)) == []


def test_convolve_output_unit_norm():
    rng = np.random.default_rng(2)
    p = weights4(rng)
    inherent = rng.normal(size=4)
    out = tape_value(convolve_one, [rng.normal(size=4)], inherent[None],
                     *layer0(p))[0]
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_convolve_zero_weights_give_zero_vector():
    dim = 4
    out = tape_value(convolve_one, [np.ones(dim)], [np.ones(dim)],
                     np.zeros((dim, dim)), np.zeros(dim),
                     np.zeros((dim, 2 * dim)), np.zeros(dim))[0]
    np.testing.assert_array_equal(out, np.zeros(dim))


def test_convolve_mean_aggregation_and_reference():
    rng = np.random.default_rng(3)
    p = weights4(rng, dim=2)
    lw, lb, mw, mb = (p[gr.LATENT_W.format(layer=0)],
                      p[gr.LATENT_B.format(layer=0)],
                      p[gr.MERGE_W.format(layer=0)],
                      p[gr.MERGE_B.format(layer=0)])
    inherent = rng.normal(size=2)
    neighbors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    got = tape_value(convolve_one, neighbors, inherent[None],
                     lw, lb, mw, mb)[0]
    expected = reference_convolve(inherent, neighbors, lw, lb, mw, mb)
    np.testing.assert_allclose(got, expected, rtol=1e-10)
    # the mean of these neighbors is [0.5, 0.5]; identity-ish check
    assert reference_convolve(inherent, [np.array([0.5, 0.5])],
                              lw, lb, mw, mb) == pytest.approx(list(expected))


def test_convolve_empty_neighbors_use_zero_aggregate():
    rng = np.random.default_rng(4)
    p = weights4(rng)
    inherent = rng.normal(size=4)
    got = tape_value(convolve_one, np.empty((0, 4)), inherent[None],
                     *layer0(p))[0]
    expected = reference_convolve(inherent, [], *layer0(p))
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_convolve_neighbor_order_invariance():
    rng = np.random.default_rng(5)
    p = weights4(rng)
    inherent = rng.normal(size=4)
    neighbors = [rng.normal(size=4) for _ in range(5)]
    base = tape_value(convolve_one, neighbors, inherent[None],
                      *layer0(p))[0]
    perm = tape_value(convolve_one, neighbors[::-1], inherent[None],
                      *layer0(p))[0]
    np.testing.assert_allclose(perm, base, atol=1e-12)


def _small_world(rng, n_users=3, n_items=4, dim=4, depth=2):
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]  # item 3 isolated
    g = gr.build_interaction_graph(edges, n_users, n_items)
    params = gr.init_diffusion_params(g.n_entities, dim, depth, rng)
    return g, params


def test_diffuse_depth1_equals_per_node_convolve():
    rng = np.random.default_rng(6)
    g, params = _small_world(rng, depth=1)
    table = gr.diffuse_all(g, params, depth=1, cap=10,
                           rng=np.random.default_rng(0))
    inherent = params[gr.INHERENT]
    for e in range(g.n_entities):
        nbrs = [inherent[nb] for nb in neighbors(g, e)]
        expected = tape_value(convolve_one, np.reshape(nbrs, (-1, 4)),
                              inherent[e][None], *layer0(params))[0]
        np.testing.assert_allclose(table[e], expected, rtol=1e-10)


def test_isolated_node_ignores_rest_of_graph():
    rng = np.random.default_rng(7)
    g, params = _small_world(rng, depth=2)
    table = gr.diffuse_all(g, params, 2, 10, np.random.default_rng(0))
    isolated = g.n_users + 3
    # two-layer unroll with empty neighborhoods at both layers
    step1 = reference_convolve(params[gr.INHERENT][isolated], [],
                               params[gr.LATENT_W.format(layer=0)],
                               params[gr.LATENT_B.format(layer=0)],
                               params[gr.MERGE_W.format(layer=0)],
                               params[gr.MERGE_B.format(layer=0)])
    del step1  # layer-1 output feeds neighbors only; inherent stays fixed
    expected = reference_convolve(params[gr.INHERENT][isolated], [],
                                  params[gr.LATENT_W.format(layer=1)],
                                  params[gr.LATENT_B.format(layer=1)],
                                  params[gr.MERGE_W.format(layer=1)],
                                  params[gr.MERGE_B.format(layer=1)])
    np.testing.assert_allclose(table[isolated], expected, rtol=1e-10)


def test_depth2_path_graph_matches_unrolled_reference():
    # path graph u0 - i0 - u1 - i1 over entities 0..3
    g = gr.build_interaction_graph([(0, 0), (1, 0), (1, 1)], 2, 2)
    rng = np.random.default_rng(8)
    params = gr.init_diffusion_params(g.n_entities, 3, 2, rng)
    table = gr.diffuse_all(g, params, 2, 10, np.random.default_rng(0))

    inherent = params[gr.INHERENT]
    def layer(k):
        return (params[gr.LATENT_W.format(layer=k)],
                params[gr.LATENT_B.format(layer=k)],
                params[gr.MERGE_W.format(layer=k)],
                params[gr.MERGE_B.format(layer=k)])

    first = [reference_convolve(inherent[e],
                                [inherent[nb] for nb in neighbors(g, e)],
                                *layer(0))
             for e in range(g.n_entities)]
    second = [reference_convolve(inherent[e],
                                 [first[nb] for nb in neighbors(g, e)],
                                 *layer(1))
              for e in range(g.n_entities)]
    np.testing.assert_allclose(table, np.array(second), rtol=1e-9)


def test_diffused_rows_unit_norm_or_zero():
    rng = np.random.default_rng(9)
    g, params = _small_world(rng)
    table = gr.diffuse_all(g, params, 2, 10, np.random.default_rng(0))
    norms = np.linalg.norm(table, axis=1)
    for n in norms:
        assert n == pytest.approx(1.0, abs=1e-9) or n == 0.0


def test_identical_inherent_and_neighborhood_give_identical_embeddings():
    # users 0 and 1 both connect to item 0 only; force equal inherent rows
    g = gr.build_interaction_graph([(0, 0), (1, 0)], 2, 1)
    rng = np.random.default_rng(10)
    params = gr.init_diffusion_params(g.n_entities, 4, 2, rng)
    params[gr.INHERENT][1] = params[gr.INHERENT][0]
    table = gr.diffuse_all(g, params, 2, 10, np.random.default_rng(0))
    np.testing.assert_array_equal(table[0], table[1])


def test_convolve_stack_gradient_finite_differences():
    g = gr.build_interaction_graph([(0, 0), (1, 0)], 2, 1)  # 3-node graph
    rng = np.random.default_rng(12)
    params = gr.init_diffusion_params(g.n_entities, 4, 2, rng)
    plan = gr.sample_neighbor_plan(g, 10, 2, np.random.default_rng(0))
    tape = Tape()
    nodes = {k: tape.param(k, v) for k, v in params.items()}
    out = gr.build_diffusion(tape, plan, nodes, depth=2)
    loss = tape.sum(tape.mul(out, tape.constant(
        rng.normal(size=(g.n_entities, 4)))))
    for name in params:
        assert finite_difference_check(tape, loss, name, 1e-6) < 1e-4, name


def _diffusion_node_count(n_users, n_items, depth, seed=0):
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(n_users)), int(rng.integers(n_items)))
             for _ in range(6 * (n_users + n_items))}
    g = gr.build_interaction_graph(sorted(edges), n_users, n_items)
    params = gr.init_diffusion_params(g.n_entities, 4, depth, rng)
    plan = gr.sample_neighbor_plan(g, 5, depth, rng)
    tape = Tape()
    nodes = {k: tape.param(k, v) for k, v in params.items()}
    before = len(tape.nodes)
    gr.build_diffusion(tape, plan, nodes, depth)
    return len(tape.nodes) - before


def test_diffusion_node_count_per_layer_independent_of_graph_size():
    small = [_diffusion_node_count(120, 80, depth) for depth in (1, 2)]
    large = [_diffusion_node_count(1200, 800, depth) for depth in (1, 2)]
    assert small == large
    assert small[1] == 2 * small[0]

