import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacsr.metrics import (
    RankedQuery,
    auc,
    auc_from_rank,
    build_report,
    hit_at_n,
    mean_average_precision,
    ndcg_at_n,
)

from oracles import (
    reference_auc,
    reference_average_precision,
    reference_hit_at_n,
    reference_ndcg_at_n,
    report_from_json,
)


def query(pos_scores, neg_scores):
    scores = tuple(pos_scores) + tuple(neg_scores)
    relevant = (True,) * len(pos_scores) + (False,) * len(neg_scores)
    return RankedQuery(scores=scores, relevant=relevant)


def test_auc_all_pairs_ordered():
    assert auc([query([0.9], [0.1, 0.5])]) == 1.0


def test_auc_is_a_python_float_that_writes_as_a_number():
    value = auc([query([0.5], [0.1, 0.9])])
    assert type(value) is float and value == 0.5
    row = build_report([query([0.5], [0.1, 0.9])], top_n=[1]).to_csv()
    assert row.splitlines()[1] == "auc,,0.5"


def test_auc_half_ordered():
    assert auc([query([0.3], [0.1, 0.5])]) == 0.5


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(0)
    queries = [query(rng.uniform(size=1), rng.uniform(size=30))
               for _ in range(800)]
    assert abs(auc(queries) - 0.5) < 0.02


def test_auc_constant_scorer_is_half():
    assert auc([query([0.7], [0.7, 0.7, 0.7])]) == 0.5


def test_auc_empty_queries_error():
    with pytest.raises(ValueError, match="empty"):
        auc([])


def test_map_rank_one():
    assert mean_average_precision([query([0.9], [0.1])]) == 1.0


def test_map_rank_two():
    assert mean_average_precision([query([0.5], [0.9])]) == 0.5


def test_map_two_queries():
    q1 = query([0.9], [0.1, 0.2])           # relevant at rank 1
    q2 = query([0.3], [0.9, 0.5, 0.1])      # relevant at rank 3
    assert mean_average_precision([q1, q2]) == pytest.approx((1 + 1 / 3) / 2)


def test_hit_within_and_outside_window():
    q = query([0.5], [0.9, 0.8, 0.1, 0.2])  # positive ranks 3rd
    assert hit_at_n([q], 5) == 1.0
    assert hit_at_n([q], 2) == 0.0
    assert hit_at_n([q], 50) == 1.0


def test_ndcg_rank_one():
    assert ndcg_at_n([query([0.9], [0.1])], 5) == 1.0


def test_ndcg_rank_three_closed_form():
    q = query([0.5], [0.9, 0.8, 0.1])
    assert ndcg_at_n([q], 5) == pytest.approx(1.0 / np.log2(4))
    assert ndcg_at_n([q], 2) == 0.0


def _random_queries(rng, n, max_candidates=20, multi_pos=False):
    queries = []
    for _ in range(n):
        size = int(rng.integers(2, max_candidates + 1))
        n_pos = int(rng.integers(1, max(2, size // 3))) if multi_pos else 1
        n_pos = min(n_pos, size - 1)
        scores = np.round(rng.uniform(size=size), 2)  # rounding forces ties
        relevant = np.zeros(size, dtype=bool)
        relevant[rng.choice(size, size=n_pos, replace=False)] = True
        queries.append(RankedQuery(tuple(scores.tolist()),
                                   tuple(relevant.tolist())))
    return queries


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    queries = _random_queries(rng, 1000, multi_pos=True)
    for q in queries:
        pos = [s for s, r in zip(q.scores, q.relevant) if r]
        neg = [s for s, r in zip(q.scores, q.relevant) if not r]
        assert auc([q]) == pytest.approx(reference_auc(pos, neg), abs=1e-12)
        ranking = q.ranking()
        assert mean_average_precision([q]) == pytest.approx(
            reference_average_precision(ranking), abs=1e-12)
        for n in (1, 3, 10):
            assert hit_at_n([q], n) == reference_hit_at_n(ranking, n)
            assert ndcg_at_n([q], n) == pytest.approx(
                reference_ndcg_at_n(ranking, n), abs=1e-12)


def _per_call_ndcg(queries, n):
    """NDCG@N rebuilding discounts and ideal gains on every call."""
    total = 0.0
    for q in queries:
        ranking = q.ranking()
        discounts = 1.0 / np.log2(np.arange(2, len(ranking) + 2))
        gains = np.asarray(ranking, dtype=float)
        dcg = float((gains[:n] * discounts[:n]).sum())
        ideal = np.sort(gains)[::-1]
        idcg = float((ideal[:n] * discounts[:n]).sum())
        total += dcg / idcg if idcg > 0 else 0.0
    return total / len(queries)


def test_ndcg_equals_per_call_formula_exactly():
    rng = np.random.default_rng(44)
    queries = _random_queries(rng, 300, max_candidates=120, multi_pos=True)
    for n in range(1, 21):
        assert ndcg_at_n(queries, n) == _per_call_ndcg(queries, n)
        for q in queries[:40]:
            assert ndcg_at_n([q], n) == _per_call_ndcg([q], n)


def test_pair_auc_equals_rank_auc_for_single_positive():
    rng = np.random.default_rng(43)
    for q in _random_queries(rng, 1000):
        scores = np.asarray(q.scores)
        pos_idx = q.relevant.index(True)
        below = (scores < scores[pos_idx]).sum()
        ties = (scores == scores[pos_idx]).sum() - 1
        rank = len(scores) - below - 0.5 * ties
        assert auc([q]) == pytest.approx(
            auc_from_rank(rank, len(scores)), abs=1e-12)


def test_auc_from_rank_of_the_end_and_tied_places():
    assert auc_from_rank(1, 101) == 1.0
    assert auc_from_rank(101, 101) == 0.0
    assert auc_from_rank(1.5, 2) == 0.5


@pytest.mark.parametrize("rank, n_candidates", [(1, 1), (102, 101),
                                                (0, 101), (0.5, 2)])
def test_auc_from_rank_refuses_a_rank_outside_the_candidates(
        rank, n_candidates):
    """A rank outside [1, n_candidates], or fewer than two candidates,
    is refused by name, not read as an AUC outside [0, 1] or divided by
    zero."""
    with pytest.raises(ValueError, match=f"rank {rank} is not a place "
                                         f"among {n_candidates} candidates"):
        auc_from_rank(rank, n_candidates)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=15),
       st.integers(min_value=0, max_value=2))
def test_metrics_invariant_under_monotone_transform(scores, pos_pos):
    # quantize so the transform stays strictly monotone in float arithmetic
    scores = [round(s, 3) for s in scores]
    pos_pos = pos_pos % len(scores)
    relevant = tuple(i == pos_pos for i in range(len(scores)))
    q1 = RankedQuery(tuple(scores), relevant)
    transformed = tuple(np.tanh(s) * 3 + 1 for s in scores)  # monotone
    q2 = RankedQuery(transformed, relevant)
    assert auc([q1]) == pytest.approx(auc([q2]), abs=1e-12)
    assert mean_average_precision([q1]) == pytest.approx(
        mean_average_precision([q2]), abs=1e-12)
    for n in (1, 5):
        assert ndcg_at_n([q1], n) == pytest.approx(ndcg_at_n([q2], n))


def test_hit_and_ndcg_nondecreasing_in_n():
    rng = np.random.default_rng(44)
    queries = _random_queries(rng, 50, multi_pos=True)
    hits = [hit_at_n(queries, n) for n in range(1, 21)]
    ndcgs = [ndcg_at_n(queries, n) for n in range(1, 21)]
    assert all(a <= b + 1e-12 for a, b in zip(hits, hits[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(ndcgs, ndcgs[1:]))


def test_ranking_tie_break_ascending_item_id():
    q = RankedQuery(scores=(0.5, 0.5, 0.5), relevant=(False, True, False),
                    item_ids=(30, 10, 20))
    assert q.ranking() == [True, False, False]


def test_report_roundtrip_and_determinism():
    rng = np.random.default_rng(45)
    queries = _random_queries(rng, 20)
    report = build_report(queries, top_n=range(1, 21), seed=3,
                          config_hash="abc", scenario="cold", model="metaCSR")
    text = report.to_json()
    assert text == build_report(queries, top_n=range(1, 21), seed=3,
                                config_hash="abc", scenario="cold",
                                model="metaCSR").to_json()
    back = report_from_json(text)
    assert back.auc == report.auc
    assert back.hit == report.hit
    assert back.scenario == "cold"
    assert "timestamp" not in text
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "metric,N,value"
    assert len(lines) == 1 + 2 + 20 + 20
    assert all(v in (0.0, 1.0) or 0.0 <= v <= 1.0
               for v in [report.auc, report.map])


def test_perfect_scorer_yields_unit_metrics():
    queries = [query([0.99], np.linspace(0.0, 0.9, 10)) for _ in range(5)]
    report = build_report(queries, top_n=[1])
    assert report.auc == 1.0
    assert report.hit[1] == 1.0
    assert report.ndcg[1] == 1.0
    assert report.map == 1.0
