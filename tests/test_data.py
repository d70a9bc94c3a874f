import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from metacsr import data
from metacsr.data import (
    BehaviorSequence,
    InteractionRecord,
    SplitSpec,
    SyntheticWorldSpec,
    build_eval_candidates,
    generate_synthetic_world,
    parse_interactions,
    positive_histories,
    split_users,
    usable_sequence_count,
    window_sequence,
)
from oracles import reference_synthetic_world

FIXTURE = Path(__file__).parent / "fixtures" / "ml1m_500.dat"


def rec(user, item, rating=None, ts=0):
    return InteractionRecord(user, item, rating, ts)


# ---------------------------------------------------------------- parsing


def test_parse_movielens_line(tmp_path):
    f = tmp_path / "r.dat"
    f.write_text("1::1193::5::978300760\n")
    out = parse_interactions(f)
    assert out.records == [InteractionRecord(0, 0, 5.0, 978300760)]
    assert out.user_map == {1: 0}
    assert out.item_map == {1193: 0}


def test_parse_empty_file(tmp_path):
    f = tmp_path / "empty.dat"
    f.write_text("")
    out = parse_interactions(f)
    assert out.records == []
    assert out.stats.n_malformed == 0


def test_parse_fixture_counts():
    out = parse_interactions(FIXTURE)
    assert out.stats.n_records == 500
    assert out.stats.n_users == 42
    assert out.stats.n_items == 424
    assert out.stats.max_raw_user_id == 1979
    assert out.stats.max_raw_item_id == 1500
    # dense remap covers 0..n-1
    assert set(out.user_map.values()) == set(range(42))
    assert set(out.item_map.values()) == set(range(424))


def test_parse_sorted_by_user_then_time():
    out = parse_interactions(FIXTURE)
    keys = [(r.user, r.timestamp) for r in out.records]
    assert keys == sorted(keys)


def test_parse_tsv_without_rating(tmp_path):
    f = tmp_path / "log.tsv"
    f.write_text("7\t3\t100\n7\t4\t200\n")
    out = parse_interactions(f, fmt="tsv")
    assert [r.rating for r in out.records] == [None, None]


def test_parse_tolerates_few_malformed_lines(tmp_path):
    f = tmp_path / "r.dat"
    lines = [f"{u}::1::5::{u}" for u in range(1, 200)]
    lines.insert(50, "garbage-line")
    f.write_text("\n".join(lines) + "\n")
    out = parse_interactions(f)
    assert out.stats.n_malformed == 1
    assert out.stats.n_records == 199


def test_parse_rejects_too_many_malformed(tmp_path):
    f = tmp_path / "r.dat"
    f.write_text("a::b\n" * 5 + "1::2::3::4\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_interactions(f)


def test_parse_time_range_filter(tmp_path):
    f = tmp_path / "log.tsv"
    f.write_text("1\t1\t100\n1\t2\t200\n1\t3\t300\n")
    out = parse_interactions(f, fmt="tsv", time_range=(150, 250))
    assert [r.timestamp for r in out.records] == [200]


# ---------------------------------------------------------------- splitting


def test_threshold_keeps_only_positive_ratings():
    records = [rec(0, 0, 5.0, 0), rec(0, 1, 3.0, 1), rec(0, 2, 4.0, 2)]
    hist = positive_histories(records, SplitSpec())
    assert [r.item for r in hist[0]] == [0, 2]
    assert all(r.rating >= 4.0 for r in hist[0])


def test_threshold_ignored_without_ratings():
    records = [rec(0, 0, None, 0), rec(0, 1, None, 1)]
    hist = positive_histories(records, SplitSpec())
    assert len(hist[0]) == 2


def test_users_with_single_positive_dropped():
    records = [rec(0, 0, 5.0, 0), rec(1, 0, 5.0, 0), rec(1, 1, 5.0, 1)]
    hist = positive_histories(records, SplitSpec())
    assert 0 not in hist and 1 in hist


def test_split_by_activity_6040_users():
    # 6,040 synthetic users reproduce the canonical 4,832 / 1,208 split
    records = []
    for user in range(6040):
        count = 2 + (user % 9)
        for j in range(count):
            records.append(rec(user, (user + j) % 50, None, j))
    regular, new = split_users(records, SplitSpec())
    assert len(regular) == 4832
    assert len(new) == 1208
    assert set(regular) | set(new) == set(range(6040))
    assert not set(regular) & set(new)
    # regular users are at least as active as every new user
    assert min(2 + (u % 9) for u in regular) >= max(2 + (u % 9) for u in new)


def test_split_tie_break_by_user_id():
    # all users have equal activity: the lowest ids become regular
    records = []
    for user in range(10):
        records.extend([rec(user, 0, None, 0), rec(user, 1, None, 1)])
    regular, new = split_users(records, SplitSpec(regular_fraction=0.8))
    assert sorted(regular) == list(range(8))
    assert sorted(new) == [8, 9]


def test_new_user_histories_truncated_to_earliest():
    records = [rec(0, i, None, i) for i in range(30)]
    records += [rec(1, i, None, i) for i in range(40)]
    regular, new = split_users(records, SplitSpec(regular_fraction=0.5))
    (new_user, items), = new.items()
    assert len(items) == 10
    assert items == list(range(10))  # earliest by timestamp


def test_count_range_mode():
    records = []
    for j in range(4):
        records.append(rec(0, j, None, j))
    for j in range(6):
        records.append(rec(1, j, None, j))
    spec = SplitSpec(mode="by-count-range", count_range=(2, 5))
    regular, new = split_users(records, spec)
    assert 0 in new and 1 in regular


# ----------------------------------------------------------------- windows


def test_window_history_of_three_has_single_configuration():
    seq = window_sequence([10, 11, 12], 2, 10, np.random.default_rng(0))
    assert seq.items == (10, 11)
    assert seq.target == 12


def test_window_lengths_always_in_bounds():
    rng = np.random.default_rng(1)
    history = list(range(40))
    for _ in range(200):
        seq = window_sequence(history, 2, 10, rng)
        assert 2 <= len(seq.items) <= 10


def test_window_contiguous_with_target():
    rng = np.random.default_rng(2)
    history = list(range(100, 150))
    for _ in range(100):
        seq = window_sequence(history, 2, 10, rng)
        start = seq.items[0] - 100
        assert list(seq.items) == history[start:start + len(seq.items)]
        assert seq.target == history[start + len(seq.items)]


def test_window_too_short_history_raises():
    with pytest.raises(ValueError, match="length"):
        window_sequence([1, 2], 2, 10, np.random.default_rng(0))


def test_window_fixed_target_index():
    """The ``targets`` form ends one window right before each target, in
    order, and refuses a target with fewer than ``t_min`` items before
    it."""
    rng = np.random.default_rng(3)
    seqs = window_sequence(list(range(20)), 2, 5, rng, user=4,
                           targets=[7, 2, 19])
    assert [s.target for s in seqs] == [7, 2, 19]
    assert [s.items[-1] for s in seqs] == [6, 1, 18]
    assert seqs[1].items == (0, 1)
    assert all(2 <= len(s.items) <= 5 and s.user == 4 for s in seqs)
    assert window_sequence(list(range(20)), 2, 5, rng, targets=[]) == []
    with pytest.raises(ValueError, match="no room"):
        window_sequence(list(range(20)), 2, 5, rng, targets=[7, 1])


def test_window_refuses_a_target_past_the_history_before_drawing():
    """A target index at or past the end of the history is refused by
    name, before the window lengths are drawn: the rng is left as it was,
    so the calls that follow keep their stream."""
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    for targets in ([10], [3, 12, 5]):
        with pytest.raises(ValueError, match=f"target index {max(targets)} "
                                             "is outside the history of "
                                             "length 10"):
            window_sequence(list(range(10)), 2, 5, rng, targets=targets)
    assert rng.bit_generator.state == state


def test_usable_sequence_count():
    assert usable_sequence_count(3) == 1
    assert usable_sequence_count(22) == 20
    assert usable_sequence_count(2) == 0


def test_behavior_sequence_min_length():
    with pytest.raises(ValueError):
        BehaviorSequence(user=0, items=(1,), target=2)


# -------------------------------------------------------------- candidates


def test_candidates_length_101():
    rng = np.random.default_rng(4)
    pos, negs = build_eval_candidates(list(range(10)), 500, 100, rng)
    assert pos == 9
    assert len(negs) == 100
    assert len(set(negs)) == 100


def test_candidates_disjoint_from_history():
    rng = np.random.default_rng(5)
    history = list(range(50))
    _, negs = build_eval_candidates(history, 200, 100, rng)
    assert not set(negs) & set(history)


def test_candidates_deterministic_per_seed():
    history = list(range(20))
    a = build_eval_candidates(history, 300, 100, np.random.default_rng(9))
    b = build_eval_candidates(history, 300, 100, np.random.default_rng(9))
    assert a == b


def test_candidates_catalog_too_small():
    with pytest.raises(ValueError, match="catalog"):
        build_eval_candidates(list(range(10)), 50, 100,
                              np.random.default_rng(0))


# ---------------------------------------------------------------- synthetic


def test_degenerate_single_chain_follows_cycle():
    spec = SyntheticWorldSpec(n_items=5, n_chains=1, n_regular=3, n_new=0,
                              mix_weight=1.0, successors=1,
                              seq_len_min=10, seq_len_max=10, seed=3)
    world = generate_synthetic_world(spec)
    chain = world.transitions[0]
    assert list(world.histories) == [0, 1, 2]
    for items in world.histories.values():
        for a, b in zip(items, items[1:]):
            (succ,) = chain[a].keys()
            assert b == succ


def test_empirical_transitions_converge_to_spec_rows():
    spec = SyntheticWorldSpec(n_items=3, n_chains=1, n_regular=1, n_new=0,
                              mix_weight=1.0, successors=2,
                              seq_len_min=10000, seq_len_max=10000, seed=17)
    world = generate_synthetic_world(spec)
    items, = world.histories.values()
    counts = np.zeros((3, 3))
    for a, b in zip(items, items[1:]):
        counts[a, b] += 1
    chain = world.transitions[0]
    checked = 0
    for state in range(3):
        total = counts[state].sum()
        if total < 200:
            continue
        checked += 1
        empirical = counts[state] / total
        expected = np.zeros(3)
        for succ, p in chain[state].items():
            expected[succ] = p
        assert np.abs(empirical - expected).sum() < 0.02
    assert checked >= 2


@pytest.mark.parametrize("field, value", [
    ("n_items", 0), ("n_chains", 0), ("n_regular", -1), ("n_new", -1),
    ("mix_weight", 1.5), ("mix_weight", -0.1), ("successors", 0),
    ("successors", 600), ("seq_len_min", 0), ("seq_len_min", 50),
    ("chain_kind", "ring")])
def test_synthetic_spec_rejects_bad_field_naming_it(field, value):
    with pytest.raises(ValueError, match=f"needs [^:]*{field}"):
        SyntheticWorldSpec(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("new_user_max_kept", 0), ("new_user_max_kept", -3),
    ("count_range", (5, 2)), ("count_range", (0, 3)),
    ("count_range", (-1, 2))])
def test_split_spec_rejects_bad_field_naming_it(field, value):
    with pytest.raises(ValueError, match=f"needs {field}"):
        SplitSpec(**{field: value})


def test_synthetic_world_deterministic():
    spec = SyntheticWorldSpec(n_items=20, n_chains=2, n_regular=5, n_new=2,
                              seq_len_min=8, seq_len_max=12, seed=11)
    a = generate_synthetic_world(spec)
    b = generate_synthetic_world(spec)
    assert a.histories == b.histories
    assert a.user_chain == b.user_chain


def test_synthetic_world_draws_the_choice_loops_stream():
    """Histories, chains and users' chains equal those of one
    ``Generator.choice`` call per chain step, over both chain kinds, one
    chain (no hop) and several, mix weights 0, 1 and between, one
    successor and several, no regular or no new users, and length-1
    sequences."""
    users = itertools.cycle([(5, 3), (0, 4), (6, 0)])
    lengths = itertools.cycle([(1, 6), (3, 9)])
    specs = [SyntheticWorldSpec(n_regular=40, n_new=10, seed=5)]
    for seed, (kind, n_chains, mix, successors) in enumerate(
            itertools.product(("random", "permutation"), (1, 3),
                              (0.0, 0.6, 1.0), (1, 4))):
        n_regular, n_new = next(users)
        seq_len_min, seq_len_max = next(lengths)
        specs.append(SyntheticWorldSpec(
            n_items=12, n_chains=n_chains, n_regular=n_regular, n_new=n_new,
            mix_weight=mix, successors=successors, chain_kind=kind,
            seq_len_min=seq_len_min, seq_len_max=seq_len_max, seed=seed))
    for spec in specs:
        world = generate_synthetic_world(spec)
        records, transitions, user_chain = reference_synthetic_world(spec)
        histories = {}
        for user, item, rating, step in records:
            assert rating is None and step == len(histories.setdefault(
                user, [])), spec
            histories[user].append(item)
        assert world.histories == histories, spec
        assert list(world.histories) == list(histories), spec
        assert world.transitions == transitions, spec
        assert world.user_chain == user_chain, spec


def test_synthetic_split_truncates_new_users():
    spec = SyntheticWorldSpec(n_items=20, n_chains=1, n_regular=3, n_new=2,
                              seq_len_min=15, seq_len_max=20, seed=2)
    world = generate_synthetic_world(spec)
    regular, new = data.synthetic_split(world)
    assert set(regular) == {0, 1, 2}
    assert set(new) == {3, 4}
    assert all(len(items) <= 10 for items in new.values())
    # the split's lists are copies: a dataset never edits its world
    for user, items in {**regular, **new}.items():
        assert items == world.histories[user][:len(items)]
        assert items is not world.histories[user]


# ------------------------------------------------------------ dataset dirs


def test_dataset_dir_round_trip(tmp_path):
    dataset = data.Dataset(
        regular={0: [1, 2, 3], 1: [2, 0, 1, 3]},
        new={2: [3, 1]},
        n_items=4,
        split_spec=SplitSpec(),
        seed=5,
    )
    out = data.write_dataset_dir(tmp_path / "ds", dataset,
                                 user_map={10: 0, 11: 1, 12: 2},
                                 item_map={100: 0, 101: 1, 102: 2, 103: 3})
    back = data.read_dataset_dir(out)
    assert back.regular == dataset.regular
    assert back.new == dataset.new
    assert back.n_items == 4
    assert back.seed == 5
    assert back.split_spec == dataset.split_spec
    assert (out / "users.map").read_text().splitlines()[0] == "10\t0"
    assert (out / "items.map").read_text().splitlines()[-1] == "103\t3"


@pytest.mark.parametrize("bad", [-1, 4])
def test_dataset_dir_refuses_item_ids_outside_the_catalog(tmp_path, bad):
    """A new user's item id outside [0, n_items) is refused with the file,
    the line and the id; regular users are checked by the graph."""
    dataset = data.Dataset(regular={0: [1, 2, 3]}, new={1: [2, bad, 3, 0]},
                           n_items=4, split_spec=SplitSpec(), seed=1)
    out = data.write_dataset_dir(tmp_path / "ds", dataset)
    with pytest.raises(ValueError) as err:
        data.read_dataset_dir(out)
    message = str(err.value)
    assert str(out / "interactions.tsv") in message
    assert "line 5" in message and f"item id {bad} " in message


def test_dataset_dir_idempotent(tmp_path):
    dataset = data.Dataset(regular={0: [1, 2, 3]}, new={1: [2, 3]},
                           n_items=4, split_spec=SplitSpec(), seed=1)
    out = data.write_dataset_dir(tmp_path / "ds", dataset)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    data.write_dataset_dir(tmp_path / "ds", dataset)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def _corrupt_split(out, edit):
    split = out / "split.json"
    info = json.loads(split.read_text())
    edit(info)
    split.write_text(json.dumps(info))
    return split


@pytest.mark.parametrize("case", ["split-no-n-items", "split-text-n-items",
                                  "split-unknown-key", "tsv-two-fields"])
def test_dataset_dir_malformed_file_names_it(tmp_path, case):
    dataset = data.Dataset(regular={0: [1, 2, 3]}, new={1: [2, 3]},
                           n_items=4, split_spec=SplitSpec(), seed=1)
    out = data.write_dataset_dir(tmp_path / "ds", dataset)
    if case == "split-no-n-items":
        bad = _corrupt_split(out, lambda info: info.pop("n_items"))
    elif case == "split-text-n-items":
        bad = _corrupt_split(out, lambda info: info.update(n_items="4"))
    elif case == "split-unknown-key":
        bad = _corrupt_split(
            out, lambda info: info["split_spec"].update(shuffle=True))
    else:
        bad = out / "interactions.tsv"
        bad.write_text(bad.read_text() + "0\t3\n")
    with pytest.raises(ValueError) as err:
        data.read_dataset_dir(out)
    assert str(bad) in str(err.value)
