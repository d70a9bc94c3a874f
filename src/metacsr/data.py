"""Interaction-log parsing, preprocessing protocol and synthetic worlds.

The preprocessing mirrors the standard implicit-feedback protocol: keep
interactions at or above the rating threshold (when ratings exist), drop
users with fewer than two positives, rank users by activity and declare the
top fraction regular, truncate every new user to their earliest behaviors,
and evaluate against one held-out positive plus sampled negatives.

A canonical dataset directory consists of ``interactions.tsv`` (dense ids),
``users.map`` / ``items.map`` (raw-to-dense, two columns) and ``split.json``
(regular/new id lists plus the split spec and seed). Every JSON file the
program keeps is written by :func:`write_json` and read by :func:`read_json`.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class InteractionRecord:
    user: int
    item: int
    rating: float | None
    timestamp: int


@dataclass(frozen=True)
class BehaviorSequence:
    """A time-ordered item window plus the next interaction to predict."""

    user: int
    items: tuple[int, ...]
    target: int

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("behavior sequence needs at least 2 items")


@dataclass(frozen=True)
class SplitSpec:
    regular_fraction: float = 0.8
    new_user_max_kept: int = 10
    rating_threshold: float | None = 4.0
    mode: str = "by-activity"              # or "by-count-range"
    count_range: tuple[int, int] = (2, 5)  # inclusive new-user range

    def __post_init__(self):
        if not (0.0 < self.regular_fraction < 1.0):
            raise ValueError("regular fraction must lie in (0, 1)")
        if self.mode not in ("by-activity", "by-count-range"):
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.new_user_max_kept < 1:
            raise ValueError("split needs new_user_max_kept >= 1, not "
                             f"{self.new_user_max_kept!r}")
        lo, hi = self.count_range
        if not 1 <= lo <= hi:
            raise ValueError("split needs count_range (lo, hi) with "
                             f"1 <= lo <= hi, not {self.count_range!r}")


@dataclass
class ParseStats:
    n_users: int = 0
    n_items: int = 0
    n_records: int = 0
    n_malformed: int = 0
    max_raw_user_id: int = -1
    max_raw_item_id: int = -1


@dataclass
class ParseResult:
    records: list[InteractionRecord]
    user_map: dict[int, int]
    item_map: dict[int, int]
    stats: ParseStats


def utf8_lines(path):
    """The lines of the text file ``path``, each with its line ending. A
    line that is not UTF-8 is a ValueError that names the file and the
    line."""
    with Path(path).open("rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}: line {number} is not UTF-8 (byte "
                    f"{raw[exc.start]:#04x} at column {exc.start + 1}: "
                    f"{exc.reason})") from None


def read_json(path) -> dict:
    """The JSON object in the file ``path``. A line that is not UTF-8,
    text that is not JSON or a top level that is not an object is a
    ValueError that names the file and the problem."""
    try:
        value = json.loads("".join(utf8_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} is not valid JSON "
                         f"({exc.msg} at column {exc.colno})") from None
    if not isinstance(value, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean",
                type(None): "null"}.get(type(value), "a number")
        raise ValueError(f"{path}: must hold a JSON object, not {kind}")
    return value


def write_json(path, value):
    """Write ``value`` to ``path`` as UTF-8 JSON, one sorted key per line."""
    Path(path).write_text(json.dumps(value, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def parse_interactions(path, fmt="movielens-dcolon",
                       time_range=None) -> ParseResult:
    """Parse an interaction log into dense-id records.

    ``fmt`` is "movielens-dcolon" (``user::item::rating::timestamp``) or
    "tsv" (``user<TAB>item[<TAB>rating]<TAB>timestamp``). Raw ids are
    remapped to dense integers in first-seen order; the maps are returned
    for persistence. Records come back sorted by (user, timestamp, item).
    Malformed lines are counted and tolerated up to 1% of the file;
    ``time_range=(lo, hi)`` keeps only timestamps in the closed interval.
    """
    path = Path(path)
    raw_rows = []
    n_lines = 0
    n_bad = 0
    for line in utf8_lines(path):
        line = line.strip()
        if not line:
            continue
        n_lines += 1
        fields = line.split("::") if fmt == "movielens-dcolon" \
            else line.split("\t")
        try:
            if len(fields) == 4:
                user, item, rating, ts = fields
                rating = float(rating)
            elif len(fields) == 3 and fmt == "tsv":
                user, item, ts = fields
                rating = None
            else:
                raise ValueError
            raw_rows.append((int(user), int(item), rating, int(ts)))
        except ValueError:
            n_bad += 1
    if n_lines and n_bad / n_lines > 0.01:
        raise ValueError(
            f"{path}: {n_bad}/{n_lines} malformed lines exceeds the 1% budget")
    if n_bad:
        log.warning("%s: skipped %d malformed lines", path, n_bad)

    if time_range is not None:
        lo, hi = time_range
        raw_rows = [r for r in raw_rows if lo <= r[3] <= hi]

    user_map: dict[int, int] = {}
    item_map: dict[int, int] = {}
    records = []
    stats = ParseStats(n_malformed=n_bad)
    for ruser, ritem, rating, ts in raw_rows:
        stats.max_raw_user_id = max(stats.max_raw_user_id, ruser)
        stats.max_raw_item_id = max(stats.max_raw_item_id, ritem)
        user = user_map.setdefault(ruser, len(user_map))
        item = item_map.setdefault(ritem, len(item_map))
        records.append(InteractionRecord(user, item, rating, ts))
    records.sort(key=lambda r: (r.user, r.timestamp, r.item))
    stats.n_users = len(user_map)
    stats.n_items = len(item_map)
    stats.n_records = len(records)
    return ParseResult(records, user_map, item_map, stats)


def positive_histories(records, spec) -> dict[int, list[InteractionRecord]]:
    """Threshold-filtered per-user histories, time-ordered.

    Users left with fewer than two positives are dropped entirely: they
    cannot form a window plus target.
    """
    histories: dict[int, list[InteractionRecord]] = {}
    for rec in records:
        if spec.rating_threshold is not None and rec.rating is not None \
                and rec.rating < spec.rating_threshold:
            continue
        histories.setdefault(rec.user, []).append(rec)
    return {u: h for u, h in histories.items() if len(h) >= 2}


def split_users(records, spec):
    """Partition retained users into regular and new histories.

    by-activity: users ranked by interaction count (ties broken by user
    id), top ``regular_fraction`` regular. by-count-range: users whose
    count falls inside ``count_range`` are new, heavier users regular.
    New-user histories are truncated to their earliest
    ``new_user_max_kept`` behaviors. Returns (regular, new) dicts of
    user -> item-id list.
    """
    histories = positive_histories(records, spec)
    items_of = {u: [r.item for r in h] for u, h in histories.items()}
    if spec.mode == "by-activity":
        ranked = sorted(items_of, key=lambda u: (-len(items_of[u]), u))
        n_regular = int(len(ranked) * spec.regular_fraction)
        regular_ids = set(ranked[:n_regular])
    else:
        lo, hi = spec.count_range
        regular_ids = {u for u, items in items_of.items()
                       if len(items) > hi}
        items_of = {u: items for u, items in items_of.items()
                    if len(items) > hi or lo <= len(items) <= hi}
    regular = {u: items for u, items in items_of.items() if u in regular_ids}
    new = {u: items[: spec.new_user_max_kept]
           for u, items in items_of.items() if u not in regular_ids}
    return regular, new


def usable_sequence_count(history_len, t_min=2) -> int:
    """How many distinct training sequences a history supports.

    One sequence per eligible target position: every index with at least
    ``t_min`` interactions before it.
    """
    return max(0, history_len - t_min)


def window_sequence(history, t_min, t_max, rng, user=-1, targets=None):
    """Draw training windows from a user history (list of item ids).

    Length T is uniform over [t_min, min(t_max, available)]; the window is
    contiguous and the target is the interaction immediately after it.
    Without ``targets``, returns one window anywhere in the history. With
    ``targets`` (target indices), returns one window per target, each
    ending right before it, their lengths from one draw: the stream the
    same per-target scalar draws would take.
    """
    n = len(history)
    if n < t_min + 1:
        raise ValueError(f"history of length {n} cannot form a window"
                         f" of {t_min} plus a target")
    if targets is None:
        t_len = int(rng.integers(t_min, min(t_max, n - 1) + 1))
        start = int(rng.integers(0, n - t_len))
        return BehaviorSequence(user=user,
                                items=tuple(history[start:start + t_len]),
                                target=history[start + t_len])
    ends = np.asarray(targets, dtype=np.int64)
    if ends.size and ends.min() < t_min:
        raise ValueError("target index leaves no room for a window")
    if ends.size and ends.max() >= n:
        raise ValueError(f"target index {ends.max()} is outside the history "
                         f"of length {n}")
    lengths = rng.integers(t_min, np.minimum(t_max, ends) + 1)
    return [BehaviorSequence(user=user, items=tuple(history[end - t_len:end]),
                             target=history[end])
            for end, t_len in zip(ends.tolist(), lengths.tolist())]


def build_eval_candidates(history, n_catalog, n_neg, rng):
    """One held-out positive (the last behavior) plus sampled negatives.

    Negatives are distinct items the user never interacted with,
    deterministic given the rng. Returns (positive, negatives).
    """
    return history[-1], sample_negatives([set(history)], n_catalog, n_neg,
                                         rng)[0]


def sample_negatives(excluded, n_items, k, rng):
    """k distinct item ids outside each set of ``excluded``, in draw
    order: one list per set.

    The ids are those of a scalar rejection loop that fills the sets in
    turn, one ``rng.integers(0, n_items)`` at a time. Each round draws as
    many ids as are still missing and consumes them in order, so it never
    draws past the loop's last draw: the lists and the rng state after
    are the loop's.
    """
    for positives in excluded:
        if n_items - len(positives) < k:
            raise ValueError(f"catalog of {n_items} items leaves only "
                             f"{n_items - len(positives)} negatives, "
                             f"need {k}")
    out = [[] for _ in excluded]
    row, chosen = 0, set()
    missing = k * len(excluded)
    while missing:
        for draw in rng.integers(0, n_items, size=missing).tolist():
            if draw in excluded[row] or draw in chosen:
                continue
            chosen.add(draw)
            out[row].append(draw)
            missing -= 1
            if len(out[row]) == k:
                row, chosen = row + 1, set()
    return out


# ---------------------------------------------------------------- synthetic


@dataclass(frozen=True)
class SyntheticWorldSpec:
    n_items: int = 500
    n_chains: int = 3
    n_regular: int = 300
    n_new: int = 60
    mix_weight: float = 0.92      # probability of following the user's chain
    successors: int = 3           # candidate next items per state per chain
    chain_kind: str = "random"    # "random" | "permutation"
    seq_len_min: int = 26
    seq_len_max: int = 44
    seed: int = 0

    def __post_init__(self):
        rules = (
            (min(self.n_items, self.n_chains) >= 1, "n_items, n_chains >= 1"),
            (min(self.n_regular, self.n_new) >= 0, "n_regular, n_new >= 0"),
            (0.0 <= self.mix_weight <= 1.0, "0 <= mix_weight <= 1"),
            (1 <= self.successors <= self.n_items,
             "1 <= successors <= n_items"),
            (1 <= self.seq_len_min <= self.seq_len_max,
             "1 <= seq_len_min <= seq_len_max"),
            (self.chain_kind in ("random", "permutation"),
             "chain_kind 'random' or 'permutation'"))
        for ok, rule in rules:
            if not ok:
                raise ValueError(f"synthetic world needs {rule}: {self}")


@dataclass
class SyntheticWorld:
    histories: dict[int, list[int]]     # user -> items in step order
    transitions: list[dict[int, dict[int, float]]]  # per chain: state -> dist
    user_chain: dict[int, int]
    spec: SyntheticWorldSpec


def _chain_transitions(spec, rng):
    """Sparse per-chain successor distributions over the item catalog.

    Chains are deliberately conflicting: each chain maps the same state to
    different successors, so a user's chain matters. "random" chains draw
    ``successors`` candidates per state with Dirichlet weights;
    "permutation" chains are deterministic item permutations, which keeps
    long-run item popularity uniform.
    """
    chains = []
    for _ in range(spec.n_chains):
        table = {}
        if spec.chain_kind == "permutation":
            order = rng.permutation(spec.n_items)
            for state in range(spec.n_items):
                table[state] = {int(order[state]): 1.0}
        else:
            for state in range(spec.n_items):
                succ = rng.choice(spec.n_items, size=spec.successors,
                                  replace=False)
                weights = rng.dirichlet(np.full(spec.successors, 0.35))
                table[state] = {int(s): float(w)
                                for s, w in zip(succ, weights)}
        chains.append(table)
    return chains


def _successor_tables(chains):
    """Per chain, per state: its successors in item order and their cdf
    as lists, the cdf built as ``Generator.choice(len(items), p=probs /
    probs.sum())`` builds it (``cdf = p.cumsum()``, ``cdf /= cdf[-1]``)."""
    tables = []
    for chain in chains:
        table = []
        for state in range(len(chain)):
            dist = chain[state]
            items = sorted(dist)
            probs = np.array([dist[i] for i in items])
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            table.append((items, cdf.tolist()))
        tables.append(table)
    return tables


def generate_synthetic_world(spec) -> SyntheticWorld:
    """Users as mixtures over shared item-transition chains.

    Every user follows one dominant chain; each step stays on it with
    probability ``mix_weight`` and otherwise hops to another chain or a
    uniform random item. Emits each user's history of items, in step
    order, and the generating chains so tests can check against the true
    transition structure.

    The stream: after the chains, each user draws its chain, length and
    start state with ``integers``, then takes one step after each item of
    its history, the last included. A step draws one ``random()`` for the
    mix test. At or above ``mix_weight`` it leaves the chain: with several
    chains a second ``random()`` below 0.5 hops, for this step, to the
    chain that ``integers(0, n_chains - 1)`` picks among the others;
    otherwise ``integers(0, n_items)`` is the next state. A chain step
    draws one more ``random()``, even for a single successor, and takes
    the first successor in item order whose cdf exceeds it: the draw of
    one ``Generator.choice`` over them.
    """
    rng = np.random.default_rng(spec.seed)
    chains = _chain_transitions(spec, rng)
    tables = _successor_tables(chains)
    histories = {}
    user_chain = {}
    n_total = spec.n_regular + spec.n_new
    for user in range(n_total):
        chain_id = int(rng.integers(0, spec.n_chains))
        user_chain[user] = chain_id
        length = int(rng.integers(spec.seq_len_min, spec.seq_len_max + 1))
        state = int(rng.integers(0, spec.n_items))
        history = histories[user] = []
        for _ in range(length):
            history.append(state)
            walk = chain_id
            if rng.random() >= spec.mix_weight:
                if spec.n_chains > 1 and rng.random() < 0.5:
                    other = int(rng.integers(0, spec.n_chains - 1))
                    walk = other if other < chain_id else other + 1
                else:
                    state = int(rng.integers(0, spec.n_items))
                    continue
            items, cdf = tables[walk][state]
            state = items[bisect_right(cdf, rng.random())]
    return SyntheticWorld(histories, chains, user_chain, spec)


def synthetic_split(world, new_user_max_kept=SplitSpec.new_user_max_kept):
    """Regular/new histories with the first ``n_regular`` users regular.

    New users keep at most ``new_user_max_kept`` earliest behaviors.
    """
    regular, new = {}, {}
    for user, items in world.histories.items():
        if user < world.spec.n_regular:
            regular[user] = items[:]
        else:
            new[user] = items[:new_user_max_kept]
    return regular, new


# ------------------------------------------------------------- dataset dirs


@dataclass
class Dataset:
    """Prepared training/evaluation data for one run."""

    regular: dict[int, list[int]]
    new: dict[int, list[int]]
    n_items: int
    split_spec: SplitSpec
    seed: int
    extras: dict = field(default_factory=dict)


def write_dataset_dir(out_dir, dataset, user_map=None, item_map=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "interactions.tsv").open("w", encoding="utf-8") as fh:
        for group in (dataset.regular, dataset.new):
            for user in sorted(group):
                for ts, item in enumerate(group[user]):
                    fh.write(f"{user}\t{item}\t{ts}\n")
    for name, mapping in (("users.map", user_map), ("items.map", item_map)):
        with (out / name).open("w", encoding="utf-8") as fh:
            if mapping:
                for raw in sorted(mapping):
                    fh.write(f"{raw}\t{mapping[raw]}\n")
    payload = {
        "regular": sorted(dataset.regular),
        "new": sorted(dataset.new),
        "n_items": dataset.n_items,
        "seed": dataset.seed,
        "split_spec": asdict(dataset.split_spec),
    }
    payload.update(dataset.extras)
    write_json(out / "split.json", payload)
    return out


def read_dataset_dir(path) -> Dataset:
    """The dataset :func:`write_dataset_dir` wrote under ``path``; a
    malformed ``split.json``, or an ``interactions.tsv`` line that is
    malformed or holds an item id outside ``[0, n_items)``, is a ValueError
    that names the file (and the line)."""
    path = Path(path)
    split_path = path / "split.json"
    info = read_json(split_path)
    try:
        regular_ids = set(info["regular"])
        spec = SplitSpec(**{**info["split_spec"], "count_range": tuple(
            info["split_spec"]["count_range"])})
        n_items, seed = info["n_items"], info["seed"]
        if type(n_items) is not int or n_items < 1:
            raise ValueError(f"n_items {n_items!r} is not a positive int")
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{split_path}: bad split file ({err!r})") from None
    histories: dict[int, list[tuple[int, int]]] = {}
    tsv_path = path / "interactions.tsv"
    for number, line in enumerate(utf8_lines(tsv_path), 1):
        try:
            user, item, ts = map(int, line.strip().split("\t"))
        except ValueError:
            raise ValueError(f"{tsv_path}: line {number} is not user<TAB>"
                             f"item<TAB>timestamp: {line!r}") from None
        if not 0 <= item < n_items:
            raise ValueError(f"{tsv_path}: line {number}: item id {item} "
                             f"outside [0, {n_items})")
        histories.setdefault(user, []).append((ts, item))
    regular = {}
    new = {}
    for user, rows in histories.items():
        items = [item for _, item in sorted(rows)]
        (regular if user in regular_ids else new)[user] = items
    extras = {k: v for k, v in info.items()
              if k not in ("regular", "new", "n_items", "seed", "split_spec")}
    return Dataset(regular=regular, new=new, n_items=n_items,
                   split_spec=spec, seed=seed, extras=extras)
