"""Ranking-quality metrics over per-user candidate lists.

AUC counts ordered (positive, negative) score pairs with ties worth 0.5, so
a constant scorer lands exactly at 0.5. One tie rule, :func:`rank_order`,
orders candidates by descending score with ties broken by ascending item
id, which keeps reports deterministic: every scorer's ``rank`` and the
list metrics (MAP, Hit@N, NDCG@N) read it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def rank_order(scores, ids):
    """The positions of ``scores`` in rank order: descending score, ties
    broken by ascending id ``ids[i]``, then by position."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], ids[i]))


def ranked(items, scores):
    """(int item, float score) pairs of the candidates ``items`` in
    :func:`rank_order`."""
    items, scores = list(map(int, items)), np.asarray(scores, float).tolist()
    return [(items[i], scores[i]) for i in rank_order(scores, items)]


@dataclass(frozen=True)
class RankedQuery:
    """Scored candidates for one user: parallel scores/relevance/id arrays."""

    scores: tuple[float, ...]
    relevant: tuple[bool, ...]
    item_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.scores) != len(self.relevant):
            raise ValueError("scores and relevance flags differ in length")
        if self.item_ids is not None and len(self.item_ids) != len(self.scores):
            raise ValueError("item ids differ in length")

    @property
    def ids(self) -> tuple[int, ...]:
        return self.item_ids or tuple(range(len(self.scores)))

    def ranking(self):
        """Relevance flags in rank order (descending score, ascending id),
        sorted once per query: MAP, Hit@N and NDCG@N at every N read it."""
        return list(self._ranking)

    @cached_property
    def _ranking(self):
        return tuple(self.relevant[i]
                     for i in rank_order(self.scores, self.ids))

    @cached_property
    def _gains(self):
        """Gains in rank order, sorted descending, and the log2 discounts:
        built once per query for NDCG@N at every N."""
        gains = np.asarray(self._ranking, dtype=float)
        return (gains, np.sort(gains)[::-1],
                1.0 / np.log2(np.arange(2, gains.size + 2)))


def _require_queries(queries):
    if not queries:
        raise ValueError("metric over an empty query set")


def auc(queries) -> float:
    """Mean per-user fraction of correctly ordered (pos, neg) pairs."""
    _require_queries(queries)
    total = 0.0
    for q in queries:
        pos = [s for s, r in zip(q.scores, q.relevant) if r]
        neg = [s for s, r in zip(q.scores, q.relevant) if not r]
        if not pos or not neg:
            raise ValueError("AUC needs at least one positive and one negative")
        pos_a = np.asarray(pos)[:, None]
        neg_a = np.asarray(neg)[None, :]
        wins = (pos_a > neg_a).sum() + 0.5 * (pos_a == neg_a).sum()
        total += wins / (len(pos) * len(neg))
    return float(total / len(queries))


def auc_from_rank(rank, n_candidates) -> float:
    """Single-positive AUC recovered from the positive's tie-aware rank.

    ``rank`` is the 1-based position of the positive when ties are counted
    as half above, half below (the same 0.5 tie rule as :func:`auc`): a
    rank in [1, n_candidates], among at least two candidates, or a
    ValueError.
    """
    if n_candidates < 2 or not 1 <= rank <= n_candidates:
        raise ValueError(f"rank {rank} is not a place among "
                         f"{n_candidates} candidates (at least 2)")
    return (n_candidates - rank) / (n_candidates - 1)


def mean_average_precision(queries) -> float:
    _require_queries(queries)
    total = 0.0
    for q in queries:
        ranking = q.ranking()
        if not any(ranking):
            raise ValueError("MAP query without a relevant item")
        hits = 0
        avep = 0.0
        for position, rel in enumerate(ranking, start=1):
            if rel:
                hits += 1
                avep += hits / position
        total += avep / hits
    return total / len(queries)


def hit_at_n(queries, n) -> float:
    _require_queries(queries)
    if n < 1:
        raise ValueError("N must be >= 1")
    return sum(1.0 if any(q.ranking()[:n]) else 0.0
               for q in queries) / len(queries)


def ndcg_at_n(queries, n) -> float:
    _require_queries(queries)
    if n < 1:
        raise ValueError("N must be >= 1")
    total = 0.0
    for q in queries:
        gains, ideal, discounts = q._gains
        dcg = float((gains[:n] * discounts[:n]).sum())
        idcg = float((ideal[:n] * discounts[:n]).sum())
        total += dcg / idcg if idcg > 0 else 0.0
    return total / len(queries)


@dataclass
class MetricsReport:
    """Aggregated metrics plus deterministic run metadata: reports from
    identical (config, seed) runs are byte-identical."""

    auc: float
    map: float
    hit: dict[int, float]
    ndcg: dict[int, float]
    n_users: int
    seed: int | None = None
    config_hash: str | None = None
    scenario: str | None = None
    model: str | None = None

    def to_dict(self) -> dict:
        """The JSON payload of ``reports/metrics_*.json`` (N keys as text)."""
        meta = {"seed": self.seed, "config_hash": self.config_hash,
                "scenario": self.scenario, "model": self.model}
        return {
            "auc": self.auc,
            "map": self.map,
            "hit": {str(n): v for n, v in sorted(self.hit.items())},
            "ndcg": {str(n): v for n, v in sorted(self.ndcg.items())},
            "users": self.n_users,
            "meta": {k: v for k, v in meta.items() if v is not None},
        }

    def to_csv(self) -> str:
        """Flat ``metric,N,value`` rows for plotting."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["metric", "N", "value"])
        writer.writerows(report_rows(self.to_dict()))
        return buf.getvalue()


def report_rows(payload):
    """The (metric, N, value) rows of a report's JSON payload: auc, map (no
    N), then hit@N and ndcg@N by ascending N; each value as its ``repr``."""
    rows = [("auc", "", repr(payload["auc"])),
            ("map", "", repr(payload["map"]))]
    for metric in ("hit", "ndcg"):
        rows += [(metric, n, repr(value)) for n, value in
                 sorted(payload[metric].items(), key=lambda kv: int(kv[0]))]
    return rows


def build_report(queries, top_n=range(1, 21), **meta) -> MetricsReport:
    return MetricsReport(
        auc=auc(queries),
        map=mean_average_precision(queries),
        hit={n: hit_at_n(queries, n) for n in top_n},
        ndcg={n: ndcg_at_n(queries, n) for n in top_n},
        n_users=len(queries),
        **meta,
    )
