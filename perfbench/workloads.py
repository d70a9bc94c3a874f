"""The benchmark's workloads and the measurements taken around them.

Every workload is a closed loop with one caller: each training step or
ranked user starts when the previous one has returned. A workload sets up
``setup_reps`` times (the median is ``setup_s``), then runs its timed
phase for at least ``--seconds`` seconds and at least a fixed number of
operations; the workloads with cold users then evaluate them. Step and
user timings come from
:class:`Meter`, which wraps ``MetaTrainer.sample_tasks``/``outer_update``
and ``ModelScorer.rank`` in traced and untraced runs alike; the same
wrappers check every loss and every ranking and, in a traced run, record
the ``meta.sample_tasks``, ``meta.query`` and ``evaluation.rank`` spans.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from metacsr import (autodiff, baselines, data, evaluation, experiments,
                     graph, losses, meta, metrics, params)
from metacsr.config import resolve_config
from metacsr.seeding import component_rng

from tracer import Patches
from worlds import ACCEPT6, ML1M_USERS, ml1m_world

N_NEG = 100                    # eval negatives: 101 candidates per user
FINE_TUNE_STEPS = 5
JOINT_BATCH = 320              # task_batch * n_way * k_query at ACCEPT6
ACCEPT6_MIN_STEPS = 50         # meta and joint steps before the AUC snapshot
ML1M_MIN_STEPS = 2
COLD_SERVE_NEW_USERS = 300
COLD_SERVE_TRAIN_STEPS = 10


class Meter:
    """Per-operation wall times and output checks, always installed."""

    def __init__(self, tracer, n_candidates):
        self.tracer = tracer
        self.n_candidates = n_candidates
        self.phase = "setup"
        self.steps: dict[str, list[float]] = {}
        self.joint_s: list[float] = []
        self.user_s: list[float] = []
        self.ranks: list[float] = []     # tie-aware rank of each positive
        self.positions: list[int] = []   # its place in the list order
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._patches = Patches()
        self._mark = None
        self._op = None
        self._saved_unit = None
        self._units = 0
        self._layer = None

    def install(self):
        self._patches.wrap(meta.MetaTrainer, "sample_tasks", self._sample)
        self._patches.wrap(meta.MetaTrainer, "outer_update", self._update)
        self._patches.wrap(evaluation.ModelScorer, "rank", self._rank)

    def uninstall(self):
        self._patches.restore()

    def _open(self, name, kind):
        if self.tracer is not None:
            self._units += 1
            self._saved_unit = self.tracer.unit
            self.tracer.unit = (kind, self._units)
            self._op = self.tracer.begin(name)

    def _close(self):
        if self.tracer is not None and self._op is not None:
            self.tracer.end(self._op)
            self.tracer.unit = self._saved_unit
            self._op = None

    def _begin(self, name):
        if self.tracer is not None:
            self._layer = self.tracer.begin(name)

    def _end(self):
        if self.tracer is not None and self._layer is not None:
            self.tracer.end(self._layer)
            self._layer = None

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def _sample(self, original):
        def sample_tasks(trainer, *args, **kwargs):
            self._open("op.meta_step", "step")
            self._mark = time.perf_counter()
            self._begin("meta.sample_tasks")
            try:
                return original(trainer, *args, **kwargs)
            finally:
                self._end()
        return sample_tasks

    def _update(self, original):
        def outer_update(trainer, *args, **kwargs):
            self._begin("meta.query")
            try:
                loss = original(trainer, *args, **kwargs)
            finally:
                self._end()
            self.steps.setdefault(self.phase, []).append(
                time.perf_counter() - self._mark)
            self._close()
            self.attempted += 1
            if not math.isfinite(loss):
                self.fail(f"{self.phase} step loss {loss}")
            return loss
        return outer_update

    def start_joint(self):
        self._open("op.joint_step", "joint")
        self._mark = time.perf_counter()

    def joint_step(self, step, loss):
        now = time.perf_counter()
        self.joint_s.append(now - self._mark)
        self._close()
        self.attempted += 1
        if not math.isfinite(loss):
            self.fail(f"joint step {step} loss {loss}")
        self._open("op.joint_step", "joint")
        self._mark = time.perf_counter()

    def finish_joint(self):
        self._close()

    def _rank(self, original):
        def rank(scorer, user, history, candidates):
            self._open("evaluation.rank", "user")
            start = time.perf_counter()
            try:
                ranked = original(scorer, user, history, candidates)
            finally:
                self.user_s.append(time.perf_counter() - start)
                self._close()
            self.attempted += 1
            problem = ranking_problem(ranked, candidates, self.n_candidates)
            if problem:
                self.fail(f"user {user}: {problem}")
            else:
                self.ranks.append(positive_rank(ranked, candidates[0]))
                self.positions.append(list_position(ranked, candidates[0]))
            return ranked
        return rank


def ranking_problem(ranked, candidates, n_candidates):
    """Why a ranking is invalid, or None: it must order every candidate
    exactly once by finite, non-increasing score."""
    items = [item for item, _ in ranked]
    scores = [score for _, score in ranked]
    if len(candidates) != n_candidates:
        return f"{len(candidates)} candidates, want {n_candidates}"
    if sorted(items) != sorted(candidates) or len(set(items)) != len(items):
        return "ranking is not a permutation of the candidates"
    if not all(math.isfinite(s) for s in scores):
        return "non-finite score"
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "scores increase down the ranking"
    return None


def positive_rank(ranked, positive):
    """1-based rank of the positive with ties counted half above and half
    below, the rank :func:`metacsr.metrics.auc_from_rank` expects."""
    scores = dict(ranked)
    mine = scores.pop(positive)
    above = sum(1 for s in scores.values() if s > mine)
    tied = sum(1 for s in scores.values() if s == mine)
    return 1 + above + 0.5 * tied


def list_position(ranked, positive):
    """1-based place of the positive in the list order that
    :mod:`metacsr.metrics` documents: descending score, ties by ascending
    item id."""
    order = sorted(ranked, key=lambda pair: (-pair[1], pair[0]))
    return 1 + [item for item, _ in order].index(positive)


@dataclass
class Outcome:
    """What a workload hands back besides the meter's timings."""

    setup_s: list[float] = field(default_factory=list)
    eval_s: float = 0.0
    cold_auc: dict[str, float] = field(default_factory=dict)
    timed_phase: str = "meta"
    primary: str = "step"          # operation the per-layer ms divide by
    evaluations: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)


class Workload:
    """Shared plumbing: set-up repetitions, timed phases, cold evaluation."""

    setup_reps = 3

    def __init__(self, seed, seconds, tracer, meter, workdir):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.meter = meter
        self.workdir = workdir
        self.out = Outcome()
        self._spans = 0

    def span(self, name, kind=None):
        if self.tracer is None:
            return nullcontext()
        self._spans += 1
        return self.tracer.span(name, (kind, self._spans) if kind else None)

    def setup(self, build):
        for _ in range(self.setup_reps):
            result = None     # free the previous set-up before the next
            with self.span("op.setup", "setup"):
                start = time.perf_counter()
                result = build()
                self.out.setup_s.append(time.perf_counter() - start)
        return result

    def meta_phase(self, trainer, min_steps):
        """Outer steps for ``seconds`` and at least ``min_steps``; returns
        (parameters after ``min_steps`` steps, steps run)."""
        self.meter.phase = "meta"
        snapshot = None
        step = 0
        start = time.perf_counter()
        while step < min_steps or time.perf_counter() - start < self.seconds:
            trainer.outer_update(trainer.sample_tasks(step), step)
            step += 1
            if step == min_steps:
                snapshot = trainer.params.clone()
        self.check_finite("meta", trainer.params)
        return snapshot, step

    def check_finite(self, label, model):
        for part in ("theta1", "theta2"):
            for name, value in getattr(model, part).items():
                if not np.all(np.isfinite(value)):
                    self.out.problems.append(
                        f"{label} {part}/{name} is not finite")

    def cold_eval(self, g, model, cfg, histories, n_items, train_seed):
        """Fine-tune and rank every cold user, as criterion 6 does; checks
        the report's AUC against the per-user positive ranks."""
        self.out.evaluations += 1
        first = len(self.meter.ranks)
        with self.span("op.eval", "eval"):
            start = time.perf_counter()
            features = losses.cached_item_features(
                g, model, component_rng(train_seed, "eval/features"))
            scorer = evaluation.ModelScorer(
                params=model, features=features, cfg=cfg,
                fine_tune_steps=FINE_TUNE_STEPS, seed=train_seed)
            report, per_user = evaluation.evaluate_model(
                scorer, histories, n_items, n_neg=N_NEG, seed=train_seed,
                top_n=[10], min_history=3)
            self.out.eval_s += time.perf_counter() - start
        self.check_auc(report.auc, first, per_user)
        return float(report.auc)

    def check_auc(self, auc, first, listed):
        """Checks the report against the rankings the scorer returned.

        ``listed`` holds the program's per-user (user, positive rank, AUC)
        rows. The report's AUC must equal the mean of ``auc_from_rank``
        over the positives' tie-aware ranks, the rank that function
        documents. Each listed rank must be the positive's place in the
        documented list order, and each listed AUC must equal
        ``auc_from_rank`` of its tie-aware rank; a user that breaks either
        fails. Where the positive ties a negative, its place and its
        tie-aware rank differ; how often is noted.
        """
        auc = float(auc)
        ranks = self.meter.ranks[first:]
        positions = self.meter.positions[first:]
        if len(ranks) != len(listed):
            self.out.problems.append(
                f"{len(ranks)} valid rankings for {len(listed)} users")
            return
        expected = float(np.mean([metrics.auc_from_rank(r, N_NEG + 1)
                                  for r in ranks]))
        if not math.isclose(auc, expected, rel_tol=1e-12, abs_tol=1e-12):
            self.out.problems.append(
                f"report AUC {auc!r} != mean auc_from_rank over the "
                f"tie-aware positive ranks {expected!r}")
        tied = 0
        for (user, rank, user_auc), tie_aware, position in zip(
                listed, ranks, positions):
            want = metrics.auc_from_rank(tie_aware, N_NEG + 1)
            if rank != position:
                self.meter.fail(f"user {user}: listed positive rank {rank}, "
                                f"list position {position}")
            elif not math.isclose(float(user_auc), want, rel_tol=1e-12,
                                  abs_tol=1e-12):
                self.meter.fail(f"user {user}: listed AUC {user_auc!r}, "
                                f"auc_from_rank({tie_aware}) {want!r}")
            tied += rank != tie_aware
        self.out.notes.append(
            f"cold eval {self.out.evaluations}: {len(listed)} users, "
            f"AUC {auc!r}; {tied} positives tie a negative, so their list "
            "position is not their tie-aware rank")

    def diffusion_probe(self, g, model):
        """Traced runs only: one diffusion-only tape, forward and backward,
        with the step's plan shape; estimates diffusion's share of the
        query tape, whose forward and backward the trace cannot split."""
        config = model.config
        with self.span("op.probe", "probe"):
            plan = graph.sample_neighbor_plan(
                g, config.neighbor_cap, config.diffusion_depth,
                component_rng(self.seed, "bench/probe-plan"))
            tape = autodiff.Tape()
            nodes = {k: tape.param(k, v) for k, v in model.theta1.items()}
            items = losses.item_feature_node(tape, g, nodes, config,
                                             plan=plan)
            weights = component_rng(self.seed, "bench/probe-weights").normal(
                size=(g.n_items, config.dim))
            loss = tape.sum(tape.mul(items, tape.constant(weights)))
            start = time.perf_counter()
            tape.forward()
            mid = time.perf_counter()
            tape.backward(loss)
            end = time.perf_counter()
        self.out.layer["graph.probe_forward_ms"] = 1000 * (mid - start)
        self.out.layer["graph.probe_backward_ms"] = 1000 * (end - mid)


class Accept6Train(Workload):
    """Criterion-6 fixture at reduced length: meta phase, joint phase with
    as many steps at batch 320, cold eval of the 60 new users for both."""

    setup_reps = 9    # a set-up takes ~0.5 s; more repetitions steady it

    def run(self):
        spec = data.SyntheticWorldSpec(**{
            **ACCEPT6["world"], "seed": ACCEPT6["world"]["seed"] + self.seed})
        train_seed = ACCEPT6["seed"] + self.seed
        model_cfg = params.ModelConfig(**ACCEPT6["model"])
        cfg = meta.MetaConfig(**ACCEPT6["meta"])

        def build():
            world = data.generate_synthetic_world(spec)
            regular, new = data.synthetic_split(world)
            edges = [(u, it) for u, items in regular.items() for it in items]
            g = graph.build_interaction_graph(edges, len(regular),
                                              spec.n_items)
            models = [params.init_model(g.n_entities, model_cfg,
                                        component_rng(train_seed, "init"))
                      for _ in range(2)]
            return regular, new, g, models

        regular, new, g, (meta_model, joint_model) = self.setup(build)
        trainer = meta.MetaTrainer(g, regular, meta_model, cfg, train_seed)
        meta_snapshot, steps = self.meta_phase(trainer, ACCEPT6_MIN_STEPS)

        snapshots = {}

        def on_step(step, loss):
            self.meter.joint_step(step, loss)
            if step + 1 == ACCEPT6_MIN_STEPS:
                snapshots["joint"] = joint_model.clone()

        self.meter.phase = "joint"
        self.meter.start_joint()
        baselines.joint_train(g, regular, joint_model, cfg, train_seed,
                              max_steps=steps, batch_size=JOINT_BATCH,
                              on_step=on_step)
        self.meter.finish_joint()
        self.check_finite("joint", joint_model)

        self.out.cold_auc["meta"] = self.cold_eval(
            g, meta_snapshot, cfg, new, spec.n_items, train_seed)
        self.out.cold_auc["joint"] = self.cold_eval(
            g, snapshots["joint"], cfg, new, spec.n_items, train_seed)
        if self.tracer is not None:
            self.diffusion_probe(g, meta_model)
        return self.out


class Ml1mTrain(Workload):
    """ML-1M-shaped graph, ``full`` profile model, ACCEPT6 episodes; the
    timed outer steps are the whole workload."""

    def run(self):
        train_seed = self.seed
        model_cfg = resolve_config(None, {"profile": "full"}).model
        cfg = meta.MetaConfig(**ACCEPT6["meta"])

        def build():
            with self.span("data.world"):
                world = ml1m_world(self.seed)
            edges = [(u, it) for u, items in world.regular.items()
                     for it in items]
            g = graph.build_interaction_graph(edges, ML1M_USERS,
                                              world.n_items)
            model = params.init_model(g.n_entities, model_cfg,
                                      component_rng(train_seed, "init"))
            return world, g, model

        world, g, model = self.setup(build)
        self.out.notes.append(
            f"world users {len(world.regular)} items {world.n_items} "
            f"edges {world.n_edges} min_degree "
            f"{min(len(h) for h in world.regular.values())} "
            f"entities {g.n_entities}")
        trainer = meta.MetaTrainer(g, world.regular, model, cfg, train_seed)
        self.meta_phase(trainer, ML1M_MIN_STEPS)
        if self.tracer is not None:
            self.diffusion_probe(g, model)
        return self.out


class ColdServe(Workload):
    """The CLI path: prepare and a short train in set-up, then the timed
    ``run_evaluate`` cold scenario over ``COLD_SERVE_NEW_USERS`` users."""

    setup_reps = 5

    def run(self):
        train_seed = ACCEPT6["seed"] + self.seed
        overrides = {"seed": train_seed,
                     "out_dir": str(self.workdir / "run"),
                     "data.eval_negatives": N_NEG,
                     "meta.fine_tune_steps": FINE_TUNE_STEPS}
        world = {**ACCEPT6["world"], "seed": ACCEPT6["world"]["seed"]
                 + self.seed, "n_new": COLD_SERVE_NEW_USERS}
        overrides.update({f"data.synthetic.{k}": v for k, v in world.items()})
        overrides.update({f"model.{k}": v
                          for k, v in ACCEPT6["model"].items()})
        overrides.update({f"meta.{k}": v for k, v in ACCEPT6["meta"].items()})
        config = resolve_config(None, overrides)

        def build():
            experiments.run_prepare(config)
            return experiments.run_train(
                config, max_steps=COLD_SERVE_TRAIN_STEPS, quiet=True)

        ckpt = self.setup(build)
        first = len(self.meter.ranks)
        self.out.timed_phase = "setup"
        self.out.primary = "user"
        self.out.layer["checkpoint.bytes"] = float(ckpt.stat().st_size)
        self.out.evaluations += 1
        with self.span("op.eval", "eval"):
            start = time.perf_counter()
            report_path = experiments.run_evaluate(config)
            self.out.eval_s = time.perf_counter() - start
        report = json.loads(report_path.read_text(encoding="utf-8"))
        per_user = report_path.parent / "per_user_cold_metaCSR.csv"
        with per_user.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        if report["users"] != COLD_SERVE_NEW_USERS or \
                len(rows) != COLD_SERVE_NEW_USERS:
            self.out.problems.append(
                f"report covers {report['users']} users, per-user file "
                f"{len(rows)}, want {COLD_SERVE_NEW_USERS}")
        self.check_auc(report["auc"], first,
                       [(int(r["user"]), int(r["positive_rank"]),
                         csv_float(r["auc"])) for r in rows])
        self.out.cold_auc["meta"] = float(report["auc"])
        return self.out


def csv_float(text):
    """A float the per-user file wrote with ``repr``, which for a numpy
    scalar reads ``np.float64(x)``."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


WORKLOADS = {
    "accept6-train": Accept6Train,
    "ml1m-train": Ml1mTrain,
    "cold-serve": ColdServe,
}


def tail_percentile(values):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it,
    as (label, value), or None."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n - math.ceil(n * p / 100) >= 10:
            return f"p{p}", float(np.percentile(values, p))
    return None


def end_to_end(meter, out, import_s, peak_rss_mb):
    """Every end-to-end figure the run measures, as name -> (value, unit).

    BENCHMARK.json gates the subset that holds still from run to run on a
    VM whose speed drifts between a fast and a slow state: set-up, the p90
    latency of the workload's own operation (every run spends some time
    in the slow state) and memory. The rest is printed for reading.
    """
    steps = meter.steps.get(out.timed_phase, [])
    users = meter.user_s
    ops = users if out.primary == "user" else steps
    figures = {
        "setup_s": (import_s + statistics.median(out.setup_s), "s"),
        "op_ms_p90": (1000 * float(np.percentile(ops, 90)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "train_steps_per_s": (len(steps) / sum(steps), "1/s"),
        "train_step_ms_p50": (1000 * statistics.median(steps), "ms"),
        "train_step_ms_p90": (1000 * float(np.percentile(steps, 90)), "ms"),
    }
    if users:
        figures.update({
            "eval_s": (out.eval_s, "s"),
            "eval_users_per_s": (len(users) / sum(users), "1/s"),
            "eval_user_ms_p50": (1000 * statistics.median(users), "ms"),
            "eval_user_ms_p90": (1000 * float(np.percentile(users, 90)),
                                 "ms"),
        })
    if meter.joint_s:
        figures["joint_steps_per_s"] = (
            len(meter.joint_s) / sum(meter.joint_s), "1/s")
    for model, auc in out.cold_auc.items():
        figures[f"cold_auc_{model}"] = (auc, "AUC")
    figures["failed_share"] = (meter.failed / meter.attempted, "ratio")
    return figures
