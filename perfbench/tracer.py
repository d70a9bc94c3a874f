"""Layer-boundary tracing, recorded from outside the program.

A :class:`Tracer` replaces public functions of metacsr, at the attribute
each caller looks up, with wrappers that record one span per call: name,
start, end, parent span, the operation it belongs to (a meta step, a joint
step, a ranked user, ...) and, for tape work, which tape it touched. Spans
stay in memory; :meth:`Tracer.write` dumps them when the run ends.
:func:`self_times` turns them into per-layer self times: a span's duration
minus the part its child spans cover.

Several modules import functions by name, so a function is wrapped at
every name a caller looks up (``meta.window_sequence`` and
``baselines.window_sequence`` are two attributes bound to one function).
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict

NAME, START, END, PARENT, UNIT, TAPE = range(6)


class Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, unit, tape]
        self.unit = None           # (kind, id) of the current operation
        self.tapes = {}            # tape id -> {"nodes", "lookups", ...}
        self._stack = []
        self._tape_ids = weakref.WeakKeyDictionary()
        self._patches = Patches()

    # ---------------------------------------------------------------- spans

    def begin(self, name, tape=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.unit, tape])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out "
                               f"of order (open: {self.spans[popped][NAME]})")

    def span(self, name, unit=None):
        return _Span(self, name, unit)

    def tape_id(self, tape):
        tid = self._tape_ids.get(tape)
        if tid is None:
            tid = len(self.tapes)
            self._tape_ids[tape] = tid
            self.tapes[tid] = {"diffusion_nodes": 0, "loss_nodes": 0,
                               "nodes": 0, "lookups": 0, "forwards": 0}
        return tid

    # ------------------------------------------------------------- wrapping

    def install(self):
        """Wrap the public functions each layer's callers reach.

        ``MetaTrainer.sample_tasks``/``outer_update`` and
        ``ModelScorer.rank`` are left to the benchmark's meter, which
        wraps them in every run and opens their spans here when traced.
        """
        from metacsr import (autodiff, baselines, checkpoint, data,
                             evaluation, experiments, graph, losses, meta,
                             metrics, params, sequence)
        plain = [
            (graph, "sample_neighbor_plan", "graph.plan"),
            (graph, "diffuse_all", "graph.diffuse_all"),
            (graph, "build_interaction_graph", "graph.build_graph"),
            (losses, "sample_negatives", "losses.negatives"),
            (sequence, "encode_sequence", "sequence.encode"),
            (sequence, "score_candidates", "sequence.score"),
            (meta, "window_sequence", "data.windows"),
            (baselines, "window_sequence", "data.windows"),
            (evaluation, "build_eval_candidates", "data.candidates"),
            (data, "generate_synthetic_world", "data.world"),
            (meta, "inner_adapt", "meta.inner_adapt"),
            (meta, "fine_tune_theta2", "meta.fine_tune"),
            (meta.AdamState, "apply", "meta.adam"),
            (metrics, "build_report", "metrics.report"),
            (params, "init_model", "params.init"),
            (experiments, "init_model", "params.init"),
            (checkpoint, "save_model", "checkpoint.save"),
            (checkpoint, "load_model", "checkpoint.load"),
            (experiments, "run_prepare", "experiments.prepare"),
            (experiments, "run_train", "experiments.train"),
        ]
        for owner, attr, name in plain:
            self._patches.wrap(owner, attr, self._plain(name))
        self._patches.wrap(graph, "build_diffusion",
                           self._tape_build("graph.build", "diffusion_nodes"))
        self._patches.wrap(losses, "build_batch_loss",
                           self._tape_build("losses.build", "loss_nodes"))
        self._patches.wrap(autodiff.Tape, "forward", self._forward())
        self._patches.wrap(autodiff.Tape, "backward",
                           self._tape_call("autodiff.backward"))

    def uninstall(self):
        self._patches.restore()

    def _plain(self, name):
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(index)
            return traced
        return make

    def _tape_build(self, name, counter):
        """Functions that append to a tape: count the nodes each call adds."""
        tracer = self

        def make(original):
            def traced(tape, *args, **kwargs):
                tid = tracer.tape_id(tape)
                before = len(tape.nodes)
                index = tracer.begin(name, tid)
                try:
                    return original(tape, *args, **kwargs)
                finally:
                    tracer.end(index)
                    tracer.tapes[tid][counter] += len(tape.nodes) - before
            return traced
        return make

    def _tape_call(self, name):
        tracer = self

        def make(original):
            def traced(tape, *args, **kwargs):
                index = tracer.begin(name, tracer.tape_id(tape))
                try:
                    return original(tape, *args, **kwargs)
                finally:
                    tracer.end(index)
            return traced
        return make

    def _forward(self):
        """Tape.forward: also counts each tape's nodes on first forward."""
        tracer = self
        call = self._tape_call("autodiff.forward")

        def make(original):
            timed = call(original)

            def traced(tape, *args, **kwargs):
                info = tracer.tapes[tracer.tape_id(tape)]
                if not info["forwards"]:
                    info["nodes"] = len(tape.nodes)
                    info["lookups"] = sum(1 for n in tape.nodes
                                          if n.op == "lookup")
                    info["first_unit"] = tracer.unit
                info["forwards"] += 1
                return timed(tape, *args, **kwargs)
            return traced
        return make

    # -------------------------------------------------------------- output

    def write(self, path, summary):
        """Dump spans (times relative to the first span) and the summary."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - origin, s[END] - origin, s[PARENT],
                 list(s[UNIT]) if s[UNIT] else None, s[TAPE]]
                for s in self.spans]
        doc = {"columns": ["name", "start_s", "end_s", "parent", "unit",
                           "tape"],
               "spans": rows, "tapes": self.tapes, "summary": summary}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Span:
    def __init__(self, tracer, name, unit):
        self.tracer = tracer
        self.name = name
        self.unit = unit

    def __enter__(self):
        self.saved = self.tracer.unit
        if self.unit is not None:
            self.tracer.unit = self.unit
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        self.tracer.unit = self.saved
        return False


def self_times(spans):
    """Per-span (inclusive, self) durations in seconds."""
    inclusive = [s[END] - s[START] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            covered[s[PARENT]] += inclusive[i]
    return inclusive, [inc - cov for inc, cov in zip(inclusive, covered)]


def layer_totals(tracer):
    """Sum spans by (unit kind, name, tape role): inclusive and self seconds.

    A tape's role is ``features`` when it holds only diffusion nodes (the
    inner-loop feature pass), ``model`` when it holds diffusion and a
    batch loss (the query or joint tape), ``loss`` for a loss over fixed
    features (inner adaptation, fine-tuning) and ``other`` otherwise.
    """
    inclusive, own = self_times(tracer.spans)
    incl = defaultdict(float)
    self_ = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(tracer.spans):
        kind = s[UNIT][0] if s[UNIT] else None
        role = tape_role(tracer.tapes[s[TAPE]]) if s[TAPE] is not None \
            else None
        for key in ((kind, s[NAME], None), (kind, s[NAME], role)):
            incl[key] += inclusive[i]
            self_[key] += own[i]
            calls[key] += 1
            if role is None:
                break
    return incl, self_, calls


def tape_role(info):
    if info["diffusion_nodes"] and info["loss_nodes"]:
        return "model"
    if info["diffusion_nodes"]:
        return "features"
    if info["loss_nodes"]:
        return "loss"
    return "other"
