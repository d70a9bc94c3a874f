"""Per-layer metrics of a traced run, computed from its spans.

Times are self times unless noted: a span's duration minus its child
spans. ``_ms`` metrics of the step-driven layers divide by the workload's
primary operation (a meta outer step on the train workloads, a ranked
user on ``cold-serve``); the per-user layers divide by ranked users; the
``phase.*`` metrics are inclusive times per meta outer step and repeat the
hand-built breakdown of ROADMAP item 1.
"""

from __future__ import annotations

import statistics

from tracer import layer_totals

# layers timed per primary operation: metric name -> span name
PER_OPERATION = {
    "autodiff.forward_ms": "autodiff.forward",
    "autodiff.backward_ms": "autodiff.backward",
    "graph.plan_ms": "graph.plan",
    "graph.build_ms": "graph.build",
    "losses.build_ms": "losses.build",
    "losses.negatives_ms": "losses.negatives",
    "meta.sample_tasks_ms": "meta.sample_tasks",
    "meta.inner_adapt_ms": "meta.inner_adapt",
    "meta.adam_ms": "meta.adam",
    "meta.query_ms": "meta.query",
    "data.windows_ms": "data.windows",
}
# layers timed per ranked user (their spans sit in users or evaluations)
PER_USER = {
    "sequence.encode_ms": "sequence.encode",
    "sequence.score_ms": "sequence.score",
    "meta.fine_tune_ms": "meta.fine_tune",
    "data.candidates_ms": "data.candidates",
    "evaluation.rank_ms": "evaluation.rank",
}
# inclusive time per call: metric name -> (span name, scale)
PER_CALL = {
    "graph.diffuse_all_ms": ("graph.diffuse_all", 1000.0),
    "metrics.report_ms": ("metrics.report", 1000.0),
    "params.init_ms": ("params.init", 1000.0),
    "checkpoint.save_ms": ("checkpoint.save", 1000.0),
    "checkpoint.load_ms": ("checkpoint.load", 1000.0),
    "experiments.prepare_s": ("experiments.prepare", 1.0),
    "experiments.train_s": ("experiments.train", 1.0),
}
# inclusive time per set-up repetition
PER_SETUP = {
    "data.world_s": "data.world",
    "graph.build_graph_s": "graph.build_graph",
}
OP_SPAN = {"step": "op.meta_step", "user": "evaluation.rank"}


def layer_metrics(tracer, meter, out, setup_reps):
    """Every per-layer metric as name -> value (0 where a layer is idle)."""
    incl, own, calls = layer_totals(tracer)
    primary = out.primary
    n_primary = len(meter.user_s) if primary == "user" \
        else len(meter.steps.get("meta", []))
    n_users = len(meter.user_s)
    n_steps = sum(len(v) for v in meter.steps.values())

    def total(table, name, kinds=None, role=None):
        return sum(v for (kind, span, r), v in table.items()
                   if span == name and r == role
                   and (kinds is None or kind in kinds))

    def ratio(a, b):
        return a / b if b else 0.0

    result = {}
    for metric, span in PER_OPERATION.items():
        result[metric] = ratio(1000 * total(own, span, {primary}), n_primary)
    for metric, span in PER_USER.items():
        result[metric] = ratio(1000 * total(own, span, {"user", "eval"}),
                               n_users)
    for metric, (span, scale) in PER_CALL.items():
        result[metric] = ratio(scale * total(incl, span), total(calls, span))
    for metric, span in PER_SETUP.items():
        result[metric] = ratio(total(incl, span, {"setup"}), setup_reps)

    tapes = [t for t in tracer.tapes.values()
             if t.get("first_unit") and t["first_unit"][0] == primary]
    result["autodiff.nodes_per_step"] = ratio(
        sum(t["nodes"] for t in tapes), n_primary)
    result["autodiff.lookup_nodes_per_step"] = ratio(
        sum(t["lookups"] for t in tapes), n_primary)
    result["graph.diffusion_nodes"] = ratio(
        sum(t["diffusion_nodes"] for t in tapes),
        total(calls, "graph.build", {primary}))
    result["losses.nodes_per_batch"] = ratio(
        sum(t["loss_nodes"] for t in tapes),
        total(calls, "losses.build", {primary}))
    result["graph.diffusion_forwards_per_step"] = ratio(
        sum(total(calls, "autodiff.forward", {primary}, role)
            for role in ("features", "model")), n_primary)

    probe_fwd = out.layer.get("graph.probe_forward_ms", 0.0)
    probe_bwd = out.layer.get("graph.probe_backward_ms", 0.0)
    result["graph.probe_forward_ms"] = probe_fwd
    result["graph.probe_backward_ms"] = probe_bwd

    def phase(*parts):
        return ratio(1000 * sum(total(table, span, {"step"}, role)
                                for table, span, role in parts), n_steps)

    result["phase.sample_tasks_ms"] = phase((incl, "meta.sample_tasks", None))
    result["phase.plan_ms"] = phase((incl, "graph.plan", None))
    result["phase.features_ms"] = phase(
        (incl, "graph.build", "features"),
        (incl, "autodiff.forward", "features"))
    result["phase.inner_adapt_ms"] = phase((incl, "meta.inner_adapt", None))
    result["phase.query_build_ms"] = phase(
        (own, "meta.query", None), (incl, "graph.build", "model"),
        (incl, "losses.build", "model"))
    result["phase.query_forward_ms"] = phase(
        (incl, "autodiff.forward", "model"))
    result["phase.query_backward_ms"] = phase(
        (incl, "autodiff.backward", "model"))
    result["phase.adam_ms"] = phase((incl, "meta.adam", None))
    result["phase.step_ms"] = phase((incl, "op.meta_step", None))

    # diffusion inside one primary operation: plan, both builds, the
    # feature-pass forward, and the probe's estimate of the query tape's
    # diffusion forward and backward (those share one tape with the rest)
    op_ms = 1000 * ratio(total(incl, OP_SPAN[primary], {primary}), n_primary)
    diffusion_ms = (result["graph.plan_ms"] + result["graph.build_ms"]
                    + ratio(1000 * total(incl, "autodiff.forward", {primary},
                                         "features"), n_primary))
    if primary == "step":
        # the probe runs once, outside the steps, and can land in a slower
        # stretch than they did; diffusion cannot take longer than the
        # query tape's own forward and backward
        diffusion_ms += (min(probe_fwd, result["phase.query_forward_ms"])
                         + min(probe_bwd, result["phase.query_backward_ms"]))
    result["graph.diffusion_share"] = ratio(diffusion_ms, op_ms)

    result["baselines.joint_step_ms"] = \
        1000 * statistics.mean(meter.joint_s) if meter.joint_s else 0.0
    result["checkpoint.bytes"] = out.layer.get("checkpoint.bytes", 0.0)
    result["trace.unattributed_share"] = ratio(
        total(own, OP_SPAN[primary], {primary}),
        total(incl, OP_SPAN[primary], {primary}))
    result["trace.eval_unattributed_share"] = ratio(
        total(own, "op.eval", {"eval"}), total(incl, "op.eval", {"eval"}))
    return result
