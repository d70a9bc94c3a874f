"""Episodic meta-training and meta-test adaptation.

Training alternates an inner loop and an outer loop. The inner loop adapts
only the sequence-encoder weights (theta2) to each task's support set with
plain SGD; the entity embeddings and diffusion weights (theta1) are shared
across users and stay frozen during adaptation. The outer loop evaluates
each task's query set at its adapted weights and applies one Adam step with
decoupled weight decay to both partitions.

The meta-gradient is first-order by default (the inner update is treated
as a stop-gradient). Exact mode takes the same step and adds each task's
second-order correction of the bilevel derivative, from central finite
differences of the support gradient along the task's query gradient
(Hessian-vector and cross products); it is meant for tiny models, supports
a single inner step, and makes the first-order approximation auditable.

Each outer step runs the item-feature pass once. Every loss that needs
theta1 gradients goes through :func:`query_grads`, which reads the
features as a param of its tape and pushes that param's gradient back
through the pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .autodiff import Tape
from .data import BehaviorSequence, usable_sequence_count, window_sequence
from .seeding import component_rng

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WINDOW_STEPS = 20
PLATEAU_TOL = 1e-4
HVP_SCALE = 1e-5    # finite-difference radius per unit of (1 + |theta2|)
# the query tape's feature-table param; no "{b}/{name}" theta2 param has it
FEATURES = "item_features"
# numbers per block of an Adam step: its two buffers stay in cache
ADAM_BLOCK_FLOATS = 32768


@dataclass
class MetaConfig:
    inner_lr: float = 1e-4
    outer_lr: float = 1e-2
    inner_steps: int = 1
    weight_decay: float = 5e-4
    task_batch: int = 16
    n_way: int = 15
    k_support: int = 5
    k_query: int = 15
    order: str = "first"            # "first" | "exact"
    max_outer_steps: int = 2000
    k_neg: int = 1
    plateau_windows: int = 5
    fine_tune_steps: int = 5
    fine_tune_lr: float | None = None

    def validate(self):
        # inner_lr may be 0 (for diagnostics); a null fine_tune_lr is inner_lr
        for name, value in (("inner_lr", self.inner_lr),
                            ("outer_lr", self.outer_lr),
                            ("weight_decay", self.weight_decay),
                            ("fine_tune_lr", self.adaptation_lr)):
            low = ">" if name == "outer_lr" else ">="
            if not (value > 0 or value == 0 and low == ">=") \
                    or not np.isfinite(value):
                raise ValueError(f"meta.{name} must be a finite number "
                                 f"{low} 0, not {value!r}")
        if self.order not in ("first", "exact"):
            raise ValueError(f"unknown meta-gradient order {self.order!r}")
        if min(self.task_batch, self.n_way, self.k_support, self.k_query,
               self.k_neg, self.inner_steps) < 1:
            raise ValueError("episode sizes must be positive")
        if self.order == "exact" and self.inner_steps != 1:
            raise ValueError("meta.order='exact' supports meta.inner_steps=1 "
                             f"only, not {self.inner_steps!r}")
        for name, low in (("fine_tune_steps", 0), ("max_outer_steps", 0),
                          ("plateau_windows", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"meta.{name} must be >= {low}, not "
                                 f"{getattr(self, name)!r}")

    @property
    def adaptation_lr(self) -> float:
        return self.inner_lr if self.fine_tune_lr is None else self.fine_tune_lr


@dataclass(frozen=True)
class MetaTask:
    users: tuple[int, ...]
    support: tuple[BehaviorSequence, ...]
    query: tuple[BehaviorSequence, ...]


def eligible_users(histories, cfg, t_min=2):
    """Sorted users with at least k_support + k_query usable sequences."""
    return sorted(u for u, h in histories.items() if usable_sequence_count(
        len(h), t_min) >= cfg.k_support + cfg.k_query)


def sample_task(histories, eligible, cfg, rng, t_min=2,
                t_max=10) -> MetaTask:
    """One episode: n_way users, disjoint support/query windows per user.

    A user's candidate sequences are keyed by target position, so support
    and query never share a target. Users are drawn from ``eligible``, the
    list :func:`eligible_users` gives for ``histories``.
    """
    need = cfg.k_support + cfg.k_query
    if len(eligible) < cfg.n_way:
        raise ValueError(
            f"need {cfg.n_way} users with >= {need} usable sequences, "
            f"only {len(eligible)} eligible")
    picked = sorted(rng.choice(len(eligible), size=cfg.n_way, replace=False))
    support = []
    query = []
    users = []
    for idx in picked:
        user = eligible[idx]
        users.append(user)
        history = histories[user]
        chosen = rng.choice(len(history) - t_min, size=need, replace=False)
        windows = window_sequence(history, t_min, t_max, rng, user=user,
                                  targets=chosen + t_min)
        support += windows[: cfg.k_support]
        query += windows[cfg.k_support:]
    return MetaTask(users=tuple(users), support=tuple(support),
                    query=tuple(query))


@dataclass
class AdamState:
    first: dict[str, np.ndarray] = field(default_factory=dict)
    second: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def apply(self, params, grads, cfg):
        """One Adam step with decoupled weight decay, in place.

        Bit for bit ``m += (1 - b1) * (g - m)``, ``v += (1 - b2) * (g * g
        - v)``, ``value -= lr * ((m / c1) / (sqrt(v / c2) + eps))`` and
        ``value -= lr * wd * value``, computed in blocks of rows through
        two buffers of about ``ADAM_BLOCK_FLOATS`` numbers each, so no
        temporary of a parameter's size is made."""
        self.step += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.step
        correct2 = 1.0 - ADAM_BETA2 ** self.step
        lr, decay = cfg.outer_lr, cfg.outer_lr * cfg.weight_decay
        for name, value in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(value)
            m = self.first.setdefault(name, np.zeros_like(value))
            v = self.second.setdefault(name, np.zeros_like(value))
            rows = max(1, ADAM_BLOCK_FLOATS // max(1, value[:1].size))
            buffers = np.empty((2, min(rows, len(value)), *value.shape[1:]))
            for lo in range(0, len(value), rows):
                block = slice(lo, lo + rows)
                w, gb, mb, vb = value[block], g[block], m[block], v[block]
                a, b = buffers[:, : len(w)]
                np.subtract(gb, mb, out=a)
                a *= 1.0 - ADAM_BETA1
                mb += a
                np.multiply(gb, gb, out=a)
                a -= vb
                a *= 1.0 - ADAM_BETA2
                vb += a
                np.divide(vb, correct2, out=a)
                np.sqrt(a, out=a)
                a += ADAM_EPS
                np.divide(mb, correct1, out=b)
                b /= a
                b *= lr
                w -= b
                if cfg.weight_decay:
                    w -= np.multiply(w, decay, out=b)


def query_grads(features, batches, cfg, histories, model_config):
    """Summed batch loss over one item-feature pass, with its gradients.

    ``features`` is a :class:`losses.ItemFeatures`; ``batches`` holds
    (theta2, sequences, rng) triples, one batch loss each, all on one tape
    that reads the table as the param ``FEATURES``. Returns (loss, theta1
    gradients from that param's gradient pushed through the pass, one
    theta2 gradient mapping per batch, zero where none reach). The query
    tape is freed before the push, so the two backwards never hold both
    tapes.
    """
    tape = Tape()
    table = tape.param(FEATURES, features.value)
    total = None
    for b, (theta2, sequences, rng) in enumerate(batches):
        nodes = {name: tape.param(f"{b}/{name}", value)
                 for name, value in theta2.items()}
        loss = losses.build_batch_loss(
            tape, table, nodes, list(sequences), cfg.k_neg, rng,
            histories, features.value.shape[0],
            use_sequence=model_config.use_sequence)
        total = loss if total is None else tape.add(total, loss)
    tape.forward()
    grads = tape.backward(total)
    g2 = [{name: grads[key] if (key := f"{b}/{name}") in grads
           else np.zeros_like(value) for name, value in theta2.items()}
          for b, (theta2, _, _) in enumerate(batches)]
    value = float(total.value)
    del tape, table, total, loss, nodes     # every reference to the tape
    return value, features.theta1_grads(grads.pop(FEATURES)), g2


def sum_grads(grads):
    """Per-name sum of gradient mappings, in order, starting from zeros."""
    return {name: sum((g[name] for g in grads), np.zeros_like(value))
            for name, value in grads[0].items()}


def sgd_theta2(params, support, features, cfg, rng, histories, steps,
               lr) -> dict[str, np.ndarray]:
    """``steps`` SGD updates of a copy of theta2 on support sequences
    against the frozen (n_items, d) table ``features``, negatives outside
    each user's ``histories`` entry; theta1 and ``params`` untouched."""
    theta2 = {k: v.copy() for k, v in params.theta2.items()}
    if steps == 0 or not support:
        return theta2
    tape = Tape()
    nodes = {name: tape.param(name, value) for name, value in theta2.items()}
    loss = losses.build_batch_loss(
        tape, tape.constant(features), nodes, list(support), cfg.k_neg, rng,
        histories, features.shape[0], use_sequence=params.config.use_sequence)
    for _ in range(steps):
        tape.forward()
        grads = tape.backward(loss)
        for name in theta2:
            g = grads.get(name)
            if g is not None:
                theta2[name] = theta2[name] - lr * g
                tape.set_param(name, theta2[name])
    return theta2


def inner_adapt(params, support, cfg, features, rng,
                histories) -> dict[str, np.ndarray]:
    """Meta-training adaptation: ``cfg.inner_steps`` SGD steps on a task's
    support set against the table computed from theta1 once per step."""
    steps = cfg.inner_steps if cfg.inner_lr else 0
    return sgd_theta2(params, support, features, cfg, rng, histories, steps,
                      cfg.inner_lr)


def bilevel_correction(theta2, direction, support_grads, inner_lr):
    """Second-order terms of the meta-gradient through one SGD step.

    With adapted weights ``theta2 - inner_lr * g_s(theta2)`` and the query
    gradient ``direction`` taken there, the exact meta-gradient is the
    first-order one plus the (theta1, theta2) mappings returned here:
    ``-inner_lr`` times the support gradient's derivative along
    ``direction`` (its Hessian-vector product in theta2 and its cross
    theta1 term), from central differences of
    ``support_grads(theta2) -> (g1, g2)``. Returns None when the terms
    vanish: a zero inner rate or a zero direction.
    """
    vnorm = np.sqrt(sum(float((g * g).sum()) for g in direction.values()))
    if vnorm < 1e-12 or inner_lr == 0.0:
        return None
    pnorm = np.sqrt(sum(float((p * p).sum()) for p in theta2.values()))
    r = HVP_SCALE * (1.0 + pnorm) / vnorm
    hi1, hi2 = support_grads({k: theta2[k] + r * direction[k] for k in theta2})
    lo1, lo2 = support_grads({k: theta2[k] - r * direction[k] for k in theta2})
    return ({k: -(inner_lr * (hi1[k] - lo1[k]) / (2 * r)) for k in hi1},
            {k: -(inner_lr * (hi2[k] - lo2[k]) / (2 * r)) for k in hi2})


class MetaTrainer:
    """Drives episodic training over regular-user histories."""

    def __init__(self, graph_, histories, params, cfg, seed):
        cfg.validate()
        self.graph = graph_
        self.histories = histories
        self.params = params
        self.cfg = cfg
        self.seed = seed
        self.eligible = eligible_users(histories, cfg, params.config.t_min)
        self.adam = AdamState()

    def _rng(self, kind, step, task=None):
        """Per-(phase, step, task) stream so gradient modes and execution
        order cannot change which negatives or windows are drawn."""
        suffix = f"/{task}" if task is not None else ""
        return component_rng(self.seed, f"meta/{kind}/{step}{suffix}")

    def sample_tasks(self, step=0):
        config = self.params.config
        rng = self._rng("tasks", step)
        return [sample_task(self.histories, self.eligible, self.cfg, rng,
                            config.t_min, config.t_max)
                for _ in range(self.cfg.task_batch)]

    # --------------------------------------------------------- outer loop

    def outer_update(self, tasks, step=0):
        """Adapt every task, then one Adam step on the summed query loss.

        Returns the mean per-task query loss. The item features come from
        one pass per step with a fresh neighbor plan. Every task adapts
        against its value, and every task's query loss goes on one tape.
        Exact mode then adds each task's bilevel correction, whose support
        evaluations reuse the same pass.
        """
        features = losses.ItemFeatures(self.graph, self.params,
                                       self._rng("neighbor-plan", step))
        batches = [
            (inner_adapt(self.params, task.support, self.cfg, features.value,
                         self._rng("support-neg", step, t), self.histories),
             task.query, self._rng("query-neg", step, t))
            for t, task in enumerate(tasks)
        ]
        loss, g1, g2 = query_grads(features, batches, self.cfg,
                                   self.histories, self.params.config)
        if self.cfg.order == "exact":
            for t, task in enumerate(tasks):
                def support_grads(theta2, t=t, task=task):
                    # a fresh stream draws the adaptation's negatives again
                    _, s1, (s2,) = query_grads(
                        features, [(theta2, task.support,
                                    self._rng("support-neg", step, t))],
                        self.cfg, self.histories, self.params.config)
                    return s1, s2

                terms = bilevel_correction(self.params.theta2, g2[t],
                                           support_grads, self.cfg.inner_lr)
                if terms is not None:
                    c1, c2 = terms
                    g1 = {k: g1[k] + c1[k] for k in g1}
                    g2[t] = {k: g2[t][k] + c2[k] for k in g2[t]}
        del features    # release the pass's forward values before Adam
        self.adam.apply(self.params.theta1, g1, self.cfg)
        self.adam.apply(self.params.theta2, sum_grads(g2), self.cfg)
        return loss / len(tasks)

    # --------------------------------------------------------- train loop

    def train(self, max_steps=None, on_step=None):
        """Run outer steps until plateau or the step cap; returns the trace.

        The trace holds (step, mean task query loss). Convergence: no
        window-mean improvement beyond ``PLATEAU_TOL`` for
        ``plateau_windows`` consecutive windows of ``WINDOW_STEPS`` steps.
        A negative ``max_steps`` is a ValueError.
        """
        cap = self.cfg.max_outer_steps if max_steps is None else max_steps
        if cap < 0:
            raise ValueError(f"max_steps must be >= 0, not {cap!r}")
        trace = []
        window: list[float] = []
        best = np.inf
        stale = 0
        for step in range(cap):
            tasks = self.sample_tasks(step)
            loss = self.outer_update(tasks, step)
            trace.append((step, loss))
            if on_step:
                on_step(step, loss)
            window.append(loss)
            if len(window) >= WINDOW_STEPS:
                mean = float(np.mean(window))
                window.clear()
                if best - mean > PLATEAU_TOL:
                    best = mean
                    stale = 0
                else:
                    stale += 1
                    if stale >= self.cfg.plateau_windows:
                        log.info("query loss plateaued at step %d", step)
                        break
        return trace


def fine_tune_theta2(params, support, features, cfg, rng, histories,
                     steps) -> dict[str, np.ndarray]:
    """Meta-test adaptation: ``steps`` SGD updates on a new user's support
    sequences at ``cfg.adaptation_lr``."""
    return sgd_theta2(params, support, features, cfg, rng, histories, steps,
                      cfg.adaptation_lr)
