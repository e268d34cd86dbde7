"""Span tracer for the traced benchmark run.

The tracer wraps library functions at their import sites (module globals of
``bayesmeta`` submodules and of the benchmark's own ``workloads`` module), the
three validating constructors of ``vi_core``, and the oracle methods of the
workload's model instance. Nothing under ``src/`` is edited; ``uninstall``
puts every original back.

Each span records its name, start, end, parent span and op id in flat arrays
held in memory; ``save`` writes them out when the run ends. A span's self time
is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import itertools
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import bayesmeta.hyper_implicit as hyper_implicit
import bayesmeta.hyper_unrolled as hyper_unrolled
import bayesmeta.inner_opt as inner_opt
import bayesmeta.meta_driver as meta_driver
import bayesmeta.meta_loss as meta_loss
import bayesmeta.models as models
import bayesmeta.vi_core as vi_core

import workloads

SETUP_OP = -1   # op id of spans recorded while a workload is set up
FINISH_OP = -2  # op id of spans recorded after the timed ops

# (module, attribute, span name); the span name's prefix is its layer.
FUNCTION_SITES = [
    (workloads, "meta_step", "meta_driver.meta_step"),
    (workloads, "sample_batch", "meta_driver.sample_batch"),
    (workloads, "generate_linear_tasks", "meta_driver.generate_linear_tasks"),
    (workloads, "generate_blob_tasks", "meta_driver.generate_blob_tasks"),
    (meta_driver, "task_meta_gradient", "meta_driver.task_meta_gradient"),
    (workloads, "run_inner_gd", "inner_opt.run_inner_gd"),
    (meta_driver, "run_inner_gd", "inner_opt.run_inner_gd"),
    (workloads, "implicit_meta_gradient",
     "hyper_implicit.implicit_meta_gradient"),
    (meta_driver, "implicit_meta_gradient",
     "hyper_implicit.implicit_meta_gradient"),
    (workloads, "unrolled_meta_gradient",
     "hyper_unrolled.unrolled_meta_gradient"),
    (meta_driver, "unrolled_meta_gradient",
     "hyper_unrolled.unrolled_meta_gradient"),
    (hyper_implicit, "meta_loss_grads", "meta_loss.meta_loss_grads"),
    (hyper_unrolled, "meta_loss_grads", "meta_loss.meta_loss_grads"),
    (meta_driver, "meta_loss_value", "meta_loss.meta_loss_value"),
    (workloads, "oracle_meta_gradient", "linear_oracle.oracle_meta_gradient"),
    (workloads, "nrmse", "linear_oracle.nrmse"),
    (workloads, "posterior_predictive_probs",
     "calibration.posterior_predictive_probs"),
    (workloads, "ece_mce", "calibration.ece_mce"),
    (inner_opt, "derive_seed", "vi_core.derive_seed"),
    (meta_driver, "derive_seed", "vi_core.derive_seed"),
    (workloads, "derive_seed", "vi_core.derive_seed"),
    (vi_core, "standard_normal", "vi_core.standard_normal"),
    (models, "standard_normal", "vi_core.standard_normal"),
    (meta_driver, "standard_normal", "vi_core.standard_normal"),
    (workloads, "standard_normal", "vi_core.standard_normal"),
    (inner_opt, "kl_grad", "vi_core.kl_grad"),
    (meta_loss, "kl_grad", "vi_core.kl_grad"),
    (meta_loss, "kl_diag_gaussian", "vi_core.kl_diag_gaussian"),
    (inner_opt, "raw_to_log_grad", "vi_core.raw_to_log_grad"),
    (meta_loss, "raw_to_log_grad", "vi_core.raw_to_log_grad"),
]
VALIDATING_SITES = [
    (vi_core.TangentVector, "__post_init__"),
    (vi_core.VariationalParams, "__init__"),
    (vi_core.PriorParams, "__init__"),
]
ORACLE_METHODS = ("nll_grad", "nll_hvp", "expected_nll")
FIELDS = ("id", "name", "start", "end", "parent", "op")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # one row of FIELDS per span, appended when the span closes
        self.records = array("q")
        self.op_id = SETUP_OP
        self._stack: List[int] = []
        self._next_id = itertools.count()
        self._patched: List[tuple] = []
        # per-call facts the spans cannot hold
        self.inner_steps = 0
        self.unrolled_steps = 0
        self.cg_solves: List[tuple] = []  # (iters, residual, hvps)

    # ------------------------------------------------------------ recording
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             observe: Callable = None) -> Callable:
        idx = self._intern(name)
        # locals: this closure runs thousands of times per op
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        record, next_id, clock = (self.records.extend, self._next_id.__next__,
                                  time.perf_counter_ns)
        tracer = self

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else -1
            push(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                record((sid, idx, t0, t1, parent, tracer.op_id))
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    # ------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        observers = {
            "inner_opt.run_inner_gd": self._observe_inner,
            "hyper_unrolled.unrolled_meta_gradient": self._observe_unrolled,
        }
        for module, attr, name in FUNCTION_SITES:
            self._patch(module, attr, self.wrap(name, getattr(module, attr),
                                                observers.get(name)))
        self._patch(hyper_implicit, "conjugate_gradient",
                    self._wrap_cg(hyper_implicit.conjugate_gradient))
        for cls, attr in VALIDATING_SITES:
            self._patch(cls, attr, self.wrap("vi_core.validate",
                                             cls.__dict__[attr]))

    def trace_model(self, model) -> None:
        for attr in ORACLE_METHODS:
            # instance attributes shadow the class methods for this model only
            model.__dict__[attr] = self.wrap(f"models.{attr}",
                                             getattr(model, attr))
            self._patched.append((model, attr, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                del owner.__dict__[attr]
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def _observe_inner(self, args, kwargs, result) -> None:
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        self.inner_steps += cfg.steps

    def _observe_unrolled(self, args, kwargs, result) -> None:
        trace = args[2] if len(args) > 2 else kwargs["trace"]
        self.unrolled_steps += trace.steps

    def _wrap_cg(self, fn: Callable) -> Callable:
        """CG span that also records (iterations, residual, HVPs spent)."""
        hvp = self._intern("models.nll_hvp")
        traced = self.wrap("hyper_implicit.conjugate_gradient", fn)

        def cg(*args, **kwargs):
            first = len(self.records)
            result = traced(*args, **kwargs)
            # name column of the spans that closed during the solve
            hvps = self.records[first + 1::len(FIELDS)].count(hvp)
            self.cg_solves.append((result[1], result[2], hvps))
            return result
        return cg

    # --------------------------------------------------------------- output
    def arrays(self) -> Dict[str, np.ndarray]:
        """Span columns, indexed by span id."""
        rows = np.frombuffer(self.records, dtype=np.int64).reshape(-1, len(FIELDS))
        rows = rows[np.argsort(rows[:, 0])]
        if len(rows) and not np.array_equal(rows[:, 0], np.arange(len(rows))):
            raise RuntimeError("span ids are not contiguous")
        return {f: rows[:, j].copy() for j, f in enumerate(FIELDS)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Per-layer figures over the traced ops (op id >= 0)."""
    cols = tracer.arrays()
    name, start, end, parent, op = (cols["name"], cols["start"], cols["end"],
                                    cols["parent"], cols["op"])
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    in_op = op >= 0
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(*names):
        m = np.zeros(len(name), dtype=bool)
        for n in names:
            if n in ids:
                m |= name == ids[n]
        return m

    def layer(prefix):
        return mask(*[n for n in tracer.names if n.startswith(prefix + ".")])

    def per_op(m, values=None):
        m = m & in_op
        return float((values[m].sum() if values is not None else m.sum())
                     / n_ops)

    def mean(values, m):
        return float(values[m].mean()) if m.any() else 0.0

    grad, hvp, value = (mask("models.nll_grad") & in_op,
                        mask("models.nll_hvp") & in_op,
                        mask("models.expected_nll") & in_op)
    grad_in_hvp = np.zeros_like(dur)
    nested = grad & has_parent
    np.add.at(grad_in_hvp, parent[nested], dur[nested])
    op_total = dur[mask("op") & in_op].sum()
    solves = tracer.cg_solves
    inner_steps = tracer.inner_steps
    taskgen = mask("meta_driver.generate_linear_tasks",
                   "meta_driver.generate_blob_tasks")
    ms, us = 1e-6, 1e-3
    return {
        "models.grad_calls_per_op": per_op(grad),
        "models.hvp_calls_per_op": per_op(hvp),
        "models.value_calls_per_op": per_op(value),
        "models.grad_us": mean(dur, grad) * us,
        "models.hvp_self_us": mean(dur - grad_in_hvp, hvp) * us,
        "models.value_us": mean(dur, value) * us,
        "models.self_share": float(own[layer("models") & in_op].sum()
                                   / op_total),
        "vi_core.derive_seed_calls_per_op": per_op(mask("vi_core.derive_seed")),
        "vi_core.standard_normal_calls_per_op":
            per_op(mask("vi_core.standard_normal")),
        "vi_core.kl_grad_calls_per_op": per_op(mask("vi_core.kl_grad")),
        "vi_core.validations_per_op": per_op(mask("vi_core.validate")),
        "vi_core.self_ms_per_op": per_op(layer("vi_core"), own) * ms,
        "inner_opt.steps_per_op": inner_steps / n_ops,
        "inner_opt.self_us_per_step":
            (float(own[layer("inner_opt") & in_op].sum()) / inner_steps * us
             if inner_steps else 0.0),
        "hyper_implicit.cg_iters_per_solve":
            float(np.mean([s[0] for s in solves])) if solves else 0.0,
        "hyper_implicit.negcurv_exits":
            sum(1 for s in solves if s[2] > s[0]) / n_ops,
        "hyper_implicit.cg_residual_median":
            float(np.median([s[1] for s in solves])) if solves else 0.0,
        "hyper_implicit.self_ms_per_op":
            per_op(layer("hyper_implicit"), own) * ms,
        "hyper_unrolled.steps_per_op": tracer.unrolled_steps / n_ops,
        "hyper_unrolled.self_ms_per_op":
            per_op(layer("hyper_unrolled"), own) * ms,
        "meta_loss.self_ms_per_op": per_op(layer("meta_loss"), own) * ms,
        "linear_oracle.ms_per_op": per_op(layer("linear_oracle"), dur) * ms,
        "meta_driver.self_ms_per_op":
            per_op(mask("meta_driver.meta_step", "meta_driver.sample_batch",
                        "meta_driver.task_meta_gradient"), own) * ms,
        "meta_driver.taskgen_ms":
            float(np.median(dur[taskgen])) * ms if taskgen.any() else 0.0,
        "calibration.predictive_ms_per_op":
            per_op(mask("calibration.posterior_predictive_probs"), dur) * ms,
        "calibration.ece_ms":
            float(dur[mask("calibration.ece_mce")].sum()) * ms,
    }
