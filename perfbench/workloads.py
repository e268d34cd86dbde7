"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and runs
one closed-loop operation per ``op`` call. It reaches the library only through
the public functions the ``bayesmeta`` CLI commands call, imported here, so the
tracer can wrap them at this import site. Sizes are the CLI and test defaults.

An op returns a dict of arrays and numbers: its outputs, used for the per-op
checks, for the bitwise traced/untraced comparison and for the comparison with
the recorded baseline. ``check`` returns the list of problems with one op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from bayesmeta import (BlobTaskSpec, CgConfig, InnerConfig, LinearGaussianModel,
                       MetaConfig, MetaLossSpec, MLPModel, PriorParams,
                       TaskGenSpec, derive_seed, ece_mce, generate_blob_tasks,
                       generate_linear_tasks, implicit_meta_gradient, meta_step,
                       nrmse, oracle_meta_gradient, posterior_predictive_probs,
                       run_inner_gd, sample_batch, standard_normal,
                       unrolled_meta_gradient)
from bayesmeta.vi_core import D_MAX, D_MIN

Output = Dict[str, Any]
CLAMP_BOUNDS = (np.log(D_MIN), np.log(D_MAX))


def expected_implicit_hvps(iters: int, residual: float, cg: CgConfig) -> int:
    """HVPs one CG solve must spend: one per iteration, plus one for a
    negative-curvature exit (a stop before ``max_iters`` without reaching
    the residual tolerance)."""
    negcurv = iters < cg.max_iters and residual > cg.rel_tol
    return iters + int(negcurv)


def nonfinite_keys(out: Output) -> List[str]:
    return [k for k, v in out.items()
            if np.asarray(v).dtype.kind == "f" and not np.all(np.isfinite(v))]


@dataclass
class State:
    seed: int
    model: Any
    tasks: List[Any] = field(default_factory=list)
    prior: Optional[PriorParams] = None
    cfg: Any = None


class Workload:
    name = ""
    why = ""
    # Fixed per workload so that op_ms_tail always names the same percentile;
    # chosen to leave at least ten ops beyond it in a default-length run.
    tail_pct = 90.0
    # Ops replayed with REFERENCE_SEED and compared with the baseline.
    n_reference = 1
    # speedprobe kernel that tracks the machine speed for this kind of op
    probe = "python"

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def op(self, state: State, i: int) -> Output:
        raise NotImplementedError

    def check(self, state: State, out: Output) -> List[str]:
        return [f"non-finite {k}" for k in nonfinite_keys(out)]

    def finish(self, outputs: List[Output]) -> Dict[str, float]:
        """Results computed over all ops of a run, after the timed loop."""
        return {}

    def guards(self, outputs: List[Output], extra: Dict[str, float]
               ) -> Dict[str, float]:
        """Deterministic quality figures of the reference replay; the first
        one is reported as the end-to-end ``quality_guard``."""
        raise NotImplementedError

    def clamps(self, out: Output) -> int:
        return 0

    def retained_bytes(self, state: State):
        """(tracemalloc peak, formula) of the unrolled path, or (0, 0)."""
        return 0, 0


class _Train(Workload):
    """One implicit ``meta_step`` on a fixed task set per op."""

    n_tasks = 0

    def _model_and_prior(self, seed: int):
        raise NotImplementedError

    def _tasks(self, seed: int):
        raise NotImplementedError

    def _cfg(self, seed: int) -> MetaConfig:
        raise NotImplementedError

    def setup(self, seed: int) -> State:
        model, prior = self._model_and_prior(seed)
        return State(seed=seed, model=model, tasks=self._tasks(seed),
                     prior=prior, cfg=self._cfg(seed))

    def op(self, state: State, i: int) -> Output:
        cfg = state.cfg
        batch = sample_batch(len(state.tasks), cfg.batch_size, cfg.seed, i)
        hvp0 = state.model.hvp_calls
        state.prior, rep = meta_step(state.prior, state.model, state.tasks,
                                     batch, cfg, i)
        return {"prior_mean": state.prior.mean,
                "prior_log_var": state.prior.log_var,
                "losses": np.array(rep.losses),
                "cg_iters": np.array(rep.cg_iters),
                "cg_residuals": np.array(rep.cg_residuals),
                "hvp_calls": rep.hvp_calls,
                "hvp_counted": state.model.hvp_calls - hvp0}

    def check(self, state: State, out: Output) -> List[str]:
        problems = super().check(state, out)
        cg = state.cfg.cg
        want = sum(expected_implicit_hvps(int(it), float(res), cg)
                   for it, res in zip(out["cg_iters"], out["cg_residuals"]))
        if out["hvp_calls"] != want:
            problems.append(f"{out['hvp_calls']} HVPs reported, CG accounts "
                            f"for {want}")
        if out["hvp_counted"] != out["hvp_calls"]:
            problems.append(f"oracle counted {out['hvp_counted']} HVPs, "
                            f"report says {out['hvp_calls']}")
        return problems

    def guards(self, outputs, extra):
        losses = [float(np.mean(o["losses"])) for o in outputs]
        tenth = max(1, len(losses) // 10)
        return {"final_loss": float(np.mean(losses[-tenth:]))}

    def clamps(self, out: Output) -> int:
        return int(np.isin(out["prior_log_var"], CLAMP_BOUNDS).sum())


class LinearTrain(_Train):
    name = "linear-train"
    why = ("closed-form linear oracle: Python overhead in vi_core, inner_opt "
           "and meta_driver dominates; MLP kernel work does not show")
    tail_pct = 95.0
    n_reference = 30
    n_tasks = 20
    dim = 32

    def _model_and_prior(self, seed):
        prior = PriorParams(standard_normal(self.dim, derive_seed(seed, 99)),
                            np.zeros(self.dim))
        return LinearGaussianModel(self.dim), prior

    def _tasks(self, seed):
        tasks, _ = generate_linear_tasks(TaskGenSpec(
            dim=self.dim, noise_sigma=0.01, cond_kappa=20.0, n_tr=32,
            n_val=64, n_tasks=self.n_tasks, seed=seed, design_scale=0.018))
        return tasks

    def _cfg(self, seed):
        return MetaConfig(
            method="implicit", meta_lr=0.01, batch_size=4, iterations=1,
            inner=InnerConfig(steps=100, lr=0.01, mc_budget=None),
            cg=CgConfig(max_iters=5, rel_tol=1e-10,
                        abort_on_negative_curvature=False),
            loss=MetaLossSpec(mc_budget=64), seed=seed)


class BlobTrain(_Train):
    name = "blob-train"
    why = ("MLP [2,16,5] meta-step of the long acceptance test: MC forward, "
           "backward and FD HVPs in models dominate")
    probe = "mlp"
    tail_pct = 90.0
    n_reference = 10
    n_tasks = 40
    widths = (2, 16, 5)

    def _model_and_prior(self, seed):
        model = MLPModel(list(self.widths))
        p = model.dim
        return model, PriorParams(np.zeros(p), np.log(0.1) * np.ones(p))

    def _tasks(self, seed):
        return generate_blob_tasks(BlobTaskSpec(n_tasks=self.n_tasks, seed=seed))

    def _cfg(self, seed):
        return MetaConfig(
            method="implicit", meta_lr=0.005, batch_size=4, iterations=1,
            inner=InnerConfig(steps=30, lr=0.02, mc_budget=16),
            cg=CgConfig(max_iters=5, abort_on_negative_curvature=False),
            loss=MetaLossSpec(mc_budget=64), seed=seed)


class NrmseSweep(Workload):
    """One seed of the ``nrmse-sweep`` defaults per op."""

    name = "nrmse-sweep"
    why = ("error-vs-K sweep: the only workload where the unrolled reverse "
           "sweep, its retained trace and the dense oracle do real work")
    tail_pct = 75.0
    n_reference = 5
    dim = 32
    k_list = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
    cg = CgConfig(max_iters=2, rel_tol=1e-10)

    @staticmethod
    def sweep_seed(seed: int, i: int) -> int:
        # seed 0 gives the CLI's default sweep seeds 0, 1, 2, ...
        return seed * 100_000 + i

    def setup(self, seed: int) -> State:
        return State(seed=seed, model=LinearGaussianModel(self.dim),
                     cfg=MetaLossSpec(kind="val_nll_only", kl_weight=0.0,
                                      mc_budget=64))

    def _task_and_prior(self, s: int):
        tasks, _ = generate_linear_tasks(TaskGenSpec(
            dim=self.dim, noise_sigma=0.01, cond_kappa=20.0, n_tr=32,
            n_val=64, n_tasks=1, seed=s, design_scale=0.018))
        prior = PriorParams(standard_normal(self.dim, derive_seed(s, 99)),
                            np.zeros(self.dim))
        return tasks[0], prior

    def op(self, state: State, i: int) -> Output:
        s = self.sweep_seed(state.seed, i)
        model, loss = state.model, state.cfg
        data, prior = self._task_and_prior(s)
        truth = oracle_meta_gradient(prior, data, loss)
        rows, counted, cg_iters, cg_res = [], [], [], []
        for k in self.k_list:
            inner = InnerConfig(steps=k, lr=0.01, record_trace=True)
            v_hat, trace = run_inner_gd(model, data, prior, inner, seed=s)
            hvp0 = model.hvp_calls
            ug = unrolled_meta_gradient(model, data, trace, prior, loss, seed=s)
            hvp1 = model.hvp_calls
            ig = implicit_meta_gradient(model, data, v_hat, prior, loss,
                                        self.cg, seed=s)
            counted += [hvp1 - hvp0, model.hvp_calls - hvp1]
            cg_iters.append(ig.cg_iters)
            cg_res.append(ig.cg_residual)
            rows.append([nrmse(ug, truth), nrmse(ug, truth, coords="raw"),
                         ug.hvp_calls,
                         nrmse(ig, truth), nrmse(ig, truth, coords="raw"),
                         ig.hvp_calls])
        return {"rows": np.array(rows), "hvp_counted": np.array(counted),
                "cg_iters": np.array(cg_iters), "cg_residuals": np.array(cg_res)}

    def check(self, state: State, out: Output) -> List[str]:
        problems = super().check(state, out)
        rows = out["rows"]
        for j, k in enumerate(self.k_list):
            u_hvp, i_hvp = int(rows[j, 2]), int(rows[j, 5])
            want = expected_implicit_hvps(int(out["cg_iters"][j]),
                                          float(out["cg_residuals"][j]), self.cg)
            if u_hvp != k:
                problems.append(f"K={k}: unrolled spent {u_hvp} HVPs")
            if i_hvp != want:
                problems.append(f"K={k}: implicit spent {i_hvp} HVPs, CG "
                                f"accounts for {want}")
            if list(out["hvp_counted"][2 * j:2 * j + 2]) != [u_hvp, i_hvp]:
                problems.append(f"K={k}: oracle counter disagrees")
        return problems

    def guards(self, outputs, extra):
        return {"nrmse_implicit_kmax":
                float(np.median([o["rows"][-1, 3] for o in outputs])),
                "nrmse_unrolled_kmax":
                float(np.median([o["rows"][-1, 0] for o in outputs]))}

    def retained_bytes(self, state: State):
        import tracemalloc
        k = self.k_list[-1]
        s = self.sweep_seed(state.seed, 0)
        data, prior = self._task_and_prior(s)
        inner = InnerConfig(steps=k, lr=0.01, record_trace=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, trace = run_inner_gd(state.model, data, prior, inner, seed=s)
            unrolled_meta_gradient(state.model, data, trace, prior, state.cfg,
                                   seed=s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base, (k + 1) * 2 * self.dim * 8


class BlobAdapt(Workload):
    """Adapt one held-out task with the ``calibration`` defaults per op."""

    name = "blob-adapt"
    why = ("deployment side: MLP [2,32,5] forward and gradient only, with no "
           "HVP, CG or meta-gradient; training-side changes must read flat")
    probe = "mlp"
    tail_pct = 75.0
    n_reference = 5
    n_pool = 64
    widths = (2, 32, 5)
    mc = 64

    def setup(self, seed: int) -> State:
        tasks = generate_blob_tasks(BlobTaskSpec(
            n_classes=5, input_dim=2, shots_tr=5, shots_val=10,
            class_spread=2.0, blob_sigma=0.5, n_tasks=self.n_pool,
            seed=derive_seed(seed, 1)))
        model = MLPModel(list(self.widths))
        p = model.dim
        prior = PriorParams(np.zeros(p), np.log(0.1) * np.ones(p))
        return State(seed=seed, model=model, tasks=tasks, prior=prior,
                     cfg=InnerConfig(steps=100, lr=0.01, mc_budget=self.mc))

    def op(self, state: State, i: int) -> Output:
        model = state.model
        data = state.tasks[i % len(state.tasks)]
        task_seed = derive_seed(state.seed, 2, i)
        hvp0, grad0 = model.hvp_calls, model.grad_counter.count
        v_hat, _ = run_inner_gd(model, data, state.prior, state.cfg, task_seed)
        probs, labels = posterior_predictive_probs(
            model, v_hat, data, self.mc, derive_seed(task_seed, 7))
        nll = model.expected_nll(v_hat, data, "val", self.mc, task_seed)
        return {"probs": probs, "labels": labels, "val_nll": nll,
                "hvp_counted": model.hvp_calls - hvp0,
                "grad_counted": model.grad_counter.count - grad0}

    def check(self, state: State, out: Output) -> List[str]:
        problems = super().check(state, out)
        probs = out["probs"]
        if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1) > 1e-12):
            problems.append("predictive rows are not distributions")
        if out["hvp_counted"] != 0:
            problems.append(f"adaptation spent {out['hvp_counted']} HVPs")
        if out["grad_counted"] != state.cfg.steps:
            problems.append(f"adaptation spent {out['grad_counted']} grads "
                            f"for {state.cfg.steps} steps")
        return problems

    def finish(self, outputs: List[Output]) -> Dict[str, float]:
        report = ece_mce(np.concatenate([o["probs"] for o in outputs]),
                         np.concatenate([o["labels"] for o in outputs]),
                         n_bins=10)
        return {"ece": report["ece"], "mce": report["mce"]}

    def guards(self, outputs, extra):
        return {"heldout_nll": float(np.mean([o["val_nll"] for o in outputs])),
                "ece": extra["ece"]}


WORKLOADS = {w.name: w for w in (LinearTrain(), BlobTrain(), NrmseSweep(),
                                 BlobAdapt())}
