"""Task-level optimizer: K-step gradient descent on the negative ELBO.

The descent runs in (mean, log-variance) coordinates so variances stay
positive; the log-coordinate gradient is the raw variance gradient scaled by
d (chain rule). Also provides the closed-form optimum of the linear-Gaussian
task, which is the fixed point the GD iterates converge to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .models import GradientOracle, TaskData
from .vi_core import (PriorParams, TangentVector, VariationalParams,
                      derive_seed, kl_diag_gaussian, kl_grad, raw_to_log_grad)

DIVERGENCE_LIMIT = 1e12
LOG_VAR_LIMIT = 700.0  # beyond this exp() under/overflows at float64


class InnerDivergenceError(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"inner GD diverged at step {step}")
        self.step = step


@dataclass
class InnerConfig:
    steps: int = 100
    lr: float = 0.01
    mc_budget: Optional[int] = None  # None = closed-form expected nll
    record_trace: bool = False

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.mc_budget is not None and self.mc_budget < 1:
            raise ValueError("mc_budget must be None or >= 1")


@dataclass
class InnerTrace:
    """The recorded unroll, as plain arrays.

    ``iterates`` holds w^0 ... w^K as rows (mean, log-variance), shape
    (K+1, 2p). ``var_grads`` holds the raw variance gradient of the inner
    objective at w^0 ... w^{K-1}, shape (K, p), which the reverse sweep reuses
    instead of recomputing. ``step_seeds`` are the per-step MC seeds (None
    when the inner loop does not sample).
    """

    iterates: np.ndarray
    var_grads: np.ndarray
    step_seeds: List[Optional[int]]
    cfg: InnerConfig

    @property
    def steps(self) -> int:
        return self.iterates.shape[0] - 1

    def point(self, k: int) -> VariationalParams:
        """Iterate k, over views of its row."""
        p = self.iterates.shape[1] // 2
        return VariationalParams._unchecked(self.iterates[k, :p],
                                            self.iterates[k, p:])


def inner_objective_grad(oracle: GradientOracle, data: TaskData,
                         v: VariationalParams, prior: PriorParams,
                         mc_budget, seed) -> TangentVector:
    """Raw-coordinate gradient of L_tr(v) + KL(q(v) || prior)."""
    g = oracle.nll_grad(v, data, "train", mc_budget, seed)
    g_kl, _ = kl_grad(v, prior)
    return g + g_kl


def inner_objective_value(oracle: GradientOracle, data: TaskData,
                          v: VariationalParams, prior: PriorParams,
                          mc_budget, seed) -> float:
    return (oracle.expected_nll(v, data, "train", mc_budget, seed)
            + kl_diag_gaussian(v, prior))


def inner_objective_log_grad(oracle: GradientOracle, data: TaskData,
                             v: VariationalParams, prior: PriorParams,
                             mc_budget, seed) -> np.ndarray:
    """Gradient of the inner objective in (mean, log-variance) coordinates,
    concatenated: the direction one step of :func:`run_inner_gd` descends."""
    g = inner_objective_grad(oracle, data, v, prior, mc_budget, seed)
    return np.concatenate([g.wrt_mean, raw_to_log_grad(g.wrt_var, v.var)])


def run_inner_gd(oracle: GradientOracle, data, prior: PriorParams,
                 cfg: InnerConfig, seed=0, freeze_log_var: bool = False):
    """K-step GD on the negative ELBO, initialized at the prior.

    ``data`` is one task with one ``seed``, or a meta-batch: a sequence of
    tasks with a sequence of seeds. One task returns ``(v, trace)`` and
    raises its failure. A batch returns one entry per task, ``(v, trace)``
    or the exception that task failed with; a failed task stops stepping
    and the others run on. One task is a batch of one.

    ``freeze_log_var`` keeps the variance block at its initial value and
    descends only the mean block (the fixed-variance proximal special case).

    All tasks step in lockstep on stacked (B, p) arrays, with gradients from
    the oracle's :meth:`~GradientOracle.batch_nll_grad`. A step is
    :func:`inner_objective_log_grad`'s arithmetic, in the same order and
    elementwise, so each task gets the bits it gets alone: the prior's
    variance and its reciprocal are computed once, and the divergence check
    validates each task's iterate before it is handed to the oracle. Step
    seeds are derived only when the oracle samples (``mc_budget`` set).
    """
    if isinstance(data, TaskData):
        (out,) = _lockstep(oracle, [data], prior, cfg, [seed], freeze_log_var)
        if isinstance(out, Exception):
            raise out
        return out
    return _lockstep(oracle, list(data), prior, cfg, list(seed),
                     freeze_log_var)


def _lockstep(oracle: GradientOracle, tasks: List[TaskData],
              prior: PriorParams, cfg: InnerConfig, seeds: List[int],
              freeze_log_var: bool) -> list:
    b, p = len(tasks), prior.dim
    if not b:
        return []
    m_prior, d_prior = prior.mean, prior.var
    inv_d_prior = 1.0 / d_prior
    lr, mc_budget, k_steps, record = (cfg.lr, cfg.mc_budget, cfg.steps,
                                      cfg.record_trace)
    step_seeds = [[derive_seed(s, k) for k in range(k_steps)]
                  if mc_budget is not None else [None] * k_steps
                  for s in seeds]
    mean = np.tile(prior.mean, (b, 1))
    log_var = np.tile(prior.log_var, (b, 1))
    if record:
        iterates = np.empty((b, k_steps + 1, 2 * p))
        var_grads = np.empty((b, k_steps, p))
        iterates[:, 0, :p] = mean
        iterates[:, 0, p:] = log_var
    out: list = [None] * b  # a task's failure, then its result
    live = list(range(b))  # the tasks still stepping, one per row
    rows = slice(None)  # their trace rows; a slice writes faster than live
    grad = None  # the live tasks' stacked gradient, rebuilt when one drops
    for k in range(k_steps):
        seeds_k = [step_seeds[i][k] for i in live]
        try:
            if grad is None:
                grad = oracle.batch_nll_grad([tasks[i] for i in live],
                                             "train", mc_budget)
            g_mean, g_var = grad(mean, log_var, seeds_k)
        except Exception as exc:
            g_mean, g_var = _one_at_a_time(oracle, tasks, live, mc_budget,
                                           mean, log_var, seeds_k, exc, out)
        d_t = np.exp(log_var)
        # plus the q-block of kl_grad, as in inner_objective_grad
        g_mean = g_mean + (mean - m_prior) / d_prior
        g_var = g_var + 0.5 * (inv_d_prior - 1.0 / d_t)
        mean = mean - lr * g_mean
        if not freeze_log_var:
            log_var = log_var - lr * (d_t * g_var)  # raw_to_log_grad
        # NaN fails every comparison, so this also catches non-finite
        # entries; the rows are checked one by one only when the batch fails
        if not (np.abs(mean).max() <= DIVERGENCE_LIMIT
                and np.abs(log_var).max() <= LOG_VAR_LIMIT):
            ok = ((np.abs(mean).max(axis=1) <= DIVERGENCE_LIMIT)
                  & (np.abs(log_var).max(axis=1) <= LOG_VAR_LIMIT))
            for i, passed in zip(live, ok):
                if not passed and out[i] is None:
                    out[i] = InnerDivergenceError(k)
            live = [i for i, passed in zip(live, ok) if passed]
            mean, log_var, g_var = mean[ok], log_var[ok], g_var[ok]
            rows, grad = live, None
            if not live:
                break
        if record:
            iterates[rows, k + 1, :p] = mean
            iterates[rows, k + 1, p:] = log_var
            var_grads[rows, k] = g_var
    for j, i in enumerate(live):
        trace = (InnerTrace(iterates[i], var_grads[i], step_seeds[i], cfg)
                 if record else None)
        out[i] = (VariationalParams._unchecked(mean[j], log_var[j]), trace)
    return out


def _one_at_a_time(oracle, tasks, live, mc_budget, mean, log_var, seeds,
                   exc, out):
    """The step's gradients after the stacked call raised ``exc``: each live
    task on its own. A task that raises gets its exception in ``out`` and NaN
    rows, so the divergence check stops it."""
    g_mean, g_var = np.full_like(mean, np.nan), np.full_like(mean, np.nan)
    if len(live) == 1:
        out[live[0]] = exc
        return g_mean, g_var
    for j, i in enumerate(live):
        rows = slice(j, j + 1)
        try:
            grad = oracle.batch_nll_grad([tasks[i]], "train", mc_budget)
            g_mean[rows], g_var[rows] = grad(mean[rows], log_var[rows],
                                             seeds[rows])
        except Exception as task_exc:
            out[i] = task_exc
    return g_mean, g_var


def closed_form_linear_optimum(prior: PriorParams, data: TaskData,
                               printed_variance_factor: bool = False
                               ) -> VariationalParams:
    """Stationary point of the linear-Gaussian negative ELBO.

    m* = (X X^T / sigma^2 + D^-1)^-1 (D^-1 m + X y / sigma^2)
    d* = 1 / (diag(X X^T) / sigma^2 + 1/d)

    ``printed_variance_factor`` switches the variance denominator to the
    alternative 1/(2 sigma^2) scaling for comparison; the default is the
    literal stationary point of the objective the inner loop descends (the
    GD fixed-point test is the arbiter).
    """
    if data.task_kind != "regression":
        raise ValueError("closed form requires a linear regression task")
    x, y = data.x_tr, data.y_tr
    p = prior.dim
    d = prior.var
    s2 = data.noise_sigma ** 2
    xxt = x @ x.T if x.shape[1] > 0 else np.zeros((p, p))
    a = xxt / s2 + np.diag(1.0 / d)
    rhs = prior.mean / d + (x @ y) / s2 if x.shape[1] > 0 else prior.mean / d
    m_star = np.linalg.solve(a, rhs)
    factor = 2.0 * s2 if printed_variance_factor else s2
    d_star = 1.0 / (np.diag(xxt) / factor + 1.0 / d)
    return VariationalParams.from_var(m_star, d_star)
