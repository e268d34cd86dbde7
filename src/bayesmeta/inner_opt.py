"""Task-level optimizer: K-step gradient descent on the negative ELBO.

The descent runs in (mean, log-variance) coordinates so variances stay
positive; the log-coordinate gradient is the raw variance gradient scaled by
d (chain rule). Also provides the closed-form optimum of the linear-Gaussian
task, which is the fixed point the GD iterates converge to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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


def run_inner_gd(oracle: GradientOracle, data: TaskData, prior: PriorParams,
                 cfg: InnerConfig, seed: int = 0, freeze_log_var: bool = False
                 ) -> Tuple[VariationalParams, Optional[InnerTrace]]:
    """K-step GD on the negative ELBO, initialized at the prior.

    ``freeze_log_var`` keeps the variance block at its initial value and
    descends only the mean block (the fixed-variance proximal special case).

    A step is :func:`inner_objective_log_grad`'s arithmetic, in the same
    order, on plain arrays: the prior's variance and its reciprocal are
    computed once, and the divergence check validates each iterate before it
    is handed to the oracle. Step seeds are derived only when the oracle
    samples (``mc_budget`` set).
    """
    v = VariationalParams.from_prior(prior)
    mean, log_var = v.mean, v.log_var
    m_prior, d_prior = prior.mean, prior.var
    inv_d_prior = 1.0 / d_prior
    lr, mc_budget, k_steps, p = cfg.lr, cfg.mc_budget, cfg.steps, prior.dim
    step_seeds = ([derive_seed(seed, k) for k in range(k_steps)]
                  if mc_budget is not None else [None] * k_steps)
    trace = None
    if cfg.record_trace:
        trace = InnerTrace(iterates=np.empty((k_steps + 1, 2 * p)),
                           var_grads=np.empty((k_steps, p)),
                           step_seeds=step_seeds, cfg=cfg)
        trace.iterates[0] = np.concatenate([mean, log_var])
    for k in range(k_steps):
        d_t = np.exp(log_var)
        g = oracle.nll_grad(v, data, "train", mc_budget, step_seeds[k])
        # plus the q-block of kl_grad, as in inner_objective_grad
        g_mean = g.wrt_mean + (mean - m_prior) / d_prior
        g_var = g.wrt_var + 0.5 * (inv_d_prior - 1.0 / d_t)
        mean = mean - lr * g_mean
        if not freeze_log_var:
            log_var = log_var - lr * (d_t * g_var)  # raw_to_log_grad
        # NaN fails every comparison, so this also catches non-finite entries
        if not (np.abs(mean).max() <= DIVERGENCE_LIMIT
                and np.abs(log_var).max() <= LOG_VAR_LIMIT):
            raise InnerDivergenceError(k)
        if trace is not None:
            trace.iterates[k + 1, :p] = mean
            trace.iterates[k + 1, p:] = log_var
            trace.var_grads[k] = g_var
        v = VariationalParams._unchecked(mean, log_var)
    return v, trace


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
