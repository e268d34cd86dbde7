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
    """Recorded iterates v^0 ... v^K plus the per-step MC seeds."""

    iterates: List[VariationalParams]
    step_seeds: List[int]
    cfg: InnerConfig

    @property
    def steps(self) -> int:
        return len(self.iterates) - 1


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


def run_inner_gd(oracle: GradientOracle, data: TaskData, prior: PriorParams,
                 cfg: InnerConfig, seed: int = 0, freeze_log_var: bool = False
                 ) -> Tuple[VariationalParams, Optional[InnerTrace]]:
    """K-step GD on the negative ELBO, initialized at the prior.

    ``freeze_log_var`` keeps the variance block at its initial value and
    descends only the mean block (the fixed-variance proximal special case).
    """
    v = VariationalParams.from_prior(prior)
    iterates = [v] if cfg.record_trace else None
    step_seeds = []
    for k in range(cfg.steps):
        step_seed = derive_seed(seed, k)
        step_seeds.append(step_seed)
        g_raw = inner_objective_grad(oracle, data, v, prior, cfg.mc_budget,
                                     step_seed)
        new_mean = v.mean - cfg.lr * g_raw.wrt_mean
        if freeze_log_var:
            new_log_var = v.log_var
        else:
            g_log = raw_to_log_grad(g_raw.wrt_var, v.var)
            new_log_var = v.log_var - cfg.lr * g_log
        if (not np.all(np.isfinite(new_mean)) or not np.all(np.isfinite(new_log_var))
                or np.abs(new_mean).max() > DIVERGENCE_LIMIT
                or np.abs(new_log_var).max() > LOG_VAR_LIMIT):
            raise InnerDivergenceError(k)
        v = VariationalParams(new_mean, new_log_var)
        if iterates is not None:
            iterates.append(v)
    trace = None
    if cfg.record_trace:
        trace = InnerTrace(iterates=iterates, step_seeds=step_seeds, cfg=cfg)
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
