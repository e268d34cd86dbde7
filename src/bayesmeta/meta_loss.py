"""Meta-loss definitions and their partial gradients.

The meta-loss per task is the validation expected nll, optionally plus a
KL(q || prior) term. Its two partial gradients are the direction the
implicit/unrolled machinery consumes: grad_1 is taken w.r.t. the variational
point, grad_2 w.r.t. the prior (both in raw-variance coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .models import GradientOracle, TaskData
from .vi_core import (PriorParams, TangentVector, VariationalParams,
                      kl_diag_gaussian, kl_grad, raw_to_log_grad)

VAL_NLL_ONLY = "val_nll_only"
VAL_NLL_PLUS_KL = "val_nll_plus_kl"


@dataclass
class MetaLossSpec:
    kind: str = VAL_NLL_ONLY
    kl_weight: float = 0.0
    mc_budget: int = 64

    def __post_init__(self):
        if self.kind not in (VAL_NLL_ONLY, VAL_NLL_PLUS_KL):
            raise ValueError(f"unknown meta-loss kind {self.kind!r}")
        if (self.kl_weight == 0.0) != (self.kind == VAL_NLL_ONLY):
            raise ValueError("kl_weight must be 0 iff kind is val_nll_only")
        if self.mc_budget < 1:
            raise ValueError("mc_budget must be >= 1")


@dataclass
class MetaGradient:
    """Meta-gradient w.r.t. the prior, in raw- and log-variance coordinates."""

    wrt_mean: np.ndarray
    wrt_var: np.ndarray
    wrt_log_var: np.ndarray
    hvp_calls: int = 0
    cg_iters: int = 0
    cg_residual: float = 0.0

    @classmethod
    def from_raw(cls, wrt_mean, wrt_var, prior_var, **diag) -> "MetaGradient":
        return cls(wrt_mean=np.asarray(wrt_mean, dtype=np.float64),
                   wrt_var=np.asarray(wrt_var, dtype=np.float64),
                   wrt_log_var=raw_to_log_grad(wrt_var, prior_var), **diag)

    def concat_log(self) -> np.ndarray:
        return np.concatenate([self.wrt_mean, self.wrt_log_var])

    def concat_raw(self) -> np.ndarray:
        return np.concatenate([self.wrt_mean, self.wrt_var])


def meta_loss_value(oracle: GradientOracle, data: TaskData,
                    v: VariationalParams, prior: PriorParams,
                    spec: MetaLossSpec, seed: int = 0) -> float:
    """The meta-loss; the only code that evaluates it."""
    val = oracle.expected_nll(v, data, "val", spec.mc_budget, seed)
    if spec.kl_weight != 0.0:
        val += spec.kl_weight * kl_diag_gaussian(v, prior)
    return val


def meta_loss_grads(oracle: GradientOracle, data: TaskData,
                    v: VariationalParams, prior: PriorParams,
                    spec: MetaLossSpec, seed: int = 0
                    ) -> Tuple[TangentVector, TangentVector]:
    """Returns (grad_1 wrt v, grad_2 wrt prior), raw coordinates."""
    grad1 = oracle.nll_grad(v, data, "val", spec.mc_budget, seed)
    grad2 = TangentVector.zeros(v.dim)
    if spec.kl_weight != 0.0:
        g_q, g_prior = kl_grad(v, prior)
        grad1 = grad1 + spec.kl_weight * g_q
        grad2 = grad2 + spec.kl_weight * g_prior
    return grad1, grad2
