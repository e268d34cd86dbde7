"""Implicit meta-gradient: CG solve against the implicit-differentiation system.

The implicit Jacobian of the inner optimum w.r.t. the prior factors as
G(v) H(v)^-1, where H is the train expected-nll Hessian plus a diagonal
prior/variance block and G is a sparse two-by-two block matrix of diagonals.
The meta-gradient is assembled as G * (H^-1 grad_1) + grad_2, with H^-1
applied by truncated conjugate gradient so each iteration costs one oracle
HVP plus elementwise products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .meta_loss import MetaGradient, MetaLossSpec, meta_loss_grads
from .models import GradientOracle, TaskData
from .vi_core import PriorParams, TangentVector, VariationalParams


class NegativeCurvatureError(RuntimeError):
    """CG observed p^T H p <= 0: the implicit system is not positive definite."""


@dataclass
class CgConfig:
    max_iters: int = 5
    rel_tol: float = 1e-10
    abort_on_negative_curvature: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be nonnegative")


def h_diag_blocks(prior: PriorParams, grad_var_tr: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonals of the prior/variance block added to the nll Hessian.

    mean block: 1/d; variance block: (1/2)(1/d + 2 grad_var_tr)^2, with
    grad_var_tr the train expected-nll gradient w.r.t. the posterior variance.
    """
    d_inv = 1.0 / prior.var
    return d_inv, 0.5 * (d_inv + 2.0 * grad_var_tr) ** 2


def h_operator(oracle: GradientOracle, data: TaskData, v: VariationalParams,
               prior: PriorParams, grad_var_tr: np.ndarray, mc_budget=None,
               seed: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """H(v) as a matvec on (2p,) (mean, variance) arrays.

    ``grad_var_tr`` is the train expected-nll variance gradient at v. The
    diagonal block is built here, once; each application of the returned
    matvec makes exactly one counted oracle HVP (no zero-vector
    short-circuit, for cost-accounting honesty) plus elementwise products.
    """
    p = v.dim
    diag = np.concatenate(h_diag_blocks(prior, grad_var_tr))

    def matvec(x: np.ndarray) -> np.ndarray:
        hvp = oracle.nll_hvp(v, data, "train",
                             TangentVector._unchecked(x[:p], x[p:]),
                             mc_budget, seed)
        return np.concatenate([hvp.wrt_mean, hvp.wrt_var]) + diag * x
    return matvec


def conjugate_gradient(matvec: Callable[[np.ndarray], np.ndarray],
                       b: np.ndarray, cfg: CgConfig
                       ) -> Tuple[np.ndarray, int, float]:
    """Standard CG from the zero initial guess for a symmetric operator.

    Stops at min(max_iters, first iterate with ||r|| <= rel_tol * ||b||).
    Returns (solution, iterations, final relative residual).
    """
    b = np.asarray(b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b.copy()
    d = r.copy()
    r_dot = float(r @ r)
    iters = 0
    for _ in range(cfg.max_iters):
        hd = matvec(d)
        if not np.all(np.isfinite(hd)):
            raise FloatingPointError("non-finite value in CG matvec")
        curvature = float(d @ hd)
        if curvature <= 0.0:
            if cfg.abort_on_negative_curvature:
                raise NegativeCurvatureError(
                    f"curvature {curvature:.3e} at iteration {iters}")
            break
        alpha = r_dot / curvature
        x += alpha * d
        r -= alpha * hd
        iters += 1
        new_r_dot = float(r @ r)
        if np.sqrt(new_r_dot) <= cfg.rel_tol * b_norm:
            r_dot = new_r_dot
            break
        d = r + (new_r_dot / r_dot) * d
        r_dot = new_r_dot
    residual = float(np.sqrt(r_dot)) / b_norm
    return x, iters, residual


def apply_g(prior: PriorParams, grad_mean_tr: np.ndarray, u: np.ndarray
            ) -> np.ndarray:
    """G(v) u on a (2p,) (mean, variance) array, elementwise: G has diagonal
    blocks only.

    mean block: u_m / d; variance block: -grad_mean_tr * u_m / d + u_d / (2 d^2).
    """
    d = prior.var
    p = d.shape[0]
    if grad_mean_tr.shape != d.shape or u.shape != (2 * p,):
        raise ValueError("dimension mismatch")
    um_over_d = u[:p] / d
    return np.concatenate([um_over_d,
                           -grad_mean_tr * um_over_d + 0.5 * u[p:] / d ** 2])


def implicit_meta_gradient(oracle: GradientOracle, data: TaskData,
                           v_hat: VariationalParams, prior: PriorParams,
                           meta_loss: MetaLossSpec, cg: CgConfig,
                           mc_budget=None, seed: int = 0,
                           mask_variance: bool = False) -> MetaGradient:
    """Meta-gradient via CG on H u = grad_1, then G u + grad_2.

    ``mask_variance`` restricts the system and output to the mean block
    (frozen-variance reduction to the proximal-regularized special case).
    """
    p = v_hat.dim
    grad1, grad2 = meta_loss_grads(oracle, data, v_hat, prior, meta_loss, seed)
    g_tr = oracle.nll_grad(v_hat, data, "train", mc_budget, seed)
    h = h_operator(oracle, data, v_hat, prior, g_tr.wrt_var, mc_budget, seed)
    b = grad1.concat()
    if mask_variance:
        b[p:] = 0.0

    def matvec(x: np.ndarray) -> np.ndarray:
        out = h(x)
        if mask_variance:  # CG from a zero variance block then keeps it zero
            out[p:] = 0.0
        return out

    calls_before = oracle.hvp_calls
    u_hat, iters, residual = conjugate_gradient(matvec, b, cg)
    hvp_calls = oracle.hvp_calls - calls_before

    g = apply_g(prior, g_tr.wrt_mean, u_hat) + grad2.concat()
    if mask_variance:
        g[p:] = 0.0
    return MetaGradient.from_raw(g[:p], g[p:], prior.var,
                                 hvp_calls=hvp_calls, cg_iters=iters,
                                 cg_residual=residual)
