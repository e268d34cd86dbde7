"""Dense ground truth for the linear-Gaussian case.

Everything here is exact (up to dense linear algebra): the full 2p x 2p
implicit system H, the block matrix G, the implicit Jacobian G H^-1, the
oracle meta-gradient at the closed-form task optimum, and the NRMSE metric
used to judge every approximate gradient path. Dense paths cap p at 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hyper_implicit import h_diag_blocks
from .inner_opt import closed_form_linear_optimum
from .meta_loss import MetaGradient, MetaLossSpec, meta_loss_grads
from .models import LinearGaussianModel, TaskData
from .vi_core import PriorParams, VariationalParams, central_fd

DENSE_P_MAX = 64


def _check_p(p: int):
    if p > DENSE_P_MAX:
        raise ValueError(f"dense oracle capped at p={DENSE_P_MAX}, got {p}")


def oracle_dense_h(prior: PriorParams, data: TaskData, v: VariationalParams
                   ) -> np.ndarray:
    """Dense H(v): nll Hessian (mean block X X^T / sigma^2) + diagonal block."""
    p = prior.dim
    _check_p(p)
    model = LinearGaussianModel(p)
    g_var = model.nll_grad(v, data, "train").wrt_var
    diag_m, diag_d = h_diag_blocks(prior, g_var)
    h = np.zeros((2 * p, 2 * p))
    xxt = data.x_tr @ data.x_tr.T if data.x_tr.shape[1] > 0 else np.zeros((p, p))
    h[:p, :p] = xxt / data.noise_sigma ** 2 + np.diag(diag_m)
    h[p:, p:] = np.diag(diag_d)
    return h


def oracle_dense_g(prior: PriorParams, data: TaskData, v: VariationalParams
                   ) -> np.ndarray:
    """Dense G(v): block matrix of diagonals from the implicit Jacobian."""
    p = prior.dim
    _check_p(p)
    model = LinearGaussianModel(p)
    g_mean = model.nll_grad(v, data, "train").wrt_mean
    d_inv = 1.0 / prior.var
    g = np.zeros((2 * p, 2 * p))
    g[:p, :p] = np.diag(d_inv)
    g[p:, :p] = np.diag(-g_mean * d_inv)
    g[p:, p:] = np.diag(0.5 * d_inv ** 2)
    return g


@dataclass
class DenseBilevelSnapshot:
    v_star: VariationalParams
    h_dense: np.ndarray
    g_dense: np.ndarray
    jacobian_dense: np.ndarray  # G H^-1: (i,j) = d [v*]_j / d [theta]_i, raw coords


def dense_snapshot(prior: PriorParams, data: TaskData) -> DenseBilevelSnapshot:
    v_star = closed_form_linear_optimum(prior, data)
    h = oracle_dense_h(prior, data, v_star)
    g = oracle_dense_g(prior, data, v_star)
    jac = g @ np.linalg.inv(h)
    return DenseBilevelSnapshot(v_star=v_star, h_dense=h, g_dense=g,
                                jacobian_dense=jac)


def fd_jacobian_of_optimum(prior: PriorParams, data: TaskData,
                           fd_eps: float = 1e-6) -> np.ndarray:
    """Central-FD Jacobian of theta -> v*(theta) in raw coordinates.

    theta is perturbed in (m, log d) coordinates and the d-rows are
    chain-ruled back to raw variance, matching the optimization coordinates.
    Entry (i, j) is d [v*]_j / d [theta]_i with v* = (m*, d*) concatenated.
    """
    p = prior.dim
    _check_p(p)

    def v_star_vec(w):
        vs = closed_form_linear_optimum(PriorParams(w[:p], w[p:]), data)
        return np.concatenate([vs.mean, vs.var])

    w = np.concatenate([prior.mean, prior.log_var])
    jac = central_fd(v_star_vec, w, fd_eps * (1.0 + np.abs(w)))
    jac[p:] /= prior.var[:, None]  # back to raw-d coordinates
    return jac


def oracle_meta_gradient(prior: PriorParams, data: TaskData,
                         spec: MetaLossSpec, seed: int = 0) -> MetaGradient:
    """Exact meta-gradient at the closed-form optimum via dense solve."""
    p = prior.dim
    _check_p(p)
    model = LinearGaussianModel(p)
    v_star = closed_form_linear_optimum(prior, data)
    h = oracle_dense_h(prior, data, v_star)
    grad1, grad2 = meta_loss_grads(model, data, v_star, prior, spec, seed)
    try:
        u = np.linalg.solve(h, grad1.concat())
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular implicit system H: {exc}")
    g = oracle_dense_g(prior, data, v_star)
    raw = g @ u + grad2.concat()
    return MetaGradient.from_raw(raw[:p], raw[p:], prior.var)


def nrmse(estimate: MetaGradient, truth: MetaGradient,
          coords: str = "log") -> float:
    """||estimate - truth||_2 / ||truth||_2 over (mean, variance-block).

    ``coords`` selects the variance-block coordinates: "log" (headline) or
    "raw".
    """
    if coords == "log":
        e, t = estimate.concat_log(), truth.concat_log()
    elif coords == "raw":
        e, t = estimate.concat_raw(), truth.concat_raw()
    else:
        raise ValueError(f"unknown coords {coords!r}")
    t_norm = np.linalg.norm(t)
    if t_norm == 0.0:
        raise ValueError("truth gradient has zero norm")
    return float(np.linalg.norm(e - t) / t_norm)
