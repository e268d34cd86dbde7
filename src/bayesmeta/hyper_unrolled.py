"""Explicit meta-gradient: reverse-mode through the recorded inner GD trace.

The inner update runs in w = (mean, log-variance) coordinates, so the reverse
sweep propagates adjoints through exactly that map: one train expected-nll
HVP per step plus analytic KL second-derivative blocks and the analytic
theta-partials of the step. The step's own variance gradient, which the
log-coordinate chain rule needs, is read from the trace, not recomputed. Also
provides the finite-difference meta-gradient of the composed map
theta -> L_val(inner_gd(theta), theta), the ground truth both paths are
validated against.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .inner_opt import InnerConfig, InnerTrace, run_inner_gd
from .meta_loss import MetaGradient, MetaLossSpec, meta_loss_grads, meta_loss_value
from .models import GradientOracle, TaskData
from .vi_core import PriorParams, TangentVector, central_fd

FD_EPS_DEFAULT = 1e-5


def unrolled_meta_gradient(oracle: GradientOracle, data: TaskData,
                           trace: InnerTrace, prior: PriorParams,
                           spec: MetaLossSpec, seed: int = 0) -> MetaGradient:
    """Backpropagate the validation meta-loss through the K recorded GD steps.

    Exactly K oracle HVPs are performed (one per step) and no inner
    gradient: the trace holds each step's. KL curvature and the
    prior-partials of each step are analytic.
    """
    if trace is None:
        raise ValueError("unrolled gradient needs a recorded trace")
    cfg = trace.cfg
    if len(trace.step_seeds) != trace.steps:
        raise ValueError("trace/config mismatch: seed list length")
    k_steps = trace.steps
    alpha = cfg.lr
    p = prior.dim
    d_prior = prior.var
    d_prior_sq = d_prior ** 2

    v_final = trace.point(k_steps)
    grad1, grad2 = meta_loss_grads(oracle, data, v_final, prior, spec, seed)

    # adjoint in (mean, log-var) coordinates at v^K
    a_m = grad1.wrt_mean.copy()
    a_l = v_final.var * grad1.wrt_var
    # meta-gradient accumulator in raw (m, d) coordinates
    g_m = grad2.wrt_mean.copy()
    g_d = grad2.wrt_var.copy()

    hvp_before = oracle.hvp_calls
    for k in range(k_steps - 1, -1, -1):
        v_k = trace.point(k)
        d_k = v_k.var
        step_seed = trace.step_seeds[k]
        if not np.all(np.isfinite(a_m)) or not np.all(np.isfinite(a_l)):
            raise FloatingPointError(f"non-finite adjoint at step {k}")

        # theta-partials of the step map (KL only; the nll has no theta term)
        g_m += alpha * a_m / d_prior
        g_d += alpha * ((v_k.mean - prior.mean) / d_prior_sq * a_m
                        + d_k / (2.0 * d_prior_sq) * a_l)

        # Hessian of the inner objective in log coordinates applied to (a_m, a_l):
        # raw HVP at u = (a_m, d_k * a_l), then chain-rule corrections.
        u = TangentVector._unchecked(a_m, d_k * a_l)
        hvp = oracle.nll_hvp(v_k, data, "train", u, cfg.mc_budget, step_seed)
        h_m = hvp.wrt_mean + a_m / d_prior
        h_d = hvp.wrt_var + a_l / (2.0 * d_k)
        h_l = d_k * h_d + d_k * trace.var_grads[k] * a_l

        a_m = a_m - alpha * h_m
        a_l = a_l - alpha * h_l

    assert oracle.hvp_calls - hvp_before == k_steps

    # boundary: v^0 = (m, log d) copied from the prior
    g_m += a_m
    g_d += a_l / d_prior
    return MetaGradient.from_raw(g_m, g_d, d_prior, hvp_calls=k_steps)


def fd_meta_gradient(oracle: GradientOracle, data: TaskData,
                     prior: PriorParams, inner_cfg: InnerConfig,
                     spec: MetaLossSpec, seed: int = 0,
                     fd_eps: float = FD_EPS_DEFAULT) -> MetaGradient:
    """Central finite differences of theta -> L_val(inner_gd(theta), theta).

    Perturbs all 2p coordinates of (m, log d) with common random numbers;
    costs 4p full inner runs. Ground-truth oracle for tests.
    """
    cfg = replace(inner_cfg, record_trace=False)
    p = prior.dim

    def composed(w):
        pr = PriorParams(w[:p], w[p:])
        v, _ = run_inner_gd(oracle, data, pr, cfg, seed)
        return meta_loss_value(oracle, data, v, pr, spec, seed)

    w = np.concatenate([prior.mean, prior.log_var])
    g = central_fd(composed, w, fd_eps * (1.0 + np.abs(w)))
    g_l = g[p:]
    return MetaGradient(wrt_mean=g[:p], wrt_var=g_l / prior.var,
                        wrt_log_var=g_l)
