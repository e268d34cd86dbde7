"""Self-contained invariant suite behind the ``verify`` CLI command.

Each oracle comparison is a public function that takes an instance and
returns ``(estimate, reference)``; ``run_all_checks`` calls them on fixed
instances and the tests call them on their own, so every finite-difference
loop, probe and dense solve exists once. Each check produces a named record
with the measured value and its tolerance; the command prints one line per
check and exits nonzero if any fails. No network, no external data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from .hyper_implicit import (CgConfig, conjugate_gradient, h_operator,
                             implicit_meta_gradient)
from .hyper_unrolled import fd_meta_gradient, unrolled_meta_gradient
from .inner_opt import (InnerConfig, closed_form_linear_optimum,
                        inner_objective_log_grad, inner_objective_value,
                        run_inner_gd)
from .linear_oracle import (dense_snapshot, fd_jacobian_of_optimum, nrmse,
                            oracle_dense_h, oracle_meta_gradient)
from .meta_loss import MetaLossSpec
from .meta_driver import TaskGenSpec, generate_linear_tasks, imaml_prior
from .models import LinearGaussianModel
from .vi_core import (PriorParams, TangentVector, VariationalParams,
                      central_fd, derive_seed, kl_diag_gaussian, kl_grad,
                      raw_to_log_grad, standard_normal)


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return (f"{status}  {self.name}: measured={self.measured:.3e} "
                f"tolerance={self.tolerance:.3e}{extra}")


def rel_err(got, want, floor=0.0) -> float:
    """||got - want|| / max(||want||, floor), Frobenius for matrices."""
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), floor)


def _probe(matvec, n):
    """Dense n-column matrix whose column j is matvec(e_j)."""
    return np.column_stack([matvec(np.eye(n)[j]) for j in range(n)])


def kl_grad_vs_fd(q, prior):
    """kl_grad in (m_q, d_q, m_p, d_p) vs central FD with relative steps."""
    def f(x):
        qm, qd, pm, pd = np.split(x, 4)
        return kl_diag_gaussian(VariationalParams.from_var(qm, qd),
                                PriorParams.from_var(pm, pd))

    x = np.concatenate([q.mean, q.var, prior.mean, prior.var])
    g_q, g_pr = kl_grad(q, prior)
    return (np.concatenate([g_q.wrt_mean, g_q.wrt_var,
                            g_pr.wrt_mean, g_pr.wrt_var]),
            central_fd(f, x, 1e-6 * (1 + np.abs(x))))


def log_chain_rule_vs_fd(f, grad_d, d):
    """raw_to_log_grad(grad_d, d) vs central FD of f(exp(ell)), ell = log d."""
    return (raw_to_log_grad(grad_d, d),
            central_fd(lambda ell: f(np.exp(ell)), np.log(d),
                       np.full(len(d), 1e-7)))


def nll_grad_vs_fd(model, data, v, eps=1e-7, mc_budget=None, seed=0):
    """Train-split nll_grad in (m, d) vs central FD with relative steps;
    MC oracles use common random numbers through ``seed``."""
    p = v.dim

    def f(x):
        return model.expected_nll(VariationalParams.from_var(x[:p], x[p:]),
                                  data, "train", mc_budget, seed)

    steps = np.concatenate([eps * (1 + np.abs(v.mean)), eps * v.var])
    return (model.nll_grad(v, data, "train", mc_budget, seed).concat(),
            central_fd(f, np.concatenate([v.mean, v.var]), steps))


def nll_hvp_vs_dense_fd(model, data, v):
    """HVP probes vs the dense second-order FD Hessian of the expected nll."""
    # quadratic objective: a larger step adds no bias but kills cancellation
    n = 2 * v.dim
    probed = _probe(lambda e: model.nll_hvp(
        v, data, "train", TangentVector(e[:v.dim], e[v.dim:])).concat(), n)

    def f(vec):
        return model.expected_nll(
            VariationalParams.from_var(vec[:v.dim],
                                       np.maximum(vec[v.dim:], 1e-12)),
            data, "train")

    x0 = np.concatenate([v.mean, v.var])
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            hi = 1e-3 * (1 + abs(x0[i]))
            hj = 1e-3 * (1 + abs(x0[j]))
            ei = hi * np.eye(n)[i]
            ej = hj * np.eye(n)[j]
            dense[i, j] = (f(x0 + ei + ej) - f(x0 + ei - ej)
                           - f(x0 - ei + ej) + f(x0 - ei - ej)) / (4 * hi * hj)
    return probed, dense


def cg_vs_dense_solve(spd, b, max_iters):
    """CG on the SPD system spd x = b (rel_tol 0) vs np.linalg.solve."""
    sol, _, _ = conjugate_gradient(lambda x: spd @ x, b,
                                   CgConfig(max_iters=max_iters, rel_tol=0.0))
    return sol, np.linalg.solve(spd, b)


def h_matvec_vs_dense(model, data, v, prior):
    """h_operator's matvec probed on unit vectors vs the dense assembled H."""
    g_var = model.nll_grad(v, data, "train").wrt_var
    return (_probe(h_operator(model, data, v, prior, g_var), 2 * v.dim),
            oracle_dense_h(prior, data, v))


def log_stationarity(model, data, v, prior):
    """Residual ||grad|| of the inner objective at v in (m, log d), and the
    scale 1 + ||(m, log d)|| it is measured against."""
    g_log = inner_objective_log_grad(model, data, v, prior, None, 0)
    return (np.linalg.norm(g_log),
            1.0 + np.linalg.norm(np.concatenate([v.mean, v.log_var])))


def lemma1_jacobian_vs_fd(prior, data):
    """Dense implicit (Lemma-1) Jacobian vs the FD Jacobian of the optimum."""
    return (dense_snapshot(prior, data).jacobian_dense,
            fd_jacobian_of_optimum(prior, data))


def unrolled_vs_fd(model, data, prior, icfg, spec, seed=0):
    """Reverse sweep through a recorded unroll vs FD through the same unroll,
    both in log coordinates; ``icfg`` must record the trace."""
    _, trace = run_inner_gd(model, data, prior, icfg, seed=seed)
    ug = unrolled_meta_gradient(model, data, trace, prior, spec, seed=seed)
    fd = fd_meta_gradient(model, data, prior, icfg, spec, seed=seed)
    return ug.concat_log(), fd.concat_log()


def imaml_jacobian_vs_dense(model, data, prior, lam):
    """Frozen-variance mean-block Jacobian from CG vs (H/lambda + I)^-1."""
    p = prior.dim
    v_fix = VariationalParams.from_prior(prior)
    h = h_operator(model, data, v_fix, prior,
                   model.nll_grad(v_fix, data, "train").wrt_var)

    def mv(x):  # the mean block of H; identity on the variance block
        out = h(np.concatenate([x[:p], np.zeros(p)]))
        out[p:] = x[p:]
        return out

    jac = _probe(lambda e: conjugate_gradient(
        mv, np.concatenate([e, np.zeros(p)]),
        CgConfig(max_iters=4 * p, rel_tol=0.0))[0][:p] / prior.var, p)
    hess_m = data.x_tr @ data.x_tr.T / data.noise_sigma ** 2
    return jac, np.linalg.inv(hess_m / lam + np.eye(p))


def _task(p=8, seed=0, **kw):
    defaults = dict(dim=p, n_tr=2 * p, n_val=2 * p, n_tasks=1, seed=seed,
                    noise_sigma=0.05, cond_kappa=10.0, design_scale=0.2)
    defaults.update(kw)
    tasks, _ = generate_linear_tasks(TaskGenSpec(**defaults))
    return tasks[0]


def _prior(p, seed=0, var=0.8):
    mean = 0.5 * standard_normal(p, derive_seed(seed, 1234))
    return PriorParams(mean, np.log(np.full(p, var)))


def run_all_checks() -> List[CheckResult]:
    results: List[CheckResult] = []

    def record(name, measured, tolerance, note="", upper=True):
        ok = measured <= tolerance if upper else measured >= tolerance
        results.append(CheckResult(name, float(measured), float(tolerance),
                                   bool(ok), note))

    rng = np.random.default_rng(7)

    # KL nonnegativity and zero at equality
    worst = 0.0
    for p in (1, 2, 8, 32):
        prior = _prior(p, seed=p)
        q = VariationalParams(prior.mean + rng.normal(size=p),
                              prior.log_var + rng.normal(size=p))
        worst = min(worst, kl_diag_gaussian(q, prior))
        same = kl_diag_gaussian(VariationalParams.from_prior(prior), prior)
        record(f"kl_zero_at_equality_p{p}", abs(same), 1e-12)
    record("kl_nonnegative", -worst, 1e-12)

    # KL gradients vs central finite differences
    for p in (1, 2, 8, 32):
        prior = _prior(p, seed=10 + p)
        q = VariationalParams(prior.mean + 0.5 * rng.normal(size=p),
                              prior.log_var + 0.3 * rng.normal(size=p))
        record(f"kl_grad_vs_fd_p{p}",
               rel_err(*kl_grad_vs_fd(q, prior), floor=1e-12), 1e-6)

    # log-coordinate chain rule on f(d) = sum a d^2 + a d
    d = rng.uniform(0.2, 2.0, 5)
    a = rng.normal(size=5)
    record("log_chain_rule_vs_fd", rel_err(*log_chain_rule_vs_fd(
        lambda x: np.sum(a * x ** 2 + a * x), 2 * a * d + a, d)), 1e-6)

    # linear-model gradient and HVP vs finite differences
    p = 6
    data = _task(p=p, seed=3)
    model = LinearGaussianModel(p)
    prior = _prior(p, seed=3)
    v = VariationalParams(prior.mean + 0.2 * rng.normal(size=p),
                          prior.log_var + 0.2 * rng.normal(size=p))
    record("linear_grad_vs_fd", rel_err(*nll_grad_vs_fd(model, data, v)), 1e-6)
    record("linear_hvp_vs_dense_fd",
           rel_err(*nll_hvp_vs_dense_fd(model, data, v), floor=1.0), 1e-6)

    # CG exact solve vs dense for SPD systems
    for p_cg in (6, 16):
        a = rng.normal(size=(2 * p_cg, 2 * p_cg))
        spd = a @ a.T + 2 * p_cg * np.eye(2 * p_cg)
        b = rng.normal(size=2 * p_cg)
        record(f"cg_vs_dense_solve_p{p_cg}",
               rel_err(*cg_vs_dense_solve(spd, b, 2 * 2 * p_cg)), 1e-8)

    # inner GD: stationarity of the closed-form optimum, contraction, descent
    p = 8
    data = _task(p=p, seed=5)
    model = LinearGaussianModel(p)
    prior = _prior(p, seed=5)
    v_star = closed_form_linear_optimum(prior, data)
    residual, scale = log_stationarity(model, data, v_star, prior)
    record("stationarity_at_closed_form", residual / scale, 1e-8)
    record("posterior_variance_contraction",
           float(np.max(v_star.var - prior.var)), 1e-15)

    # demonstration: the alternative 1/(2 sigma^2) variance factor is NOT the
    # stationary point of the descended objective (its residual, against the
    # closed-form optimum's scale, must be large)
    v_printed = closed_form_linear_optimum(prior, data,
                                           printed_variance_factor=True)
    residual, _ = log_stationarity(model, data, v_printed, prior)
    record("variance_factor_discrepancy_demo", residual / scale, 1e-8,
           upper=False,
           note="alternative 1/(2 sigma^2) variance scaling fails stationarity,"
                " as expected")

    cfg = InnerConfig(steps=300, lr=0.01)
    vals = []
    for k in (0, 50, 100, 300):
        v_k, _ = run_inner_gd(model, data, prior, replace(cfg, steps=k), seed=1)
        vals.append(inner_objective_value(model, data, v_k, prior, None, 0))
    record("inner_objective_descent", float(max(np.diff(vals))), 1e-12,
           note="step-size problem if this fails, not a gradient bug")

    # Lemma-1 implicit Jacobian vs FD Jacobian of the closed-form optimum
    for p_l in (2, 4, 8):
        record(f"lemma1_jacobian_vs_fd_p{p_l}", rel_err(*lemma1_jacobian_vs_fd(
            _prior(p_l, seed=20 + p_l), _task(p=p_l, seed=20 + p_l))), 1e-4)

    # probing H's matvec reproduces the dense H
    p = 3
    data = _task(p=p, seed=9)
    prior = _prior(p, seed=9)
    v = closed_form_linear_optimum(prior, data)
    record("h_matvec_vs_dense", rel_err(*h_matvec_vs_dense(
        LinearGaussianModel(p), data, v, prior)), 1e-10)

    # unrolled vs FD-through-the-unroll, and exact cost counters
    p = 4
    data = _task(p=p, seed=11)
    prior = _prior(p, seed=11)
    model = LinearGaussianModel(p)
    spec = MetaLossSpec()
    icfg = InnerConfig(steps=5, lr=0.01, record_trace=True)
    before = model.hvp_calls
    got, want = unrolled_vs_fd(model, data, prior, icfg, spec, seed=2)
    record("unrolled_hvp_count_equals_k",
           abs(model.hvp_calls - before - icfg.steps), 0.0)
    record("unrolled_vs_fd_through_unroll", rel_err(got, want), 1e-5)

    # implicit path: dense-oracle agreement and cost invariance in K
    truth = oracle_meta_gradient(prior, data, spec)
    v_star = closed_form_linear_optimum(prior, data)
    est = implicit_meta_gradient(model, data, v_star, prior, spec,
                                 CgConfig(max_iters=4 * p, rel_tol=0.0))
    record("implicit_vs_dense_oracle", nrmse(est, truth), 1e-8)
    calls = []
    for k in (1, 100):
        v_k, _ = run_inner_gd(model, data, prior,
                              InnerConfig(steps=k, lr=0.01), seed=2)
        g_k = implicit_meta_gradient(model, data, v_k, prior, spec,
                                     CgConfig(max_iters=3, rel_tol=0.0))
        calls.append(g_k.hvp_calls)
        record(f"implicit_hvp_equals_cg_iters_k{k}",
               abs(g_k.hvp_calls - g_k.cg_iters), 0.0)
    record("implicit_cost_invariant_in_k", abs(calls[0] - calls[1]), 0.0)

    # iMAML reduction: mean-block Jacobian equals (H/lambda + I)^-1
    p = 4
    lam = 2.5
    record("imaml_reduction_vs_dense", rel_err(*imaml_jacobian_vs_dense(
        LinearGaussianModel(p), _task(p=p, seed=13),
        imaml_prior(p, 0.3 * np.ones(p), lam), lam)), 1e-10)

    return results
