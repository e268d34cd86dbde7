"""Acceptance gate: ten end-to-end checks of the meta-gradient library.

Each test prints exactly one PASS/FAIL line; run with ``pytest -s`` to see
the lines for passing tests as well. The heavy shared sweep (criteria 4 and
8) is computed once in a module-scoped fixture.
"""

import time
import timeit

import numpy as np
import pytest

from bayesmeta import (CgConfig, InnerConfig, LinearGaussianModel, MLPModel,
                       MetaConfig, MetaLossSpec, PriorParams, TaskGenSpec,
                       closed_form_linear_optimum, ece_mce,
                       generate_blob_tasks, generate_linear_tasks, imaml_prior,
                       implicit_meta_gradient, meta_step, nrmse,
                       oracle_meta_gradient, posterior_predictive_probs,
                       run_inner_gd, sample_batch, unrolled_meta_gradient)
from bayesmeta.meta_driver import BlobTaskSpec
from bayesmeta.verify import (imaml_jacobian_vs_dense, lemma1_jacobian_vs_fd,
                              rel_err, run_all_checks, unrolled_vs_fd)
from bayesmeta.vi_core import derive_seed
from helpers import random_prior, small_task

DIM = 32
K_GRID = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
L_GRID = [1, 2, 5, 10]
N_SEEDS = 20


def _report(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def benchmark_task(seed):
    """One task from the headline benchmark configuration."""
    spec = TaskGenSpec(dim=DIM, n_tr=32, n_val=64, n_tasks=1, seed=seed,
                       noise_sigma=0.01, cond_kappa=20.0, design_scale=0.018)
    tasks, _ = generate_linear_tasks(spec)
    rng = np.random.default_rng(derive_seed(seed, 99))
    prior = PriorParams(rng.standard_normal(DIM), np.zeros(DIM))
    return tasks[0], prior


@pytest.fixture(scope="module")
def sweep():
    """Per-seed NRMSE of both estimators over the K grid (truncation budget
    L=2 for the solver path) plus the solver-budget trend at the largest K."""
    model = LinearGaussianModel(DIM)
    spec = MetaLossSpec()
    unrolled = {k: [] for k in K_GRID}
    implicit = {k: [] for k in K_GRID}
    l_trend = {l: [] for l in L_GRID}
    for seed in range(N_SEEDS):
        data, prior = benchmark_task(seed)
        truth = oracle_meta_gradient(prior, data, spec)
        for k in K_GRID:
            cfg = InnerConfig(steps=k, lr=0.01, record_trace=True)
            v_hat, trace = run_inner_gd(model, data, prior, cfg)
            g_u = unrolled_meta_gradient(model, data, trace, prior, spec)
            unrolled[k].append(nrmse(g_u, truth))
            g_i = implicit_meta_gradient(
                model, data, v_hat, prior, spec,
                CgConfig(max_iters=2, rel_tol=1e-10))
            implicit[k].append(nrmse(g_i, truth))
            if k == max(K_GRID):
                for l_budget in L_GRID:
                    g_l = implicit_meta_gradient(
                        model, data, v_hat, prior, spec,
                        CgConfig(max_iters=l_budget, rel_tol=1e-10))
                    l_trend[l_budget].append(nrmse(g_l, truth))
    med = lambda xs: float(np.median(xs))
    return ({k: med(v) for k, v in unrolled.items()},
            {k: med(v) for k, v in implicit.items()},
            {l: med(v) for l, v in l_trend.items()})


def test_criterion_1_implicit_jacobian_matches_fd():
    worst = max(rel_err(*lemma1_jacobian_vs_fd(
        random_prior(p, p), small_task(p, n=2 * p, seed=p)))
        for p in (2, 4, 8))
    _report(1, "implicit response Jacobian matches finite differences",
            worst <= 1e-4, f"worst rel err {worst:.2e} <= 1e-4")


def test_criterion_2_implicit_equals_dense_oracle():
    data, prior = benchmark_task(0)
    spec = MetaLossSpec()
    v_star = closed_form_linear_optimum(prior, data)
    got = implicit_meta_gradient(LinearGaussianModel(DIM), data, v_star,
                                 prior, spec,
                                 CgConfig(max_iters=4 * DIM, rel_tol=0.0))
    err = nrmse(got, oracle_meta_gradient(prior, data, spec))
    _report(2, "full-budget solver path equals the dense ground truth",
            err <= 1e-8, f"NRMSE {err:.2e} <= 1e-8")


def test_criterion_3_unrolled_equals_fd():
    model = LinearGaussianModel(4)
    data = small_task(4, seed=6)
    prior = random_prior(4, 6)
    worst = max(rel_err(*unrolled_vs_fd(
        model, data, prior, InnerConfig(steps=k, lr=0.01, record_trace=True),
        MetaLossSpec())) for k in (1, 5, 20))
    _report(3, "reverse sweep matches finite differences through the unroll",
            worst <= 1e-5, f"worst rel err {worst:.2e} <= 1e-5")


def test_criterion_4_error_curves_cross(sweep):
    med_u, med_i, _ = sweep
    improves = med_u[100] < med_u[1] and med_i[100] < med_i[1]
    unrolled_wins_small_k = med_u[1] < med_i[1]
    implicit_wins_somewhere = any(med_i[k] < med_u[k]
                                  for k in K_GRID if k <= 50)
    ok = improves and unrolled_wins_small_k and implicit_wins_somewhere
    _report(4, "error falls with inner steps and the two estimators cross",
            ok, f"K=1 unrolled {med_u[1]:.3f} < implicit {med_i[1]:.3f}; "
                f"K=100 {med_u[100]:.2e}/{med_i[100]:.2e}")


def test_criterion_5_cost_counters_exact():
    model = LinearGaussianModel(DIM)
    data, prior = benchmark_task(0)
    spec = MetaLossSpec()
    ok = True
    implicit_hvps = set()
    for k in (1, 10, 100, 1000):
        cfg = InnerConfig(steps=k, lr=0.01, record_trace=True)
        v_hat, trace = run_inner_gd(model, data, prior, cfg)
        retained = trace.iterates.size
        ok &= retained == (k + 1) * 2 * DIM
        before = model.hvp_calls
        g_u = unrolled_meta_gradient(model, data, trace, prior, spec)
        ok &= g_u.hvp_calls == k and model.hvp_calls - before == k
        budget = 5
        g_i = implicit_meta_gradient(model, data, v_hat, prior, spec,
                                     CgConfig(max_iters=budget,
                                              rel_tol=1e-10))
        ok &= g_i.hvp_calls <= budget
        implicit_hvps.add(g_i.hvp_calls)
    ok &= len(implicit_hvps) == 1  # independent of K
    _report(5, "unrolled costs exactly K HVPs and (K+1)*2p retained floats; "
               "solver path is K-independent", ok)


def test_criterion_6_backward_time_scaling():
    model = LinearGaussianModel(DIM)
    data, prior = benchmark_task(0)
    spec = MetaLossSpec()
    ks = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    traces, v_hats = {}, {}
    for k in ks:
        v_hats[k], traces[k] = run_inner_gd(
            model, data, prior, InnerConfig(steps=k, lr=0.01,
                                            record_trace=True))
    # rel_tol=0 pins the solver at exactly max_iters iterations for every K,
    # so only genuine K-dependence (none) can move its wall time
    cg = CgConfig(max_iters=5, rel_tol=0.0)
    # Both paths are timed round-robin over K, so the machine's speed swings
    # fall on every K alike instead of on whichever K was timed during them.
    best_unrolled = {k: np.inf for k in ks}
    for _ in range(5):
        for k in ks:
            best_unrolled[k] = min(best_unrolled[k], timeit.timeit(
                lambda: unrolled_meta_gradient(model, data, traces[k], prior,
                                               spec), number=3) / 3)
    t_unrolled = [best_unrolled[k] for k in ks]
    # The flat path runs 36 short rounds (5 calls per K, 180 in all) and takes
    # each K's time relative to the median of its own round. The machine can
    # run at half speed for seconds with fast spells of a few ms, so a per-K
    # minimum would compare a K timed in such a spell with one that missed it.
    rel = np.empty((36, len(ks)))
    for r in range(36):
        times = np.array([timeit.timeit(
            lambda: implicit_meta_gradient(model, data, v_hats[k], prior,
                                           spec, cg), number=5) for k in ks])
        rel[r] = times / np.median(times)
    t_implicit = np.median(rel, axis=0)
    slope, intercept = np.polyfit(ks, t_unrolled, 1)
    fit = slope * np.array(ks) + intercept
    ss_res = np.sum((np.array(t_unrolled) - fit) ** 2)
    ss_tot = np.sum((np.array(t_unrolled) - np.mean(t_unrolled)) ** 2)
    r2 = 1 - ss_res / ss_tot
    spread = max(t_implicit) / min(t_implicit) - 1.0
    ok = slope > 0 and r2 >= 0.9 and spread < 0.25
    _report(6, "unrolled backward time grows linearly in K while the solver "
               "path stays flat", ok,
            f"R^2 {r2:.3f} >= 0.9, slope {slope:.2e} > 0, "
            f"flat-path spread {100 * spread:.1f}% < 25%")


def test_criterion_7_frozen_variance_reduction():
    p = 4
    lam = 2.5
    prior = imaml_prior(p, np.random.default_rng(17).normal(size=p), lam)
    err = rel_err(*imaml_jacobian_vs_dense(
        LinearGaussianModel(p), small_task(p, n=8, seed=17), prior, lam))
    _report(7, "frozen-isotropic-variance mean-block Jacobian equals the "
               "ridge-style dense inverse", err <= 1e-10,
            f"rel err {err:.2e} <= 1e-10")


def test_criterion_8_error_trends_monotone(sweep):
    med_u, med_i, med_l = sweep
    u_vals = [med_u[k] for k in K_GRID]
    i_vals = [med_i[k] for k in K_GRID]
    l_vals = [med_l[l] for l in L_GRID]
    k_monotone = all(b <= a for a, b in zip(u_vals, u_vals[1:])) and \
        all(b <= a for a, b in zip(i_vals, i_vals[1:]))
    l_monotone = all(b <= a for a, b in zip(l_vals, l_vals[1:]))
    _report(8, "median error non-increasing in inner steps (both methods) "
               "and in solver budget", k_monotone and l_monotone,
            f"L trend at K={max(K_GRID)}: " +
            ", ".join(f"L={l}:{med_l[l]:.2e}" for l in L_GRID))


def test_criterion_9_verification_suite_green():
    results = run_all_checks()
    failed = [r.name for r in results if not r.passed]
    _report(9, "built-in verification suite all green", not failed,
            f"{len(results)} checks" + (f", failed: {failed}" if failed
                                        else ""))


def test_criterion_10_training_improves_heldout_nll():
    t0 = time.time()
    model = MLPModel([2, 16, 5])
    p = model.dim
    tasks = generate_blob_tasks(BlobTaskSpec(n_tasks=40, seed=0))
    held = generate_blob_tasks(BlobTaskSpec(n_tasks=10,
                                            seed=derive_seed(0, 1)))
    inner = InnerConfig(steps=30, lr=0.02, mc_budget=16)
    cfg = MetaConfig(
        method="implicit", meta_lr=0.005, batch_size=4, iterations=2000,
        inner=inner,
        cg=CgConfig(max_iters=5, abort_on_negative_curvature=False),
        loss=MetaLossSpec(mc_budget=64), seed=0)

    def heldout_nll(prior):
        vals = []
        for t, data in enumerate(held):
            v, _ = run_inner_gd(model, data, prior, inner,
                                seed=derive_seed(123, t))
            vals.append(model.expected_nll(v, data, "val", 64,
                                           derive_seed(456, t)))
        return float(np.mean(vals))

    prior = PriorParams(np.zeros(p), np.log(0.1) * np.ones(p))
    before = heldout_nll(prior)
    for r in range(cfg.iterations):
        batch = sample_batch(len(tasks), cfg.batch_size, cfg.seed, r)
        prior, _ = meta_step(prior, model, tasks, batch, cfg, r)
    after = heldout_nll(prior)

    probs, labels = [], []
    for t, data in enumerate(held):
        v, _ = run_inner_gd(model, data, prior, inner,
                            seed=derive_seed(123, t))
        pr, lb = posterior_predictive_probs(model, v, data, 64,
                                            derive_seed(456, t))
        probs.append(pr)
        labels.append(lb)
    cal = ece_mce(np.concatenate(probs), np.concatenate(labels), n_bins=10)
    _report(10, "meta-training the classifier prior reduces held-out nll",
            after < before,
            f"nll {before:.2f} -> {after:.2f}, ECE {cal['ece']:.3f}, "
            f"MCE {cal['mce']:.3f}, {time.time() - t0:.0f}s")
