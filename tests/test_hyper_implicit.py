"""Implicit-path tests: H-matvec vs dense assembly, CG vs dense solves,
meta-gradient vs the dense oracle, Jacobian vs finite differences, the
frozen-variance mask, and exact cost accounting. The oracle comparisons
come from bayesmeta.verify."""

import numpy as np
import pytest

from bayesmeta import (BlobTaskSpec, CgConfig, InnerConfig,
                       LinearGaussianModel, MetaLossSpec, MLPModel,
                       NegativeCurvatureError, PriorParams, apply_g,
                       closed_form_linear_optimum, conjugate_gradient,
                       generate_blob_tasks, h_operator, imaml_prior,
                       implicit_meta_gradient, meta_loss_grads, nrmse,
                       oracle_dense_g, oracle_meta_gradient, run_inner_gd)
from bayesmeta.verify import (cg_vs_dense_solve, h_matvec_vs_dense,
                              lemma1_jacobian_vs_fd, rel_err)
from helpers import random_prior, small_task


def h_at(model, data, v, prior):
    """H(v)'s matvec, its diagonal built from the train variance gradient."""
    return h_operator(model, data, v, prior,
                      model.nll_grad(v, data, "train").wrt_var)


class TestHMatvec:
    def test_probes_reconstruct_dense_h(self):
        p = 3
        data = small_task(p, n=6, seed=1)
        prior = random_prior(p, 1)
        v = closed_form_linear_optimum(prior, data)
        assert rel_err(*h_matvec_vs_dense(LinearGaussianModel(p), data, v,
                                          prior)) <= 1e-10

    def test_variance_block_at_optimum(self):
        # at the stationary point the variance diagonal equals d*^-2 / 2
        p = 3
        data = small_task(p, n=6, seed=2)
        prior = random_prior(p, 2)
        v_star = closed_form_linear_optimum(prior, data)
        h = h_at(LinearGaussianModel(p), data, v_star, prior)
        for i in range(p):
            out = h(np.eye(2 * p)[p + i])
            assert out[p + i] == pytest.approx(0.5 / v_star.var[i] ** 2,
                                               rel=1e-10)

    def test_zero_vector_counts_one_hvp(self):
        p = 3
        data = small_task(p, n=6, seed=3)
        model = LinearGaussianModel(p)
        prior = random_prior(p, 3)
        h = h_at(model, data, closed_form_linear_optimum(prior, data), prior)
        hvp0, grad0 = model.hvp_calls, model.grad_counter.count
        assert np.allclose(h(np.zeros(2 * p)), 0.0)
        assert model.hvp_calls == hvp0 + 1
        assert model.grad_counter.count == grad0

    def test_symmetry_as_bilinear_form(self):
        p = 4
        data = small_task(p, n=6, seed=4)
        prior = random_prior(p, 4)
        model = LinearGaussianModel(p)
        h = h_at(model, data, closed_form_linear_optimum(prior, data), prior)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.normal(size=2 * p)
            w = rng.normal(size=2 * p)
            assert abs(w @ h(u) - u @ h(w)) <= 1e-6 * (
                1 + np.linalg.norm(u) * np.linalg.norm(w))


class TestConjugateGradient:
    def test_identity_system(self):
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        x, iters, residual = conjugate_gradient(lambda t: t, rhs,
                                                CgConfig(max_iters=10))
        assert np.allclose(x, rhs, atol=1e-14)
        assert iters == 1
        assert residual <= 1e-14

    def test_spd_system_vs_dense(self):
        rng = np.random.default_rng(6)
        n = 6
        a = rng.normal(size=(n, n))
        spd = a @ a.T + n * np.eye(n)
        b = rng.normal(size=n)
        assert rel_err(*cg_vs_dense_solve(spd, b, 2 * n)) <= 1e-8

    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_spd_systems_up_to_p16(self, p):
        rng = np.random.default_rng(p)
        n = 2 * p
        a = rng.normal(size=(n, n))
        spd = a @ a.T + n * np.eye(n)
        b = rng.normal(size=n)
        assert rel_err(*cg_vs_dense_solve(spd, b, n)) <= 1e-8

    def test_budget_honored_and_error_decreases(self):
        rng = np.random.default_rng(7)
        n = 6
        a = rng.normal(size=(n, n))
        spd = a @ a.T + n * np.eye(n)
        b = rng.normal(size=n)
        ref = np.linalg.solve(spd, b)

        def solve(budget):
            x, iters, _ = conjugate_gradient(
                lambda t: spd @ t, b, CgConfig(max_iters=budget, rel_tol=0.0))
            err = x - ref
            return iters, float(err @ (spd @ err))  # energy-norm error

        iters1, e1 = solve(1)
        iters2, e2 = solve(2)
        assert iters1 == 1 and iters2 <= 2
        assert e2 < e1

    def test_zero_rhs(self):
        x, iters, residual = conjugate_gradient(lambda t: t, np.zeros(6),
                                                CgConfig(max_iters=5))
        assert np.allclose(x, 0.0)
        assert iters == 0 and residual == 0.0

    def test_negative_curvature_abort(self):
        neg = -np.eye(4)
        with pytest.raises(NegativeCurvatureError):
            conjugate_gradient(lambda t: neg @ t, np.ones(4),
                               CgConfig(max_iters=3))
        # with the abort disabled, CG stops quietly instead
        x, iters, _ = conjugate_gradient(
            lambda t: neg @ t, np.ones(4),
            CgConfig(max_iters=3, abort_on_negative_curvature=False))
        assert iters == 0

    def test_rel_tol_early_stop(self):
        _, iters, residual = conjugate_gradient(lambda t: t, np.ones(4),
                                                CgConfig(max_iters=10,
                                                         rel_tol=1e-6))
        assert iters == 1 and residual <= 1e-6


class TestApplyG:
    def test_zero_input(self):
        out = apply_g(random_prior(3), np.zeros(3), np.zeros(6))
        assert np.allclose(out, 0.0)

    def test_unit_prior_variance_case(self):
        p = 3
        prior = PriorParams(np.zeros(p), np.zeros(p))
        u = np.random.default_rng(8).normal(size=2 * p)
        out = apply_g(prior, np.zeros(p), u)
        assert np.allclose(out[:p], u[:p])
        assert np.allclose(out[p:], u[p:] / 2)

    def test_matches_dense_g(self):
        p = 4
        data = small_task(p, n=6, seed=9)
        prior = random_prior(p, 9)
        model = LinearGaussianModel(p)
        v = closed_form_linear_optimum(prior, data)
        g_dense = oracle_dense_g(prior, data, v)
        g_mean_tr = model.nll_grad(v, data, "train").wrt_mean
        u = np.random.default_rng(10).normal(size=2 * p)
        want = g_dense @ u
        got = apply_g(prior, g_mean_tr, u)
        assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want))


class TestImplicitMetaGradient:
    def test_matches_dense_oracle_at_optimum(self):
        p = 8
        data = small_task(p, n=16, seed=11)
        prior = random_prior(p, 11)
        model = LinearGaussianModel(p)
        spec = MetaLossSpec()
        v_star = closed_form_linear_optimum(prior, data)
        est = implicit_meta_gradient(model, data, v_star, prior, spec,
                                     CgConfig(max_iters=4 * p, rel_tol=0.0))
        truth = oracle_meta_gradient(prior, data, spec)
        assert nrmse(est, truth) <= 1e-8

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_jacobian_matches_fd(self, p):
        # keystone: column-by-column solves reproduce the FD Jacobian of the
        # prior-to-optimum map
        data = small_task(p, n=3 * p, seed=12 + p)
        prior = random_prior(p, 12 + p)
        assert rel_err(*lemma1_jacobian_vs_fd(prior, data)) <= 1e-4

    def test_grad2_zero_for_nll_only_loss(self):
        p = 4
        data = small_task(p, n=6, seed=13)
        prior = random_prior(p, 13)
        model = LinearGaussianModel(p)
        v = closed_form_linear_optimum(prior, data)
        _, grad2 = meta_loss_grads(model, data, v, prior, MetaLossSpec())
        assert np.array_equal(grad2.concat(), np.zeros(2 * p))

    def test_cost_invariant_in_inner_steps(self):
        p = 4
        data = small_task(p, n=6, seed=14)
        prior = random_prior(p, 14)
        model = LinearGaussianModel(p)
        spec = MetaLossSpec()
        cg = CgConfig(max_iters=3, rel_tol=0.0)
        calls = {}
        for k in (1, 100):
            v, _ = run_inner_gd(model, data, prior, InnerConfig(steps=k, lr=0.01))
            g = implicit_meta_gradient(model, data, v, prior, spec, cg)
            assert g.hvp_calls == g.cg_iters
            calls[k] = g.hvp_calls
        assert calls[1] == calls[100]

    @pytest.mark.parametrize("budget", [1, 3, 8])
    def test_linear_oracle_cost_is_two_gradients(self, budget):
        # the val and train gradients; CG adds HVPs only
        p = 4
        data = small_task(p, n=6, seed=17)
        prior = random_prior(p, 17)
        model = LinearGaussianModel(p)
        v = closed_form_linear_optimum(prior, data)
        grad0 = model.grad_counter.count
        g = implicit_meta_gradient(model, data, v, prior, MetaLossSpec(),
                                   CgConfig(max_iters=budget, rel_tol=0.0))
        assert model.grad_counter.count - grad0 == 2
        assert g.hvp_calls == g.cg_iters == budget

    @pytest.mark.parametrize("budget", [1, 3])
    def test_mlp_oracle_cost_is_two_gradients_per_hvp(self, budget):
        # the MLP's FD HVP is two gradients, and nothing else re-evaluates one
        model = MLPModel([2, 4, 3])
        data = generate_blob_tasks(BlobTaskSpec(n_classes=3, n_tasks=1,
                                                seed=19))[0]
        prior = PriorParams(np.zeros(model.dim),
                            np.log(0.1) * np.ones(model.dim))
        v, _ = run_inner_gd(model, data, prior,
                            InnerConfig(steps=5, lr=0.01, mc_budget=8))
        grad0 = model.grad_counter.count
        g = implicit_meta_gradient(
            model, data, v, prior, MetaLossSpec(mc_budget=8),
            CgConfig(max_iters=budget, rel_tol=0.0,
                     abort_on_negative_curvature=False), mc_budget=8)
        assert g.hvp_calls >= 1
        assert model.grad_counter.count - grad0 == 2 + 2 * g.hvp_calls

    def test_hvp_calls_bounded_by_budget(self):
        p = 4
        data = small_task(p, n=6, seed=15)
        prior = random_prior(p, 15)
        model = LinearGaussianModel(p)
        v = closed_form_linear_optimum(prior, data)
        for budget in (1, 2, 5):
            g = implicit_meta_gradient(model, data, v, prior, MetaLossSpec(),
                                       CgConfig(max_iters=budget, rel_tol=0.0))
            assert g.hvp_calls <= budget

    def test_log_coordinate_consistency(self):
        p = 4
        data = small_task(p, n=6, seed=16)
        prior = random_prior(p, 16)
        model = LinearGaussianModel(p)
        v = closed_form_linear_optimum(prior, data)
        g = implicit_meta_gradient(model, data, v, prior, MetaLossSpec(),
                                   CgConfig(max_iters=2 * p, rel_tol=0.0))
        assert np.array_equal(g.wrt_log_var, prior.var * g.wrt_var)


class TestFrozenVarianceReduction:
    def test_masked_gradient_has_zero_variance_block(self):
        p = 4
        data = small_task(p, n=6, seed=18)
        prior = imaml_prior(p, np.zeros(p), 2.0)
        model = LinearGaussianModel(p)
        v, _ = run_inner_gd(model, data, prior, InnerConfig(steps=50, lr=0.01),
                            freeze_log_var=True)
        g = implicit_meta_gradient(model, data, v, prior, MetaLossSpec(),
                                   CgConfig(max_iters=5), mask_variance=True)
        assert np.array_equal(g.wrt_var, np.zeros(p))
        assert np.array_equal(g.wrt_log_var, np.zeros(p))
