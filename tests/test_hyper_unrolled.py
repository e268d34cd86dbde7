"""Unrolled-path tests: meta-loss partials vs joint finite differences, the
reverse sweep vs FD through the composed inner map (bayesmeta.verify's
check), exact HVP counts, and cross-agreement with the implicit path at
convergence."""

import numpy as np
import pytest

from bayesmeta import (CgConfig, InnerConfig, LinearGaussianModel, MLPModel,
                       MetaLossSpec, PriorParams, TaskData, fd_meta_gradient,
                       implicit_meta_gradient, meta_loss_grads, run_inner_gd,
                       unrolled_meta_gradient)
from bayesmeta.meta_loss import meta_loss_value
from bayesmeta.verify import rel_err, unrolled_vs_fd
from bayesmeta.vi_core import VariationalParams
from helpers import random_prior, small_task


class TestMetaLossGrads:
    def test_nll_only_has_zero_prior_partial(self):
        p = 4
        data = small_task(p, seed=1)
        prior = random_prior(p, 1)
        model = LinearGaussianModel(p)
        v = VariationalParams(prior.mean + 0.1, prior.log_var - 0.1)
        _, grad2 = meta_loss_grads(model, data, v, prior, MetaLossSpec())
        assert np.array_equal(grad2.concat(), np.zeros(2 * p))

    def test_kl_term_vanishes_at_prior(self):
        p = 4
        data = small_task(p, seed=2)
        prior = random_prior(p, 2)
        model = LinearGaussianModel(p)
        v = VariationalParams.from_prior(prior)
        spec_kl = MetaLossSpec(kind="val_nll_plus_kl", kl_weight=1.0)
        spec_plain = MetaLossSpec()
        grad1_kl, grad2_kl = meta_loss_grads(model, data, v, prior, spec_kl)
        grad1, _ = meta_loss_grads(model, data, v, prior, spec_plain)
        val_kl = meta_loss_value(model, data, v, prior, spec_kl)
        val = meta_loss_value(model, data, v, prior, spec_plain)
        assert val_kl == pytest.approx(val, abs=1e-12)
        assert np.allclose(grad1_kl.concat(), grad1.concat(), atol=1e-12)
        assert np.allclose(grad2_kl.concat(), 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind,w", [("val_nll_only", 0.0),
                                        ("val_nll_plus_kl", 0.7)])
    def test_partials_match_joint_fd(self, kind, w):
        p = 3
        data = small_task(p, seed=3)
        prior = random_prior(p, 3)
        model = LinearGaussianModel(p)
        rng = np.random.default_rng(4)
        v = VariationalParams.from_var(prior.mean + 0.3 * rng.normal(size=p),
                                       prior.var * rng.uniform(0.5, 1.5, p))
        spec = MetaLossSpec(kind=kind, kl_weight=w)
        grad1, grad2 = meta_loss_grads(model, data, v, prior, spec)

        def value(vm, vd, pm, plv):
            return meta_loss_value(model, data,
                                   VariationalParams.from_var(vm, vd),
                                   PriorParams(pm, plv), spec)

        eps = 1e-6
        analytic = np.concatenate([
            grad1.wrt_mean, grad1.wrt_var,
            grad2.wrt_mean, grad2.wrt_var * prior.var])  # prior block in log d
        numeric = np.zeros(4 * p)
        base = [v.mean, v.var, prior.mean, prior.log_var]
        for block in range(4):
            for i in range(p):
                h = eps * (1 + abs(base[block][i]))
                plus = [a.copy() for a in base]
                minus = [a.copy() for a in base]
                plus[block][i] += h
                minus[block][i] -= h
                numeric[block * p + i] = (value(*plus) - value(*minus)) / (2 * h)
        err = np.linalg.norm(analytic - numeric) / (1 + np.linalg.norm(numeric))
        assert err <= 1e-6

    def test_kl_weight_consistency_enforced(self):
        with pytest.raises(ValueError):
            MetaLossSpec(kind="val_nll_only", kl_weight=1.0)
        with pytest.raises(ValueError):
            MetaLossSpec(kind="val_nll_plus_kl", kl_weight=0.0)


class TestUnrolledMetaGradient:
    def test_empty_unroll_is_direct_gradient(self):
        p = 4
        data = small_task(p, seed=5)
        prior = random_prior(p, 5)
        model = LinearGaussianModel(p)
        spec = MetaLossSpec()
        _, trace = run_inner_gd(model, data, prior,
                                InnerConfig(steps=0, record_trace=True))
        g = unrolled_meta_gradient(model, data, trace, prior, spec)
        v0 = VariationalParams.from_prior(prior)
        grad1, grad2 = meta_loss_grads(model, data, v0, prior, spec)
        want = grad1.concat() + grad2.concat()
        assert np.linalg.norm(g.concat_raw() - want) <= 1e-12 * (
            1 + np.linalg.norm(want))
        assert g.hvp_calls == 0

    def test_matches_fd_with_kl_meta_loss(self):
        # the nll-only meta-loss is acceptance criterion 3
        p = 4
        spec = MetaLossSpec(kind="val_nll_plus_kl", kl_weight=0.5)
        cfg = InnerConfig(steps=8, lr=0.01, record_trace=True)
        assert rel_err(*unrolled_vs_fd(LinearGaussianModel(p),
                                       small_task(p, seed=7),
                                       random_prior(p, 7), cfg, spec)) <= 1e-5

    def test_hvp_count_exact_over_random_instances(self):
        for seed in range(10):
            p = 3
            data = small_task(p, seed=100 + seed)
            prior = random_prior(p, 100 + seed)
            model = LinearGaussianModel(p)
            k = int(np.random.default_rng(seed).integers(1, 12))
            cfg = InnerConfig(steps=k, lr=0.01, record_trace=True)
            _, trace = run_inner_gd(model, data, prior, cfg)
            before = model.hvp_calls
            g = unrolled_meta_gradient(model, data, trace, prior, MetaLossSpec())
            assert g.hvp_calls == k
            assert model.hvp_calls - before == k

    @pytest.mark.parametrize("k", [1, 7])
    def test_reverse_sweep_spends_k_hvps_and_no_inner_gradient(self, k):
        # the only nll gradient is the meta-loss's: each step's inner
        # gradient comes from the trace
        p = 4
        data = small_task(p, seed=15)
        prior = random_prior(p, 15)
        model = LinearGaussianModel(p)
        cfg = InnerConfig(steps=k, lr=0.01, record_trace=True)
        _, trace = run_inner_gd(model, data, prior, cfg)
        hvp0, grad0 = model.hvp_calls, model.grad_counter.count
        g = unrolled_meta_gradient(model, data, trace, prior, MetaLossSpec())
        assert g.hvp_calls == k and model.hvp_calls - hvp0 == k
        assert model.grad_counter.count - grad0 == 1

    def test_mlp_matches_fd_with_common_random_numbers(self):
        model = MLPModel([1, 3, 1])
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 6))
        data = TaskData(x_tr=x, y_tr=rng.normal(size=6),
                        x_val=rng.normal(size=(1, 6)),
                        y_val=rng.normal(size=6), noise_sigma=0.5)
        prior = PriorParams(0.3 * rng.normal(size=model.dim),
                            np.log(0.1) * np.ones(model.dim))
        spec = MetaLossSpec(mc_budget=16)
        cfg = InnerConfig(steps=3, lr=0.01, mc_budget=16, record_trace=True)
        assert rel_err(*unrolled_vs_fd(model, data, prior, cfg, spec,
                                       seed=9)) <= 1e-3

    def test_zero_data_kl_only_inner_stays_at_prior(self):
        p = 3
        prior = random_prior(p, 10)
        model = LinearGaussianModel(p)
        data = TaskData(x_tr=np.zeros((p, 0)), y_tr=np.zeros(0),
                        x_val=np.random.default_rng(10).normal(size=(p, 4)),
                        y_val=np.random.default_rng(11).normal(size=4),
                        noise_sigma=0.5)
        spec = MetaLossSpec()
        cfg = InnerConfig(steps=10, lr=0.01, record_trace=True)
        v, trace = run_inner_gd(model, data, prior, cfg)
        assert np.allclose(v.mean, prior.mean, atol=1e-14)
        assert np.allclose(v.log_var, prior.log_var, atol=1e-14)
        g = unrolled_meta_gradient(model, data, trace, prior, spec)
        grad1, grad2 = meta_loss_grads(
            model, data, VariationalParams.from_prior(prior), prior, spec)
        want = grad1.concat() + grad2.concat()
        assert np.linalg.norm(g.concat_raw() - want) <= 1e-10 * (
            1 + np.linalg.norm(want))

    def test_requires_recorded_trace(self):
        p = 3
        data = small_task(p, seed=12)
        prior = random_prior(p, 12)
        model = LinearGaussianModel(p)
        with pytest.raises(ValueError):
            unrolled_meta_gradient(model, data, None, prior, MetaLossSpec())


class TestFdCrossChecks:
    def test_fd_agrees_with_implicit_at_convergence(self):
        p = 4
        data = small_task(p, seed=13)
        prior = random_prior(p, 13)
        model = LinearGaussianModel(p)
        spec = MetaLossSpec()
        cfg = InnerConfig(steps=4000, lr=0.003)
        v, _ = run_inner_gd(model, data, prior, cfg)
        ig = implicit_meta_gradient(model, data, v, prior, spec,
                                    CgConfig(max_iters=4 * p, rel_tol=0.0))
        fd = fd_meta_gradient(model, data, prior, cfg, spec)
        err = np.linalg.norm(ig.concat_log() - fd.concat_log()) / \
            np.linalg.norm(fd.concat_log())
        assert err <= 2e-3

    def test_fd_step_halving_stability(self):
        # two-sided step-halving: the FD oracle is in its converged regime
        p = 3
        data = small_task(p, seed=14)
        prior = random_prior(p, 14)
        model = LinearGaussianModel(p)
        spec = MetaLossSpec()
        cfg = InnerConfig(steps=5, lr=0.01)
        g1 = fd_meta_gradient(model, data, prior, cfg, spec, fd_eps=1e-5)
        g2 = fd_meta_gradient(model, data, prior, cfg, spec, fd_eps=5e-6)
        err = np.linalg.norm(g1.concat_log() - g2.concat_log()) / \
            np.linalg.norm(g2.concat_log())
        assert err <= 1e-7
