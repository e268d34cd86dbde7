"""Oracle-interface tests: closed-form linear values against Monte Carlo,
gradients and HVPs against finite differences (bayesmeta.verify's checks),
the MLP against the linear closed form, the MLP's stacked pass against
one-task passes and a plain reference pass, and the MLP's per-thread work
buffers."""

import inspect
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bayesmeta import (LinearGaussianModel, MLPModel, TangentVector, TaskData,
                       VariationalParams, mlp_param_count, sample_params)
from bayesmeta.calibration import posterior_predictive_probs
from bayesmeta.models import FD_EPSILON
from bayesmeta.vi_core import standard_normal
from bayesmeta.verify import nll_grad_vs_fd, nll_hvp_vs_dense_fd, rel_err
from helpers import small_task


def random_v(p, seed, var_lo=0.2, var_hi=2.0):
    rng = np.random.default_rng(seed)
    return VariationalParams.from_var(rng.normal(size=p),
                                      rng.uniform(var_lo, var_hi, p))


class TestTaskData:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TaskData(x_tr=np.zeros((2, 3)), y_tr=np.zeros(4),
                     x_val=np.zeros((2, 1)), y_val=np.zeros(1))
        with pytest.raises(ValueError):
            TaskData(x_tr=np.zeros((2, 1)), y_tr=np.zeros(1),
                     x_val=np.zeros((2, 0)), y_val=np.zeros(0))

    def test_empty_train_split_allowed(self):
        data = TaskData(x_tr=np.zeros((2, 0)), y_tr=np.zeros(0),
                        x_val=np.ones((2, 1)), y_val=np.ones(1))
        assert data.x_tr.shape == (2, 0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            TaskData(x_tr=np.zeros((1, 1)), y_tr=np.zeros(1),
                     x_val=np.zeros((1, 1)), y_val=np.zeros(1),
                     noise_sigma=0.0)


class TestLinearValue:
    def test_exact_fit_zero_variance(self):
        p, n = 3, 6
        rng = np.random.default_rng(1)
        x = rng.normal(size=(p, n))
        theta = rng.normal(size=p)
        data = TaskData(x_tr=x, y_tr=x.T @ theta, x_val=x, y_val=x.T @ theta,
                        noise_sigma=0.5)
        model = LinearGaussianModel(p)
        v = VariationalParams(theta, np.full(p, -200.0))
        assert model.expected_nll(v, data, "train") == pytest.approx(0.0,
                                                                     abs=1e-12)

    def test_matches_monte_carlo(self):
        p, n = 4, 8
        data = small_task(p, n, seed=2)
        model = LinearGaussianModel(p)
        v = random_v(p, 3)
        closed = model.expected_nll(v, data, "train")
        theta = sample_params(v, 10 ** 6, seed=9)
        resid = data.y_tr[None, :] - theta @ data.x_tr
        per_sample = 0.5 * (resid ** 2).sum(axis=1) / data.noise_sigma ** 2
        mc = per_sample.mean()
        se = per_sample.std() / np.sqrt(per_sample.size)
        assert abs(closed - mc) <= 3 * se

    def test_sigma_scaling(self):
        p = 3
        data = small_task(p, 5, seed=4)
        model = LinearGaussianModel(p)
        v = random_v(p, 5)
        base = model.expected_nll(v, data, "train")
        doubled = TaskData(x_tr=data.x_tr, y_tr=data.y_tr, x_val=data.x_val,
                           y_val=data.y_val, noise_sigma=2 * data.noise_sigma)
        assert model.expected_nll(v, doubled, "train") == pytest.approx(
            base / 4.0, rel=1e-12)


class TestLinearGrad:
    def test_zero_data_gives_zero(self):
        p = 3
        data = TaskData(x_tr=np.zeros((p, 0)), y_tr=np.zeros(0),
                        x_val=np.ones((p, 1)), y_val=np.ones(1))
        g = LinearGaussianModel(p).nll_grad(random_v(p, 6), data, "train")
        assert np.allclose(g.concat(), 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        p = 4
        data = small_task(p, 8, seed=seed)
        model = LinearGaussianModel(p)
        v = random_v(p, 1000 + seed)
        err = rel_err(*nll_grad_vs_fd(model, data, v))
        assert err <= 1e-8 * 100  # FD oracle noise floor

    def test_variance_gradient_constant_in_v(self):
        p = 4
        data = small_task(p, 8, seed=7)
        model = LinearGaussianModel(p)
        g1 = model.nll_grad(random_v(p, 1), data, "train")
        g2 = model.nll_grad(random_v(p, 2), data, "train")
        assert np.array_equal(g1.wrt_var, g2.wrt_var)

    @pytest.mark.parametrize("method", ["expected_nll", "nll_grad", "nll_hvp",
                                        "batch_nll_grad"])
    def test_refuses_classification_tasks(self, method):
        _, data, _ = make_mlp_instance([2, 4, 3], kind="classification")
        v = random_v(2, 14)
        args = {"nll_hvp": (v, data, "train", TangentVector.zeros(2)),
                "batch_nll_grad": ([data], "train")}.get(method,
                                                         (v, data, "train"))
        with pytest.raises(ValueError, match="regression tasks only"):
            getattr(LinearGaussianModel(2), method)(*args)


class TestLinearHvp:
    def test_zero_vector(self):
        p = 3
        data = small_task(p, 5, seed=8)
        out = LinearGaussianModel(p).nll_hvp(random_v(p, 9), data, "train",
                                             TangentVector.zeros(p))
        assert np.allclose(out.concat(), 0.0)

    def test_reconstructs_dense_fd_hessian(self):
        p = 3
        data = small_task(p, 6, seed=10)
        model = LinearGaussianModel(p)
        v = random_v(p, 11)
        assert rel_err(*nll_hvp_vs_dense_fd(model, data, v), floor=1.0) <= 1e-6

    def test_variance_only_direction_maps_to_zero(self):
        p = 3
        data = small_task(p, 5, seed=12)
        out = LinearGaussianModel(p).nll_hvp(
            random_v(p, 13), data, "train",
            TangentVector(np.zeros(p), np.ones(p)))
        assert np.allclose(out.concat(), 0.0)


def make_mlp_instance(widths, n=6, seed=0, kind="regression", n_classes=3,
                      n_val=None):
    rng = np.random.default_rng(seed)
    p_in = widths[0]
    n_val = n if n_val is None else n_val
    x = rng.normal(size=(p_in, n))
    if kind == "regression":
        y_tr = rng.normal(size=n)
        y_val = rng.normal(size=n_val)
        data = TaskData(x_tr=x, y_tr=y_tr, x_val=rng.normal(size=(p_in, n_val)),
                        y_val=y_val, noise_sigma=0.5)
    else:
        data = TaskData(x_tr=x, y_tr=rng.integers(0, n_classes, n),
                        x_val=rng.normal(size=(p_in, n_val)),
                        y_val=rng.integers(0, n_classes, n_val),
                        task_kind="classification")
    model = MLPModel(widths)
    v = VariationalParams.from_var(0.5 * rng.normal(size=model.dim),
                                   rng.uniform(0.05, 0.3, model.dim))
    return model, data, v


class TestMlpValue:
    def test_param_count(self):
        assert mlp_param_count([1, 40, 40, 1]) == 40 + 40 + 1600 + 40 + 40 + 1
        assert mlp_param_count([2, 32, 5]) == 2 * 32 + 32 + 32 * 5 + 5

    def test_deterministic(self):
        model, data, v = make_mlp_instance([2, 4, 1], seed=1)
        a = model.expected_nll(v, data, "train", mc_budget=32, seed=5)
        b = model.expected_nll(v, data, "train", mc_budget=32, seed=5)
        assert a == b
        c = model.expected_nll(v, data, "train", mc_budget=32, seed=6)
        assert a != c

    def test_collapsed_posterior_equals_deterministic_net(self):
        model, data, v = make_mlp_instance([2, 4, 1], seed=2)
        v0 = VariationalParams.from_var(v.mean, np.full(model.dim, 1e-30))
        mc_val = model.expected_nll(v0, data, "train", mc_budget=16, seed=3)
        out, _, _ = model._forward(v.mean[None, :], data.x_tr)
        det_val = 0.5 * np.sum((out[0, 0] - data.y_tr) ** 2) / data.noise_sigma ** 2
        assert mc_val == pytest.approx(det_val, abs=1e-6)

    def test_single_linear_layer_matches_linear_model(self):
        # widths [p, 1] network computes w.x + b; compare against the linear
        # closed form on the bias-augmented design
        p = 3
        rng = np.random.default_rng(4)
        x = rng.normal(size=(p, 10))
        y = rng.normal(size=10)
        model = MLPModel([p, 1])
        v = VariationalParams.from_var(rng.normal(size=p + 1),
                                       rng.uniform(0.1, 0.5, p + 1))
        data = TaskData(x_tr=x, y_tr=y, x_val=x, y_val=y, noise_sigma=0.7)
        x_aug = np.vstack([x, np.ones((1, 10))])
        data_aug = TaskData(x_tr=x_aug, y_tr=y, x_val=x_aug, y_val=y,
                            noise_sigma=0.7)
        closed = LinearGaussianModel(p + 1).expected_nll(v, data_aug, "train")
        mc_budget = 10 ** 5
        mc = model.expected_nll(v, data, "train", mc_budget=mc_budget, seed=8)
        # MC standard error estimated from a second independent draw
        mc2 = model.expected_nll(v, data, "train", mc_budget=mc_budget, seed=9)
        se = max(abs(mc - mc2), 1e-3 * abs(closed))
        assert abs(mc - closed) <= 3 * se


class TestMlpGrad:
    @pytest.mark.parametrize("kind", ["regression", "classification"])
    def test_matches_fd_with_common_random_numbers(self, kind):
        model, data, v = make_mlp_instance([2, 4, 4, 1] if kind == "regression"
                                           else [2, 4, 3], seed=5, kind=kind)
        err = rel_err(*nll_grad_vs_fd(model, data, v, eps=1e-6, mc_budget=8,
                                      seed=17))
        assert err <= 1e-5

    def test_collapsed_posterior_mean_block_is_backprop(self):
        model, data, v = make_mlp_instance([2, 4, 1], seed=6)
        v0 = VariationalParams.from_var(v.mean, np.full(model.dim, 1e-30))
        g = model.nll_grad(v0, data, "train", mc_budget=4, seed=0)
        eps = 1e-6
        numeric = np.zeros(model.dim)
        for i in range(model.dim):
            e = np.zeros(model.dim)
            e[i] = eps

            def det_nll(mean):
                out, _, _ = model._forward(mean[None, :], data.x_tr)
                return 0.5 * np.sum((out[0, 0] - data.y_tr) ** 2) / data.noise_sigma ** 2

            numeric[i] = (det_nll(v.mean + e) - det_nll(v.mean - e)) / (2 * eps)
        assert np.linalg.norm(g.wrt_mean - numeric) <= 1e-5 * (
            1 + np.linalg.norm(numeric))

    def test_mc_budget_stability(self):
        model, data, v = make_mlp_instance([2, 4, 1], seed=7)
        g1 = model.nll_grad(v, data, "train", mc_budget=256, seed=3)
        g2 = model.nll_grad(v, data, "train", mc_budget=512, seed=3)
        # doubling the budget moves the estimate by less than a few MC
        # standard errors; proxy: relative change bounded
        rel = np.linalg.norm(g1.concat() - g2.concat()) / np.linalg.norm(
            g2.concat())
        assert rel < 0.2


class TestMlpHvp:
    def test_zero_vector_short_circuits(self):
        model, data, v = make_mlp_instance([2, 4, 1], seed=8)
        before = model.grad_counter.count
        out = model.nll_hvp(v, data, "train", TangentVector.zeros(model.dim),
                            mc_budget=4, seed=0)
        assert np.allclose(out.concat(), 0.0)
        assert model.grad_counter.count == before  # no gradient evaluations
        assert model.hvp_calls == 1  # but the call itself is counted

    def test_symmetry(self):
        model, data, v = make_mlp_instance([2, 4, 1], seed=9)
        rng = np.random.default_rng(10)
        for trial in range(5):
            u = TangentVector(rng.normal(size=model.dim),
                              0.01 * rng.normal(size=model.dim))
            w = TangentVector(rng.normal(size=model.dim),
                              0.01 * rng.normal(size=model.dim))
            hu = model.nll_hvp(v, data, "train", u, mc_budget=64, seed=3)
            hw = model.nll_hvp(v, data, "train", w, mc_budget=64, seed=3)
            lhs = w.concat() @ hu.concat()
            rhs = u.concat() @ hw.concat()
            assert abs(lhs - rhs) <= 1e-4 * (1 + abs(lhs) + abs(rhs))

    def test_linearity(self):
        model, data, v = make_mlp_instance([2, 4, 1], seed=11)
        rng = np.random.default_rng(12)
        u = TangentVector(rng.normal(size=model.dim),
                          0.01 * rng.normal(size=model.dim))
        w = TangentVector(rng.normal(size=model.dim),
                          0.01 * rng.normal(size=model.dim))
        combo = model.nll_hvp(v, data, "train", 2.0 * u + (-0.5) * w,
                              mc_budget=64, seed=4)
        parts = (2.0 * model.nll_hvp(v, data, "train", u, mc_budget=64, seed=4)
                 + (-0.5) * model.nll_hvp(v, data, "train", w, mc_budget=64,
                                          seed=4))
        err = np.linalg.norm(combo.concat() - parts.concat()) / (
            1 + np.linalg.norm(parts.concat()))
        assert err <= 1e-4

    def test_single_linear_layer_matches_linear_hvp_mean_direction(self):
        # mean-direction probes are MC-noise-free under antithetic sampling;
        # full-direction agreement is bounded by MC error at this budget
        p = 3
        rng = np.random.default_rng(13)
        x = rng.normal(size=(p, 10))
        y = rng.normal(size=10)
        model = MLPModel([p, 1])
        v = VariationalParams.from_var(rng.normal(size=p + 1),
                                       rng.uniform(0.1, 0.5, p + 1))
        data = TaskData(x_tr=x, y_tr=y, x_val=x, y_val=y, noise_sigma=0.7)
        x_aug = np.vstack([x, np.ones((1, 10))])
        data_aug = TaskData(x_tr=x_aug, y_tr=y, x_val=x_aug, y_val=y,
                            noise_sigma=0.7)
        linear = LinearGaussianModel(p + 1)
        vec = TangentVector(rng.normal(size=p + 1), np.zeros(p + 1))
        got = model.nll_hvp(v, data, "train", vec, mc_budget=10 ** 4, seed=21)
        want = linear.nll_hvp(v, data_aug, "train", vec)
        err = np.linalg.norm(got.concat() - want.concat()) / np.linalg.norm(
            want.concat())
        assert err <= 1e-4

    def test_single_linear_layer_matches_linear_hvp_full_direction(self):
        p = 3
        rng = np.random.default_rng(14)
        x = rng.normal(size=(p, 10))
        y = rng.normal(size=10)
        model = MLPModel([p, 1])
        v = VariationalParams.from_var(rng.normal(size=p + 1),
                                       rng.uniform(0.1, 0.5, p + 1))
        data = TaskData(x_tr=x, y_tr=y, x_val=x, y_val=y, noise_sigma=0.7)
        x_aug = np.vstack([x, np.ones((1, 10))])
        data_aug = TaskData(x_tr=x_aug, y_tr=y, x_val=x_aug, y_val=y,
                            noise_sigma=0.7)
        linear = LinearGaussianModel(p + 1)
        vec = TangentVector(rng.normal(size=p + 1), rng.normal(size=p + 1))
        got = model.nll_hvp(v, data, "train", vec, mc_budget=10 ** 4, seed=22)
        want = linear.nll_hvp(v, data_aug, "train", vec)
        # variance-direction blocks carry O(1/sqrt(S)) MC noise
        err = np.linalg.norm(got.concat() - want.concat()) / (
            1 + np.linalg.norm(want.concat()))
        assert err <= 1e-2


def stacked_tasks(widths, kind, seed=0):
    """Three tasks for one network: two with a 25-point train split and one
    with 10 points, a second design shape."""
    tasks = [make_mlp_instance(widths, n=n, seed=seed + i, kind=kind,
                               n_classes=widths[-1])[1]
             for i, n in enumerate((25, 25, 10))]
    return MLPModel(widths), tasks


def reference_nll_grad(model, v, data, split, s, seed):
    """nll_grad as a plain one-task (S, p) pass on fresh arrays, in the
    order of the pass before it was stacked."""
    x, y = data.split(split)
    draws = standard_normal(((s + 1) // 2, model.dim), seed)
    eps = np.concatenate([draws, -draws])[:s]
    sqrt_d = np.sqrt(v.var)
    theta = sqrt_d * eps + v.mean
    acts, weights, ofs = [x], [], 0
    for n_in, n_out in zip(model.widths[:-1], model.widths[1:]):
        w = theta[:, ofs:ofs + n_out * n_in].reshape(s, n_out, n_in)
        b = theta[:, ofs + n_out * n_in:ofs + n_out * (n_in + 1)]
        ofs += n_out * (n_in + 1)
        weights.append(w)
        z = w @ acts[-1] + b[:, :, None]
        acts.append(np.tanh(z) if len(weights) < len(model.widths) - 1 else z)
    out = acts[-1]
    if data.task_kind == "regression":
        dout = np.zeros_like(out)
        dout[:, 0, :] = (out[:, 0, :] - y) / data.noise_sigma ** 2
    else:
        z = out - out.max(axis=1, keepdims=True)
        dout = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
        dout[:, y.astype(int), np.arange(len(y))] -= 1.0
    parts, delta = [], dout
    for li in range(len(weights) - 1, -1, -1):
        parts[:0] = [(delta @ acts[li].swapaxes(-1, -2)).reshape(s, -1),
                     delta.sum(axis=2)]
        if li > 0:
            delta = (weights[li].swapaxes(-1, -2) @ delta) * (
                1.0 - acts[li] ** 2)
    g_theta = np.concatenate(parts, axis=1)
    g_var = g_theta * eps / (2.0 * np.maximum(sqrt_d, 1e-300))
    return g_theta.mean(axis=0), g_var.mean(axis=0)


class TestStackedPass:
    """batch_nll_grad and the HVP run one stacked pass; each row must be the
    bits of a one-task nll_grad."""

    @pytest.mark.parametrize("s", [1, 7, 16, 64])
    @pytest.mark.parametrize("kind, widths", [
        ("classification", [2, 16, 5]), ("classification", [2, 8, 8, 5]),
        ("regression", [2, 16, 1]), ("regression", [2, 8, 8, 1])])
    def test_batch_equals_one_task_passes(self, kind, widths, s):
        model, tasks = stacked_tasks(widths, kind, seed=s)
        rng = np.random.default_rng(s)
        # a repeated task, and two design shapes in one batch
        for batch in ([0], [0, 1], [0, 2, 0, 1]):
            b = len(batch)
            mean = 0.5 * rng.normal(size=(b, model.dim))
            log_var = np.log(rng.uniform(0.05, 0.3, (b, model.dim)))
            seeds = [int(x) for x in rng.integers(0, 2 ** 40, b)]
            grad = model.batch_nll_grad([tasks[i] for i in batch], "train", s)
            before = model.grad_counter.count
            g_mean, g_var = grad(mean, log_var, seeds)
            assert model.grad_counter.count - before == b
            for j, i in enumerate(batch):
                g = model.nll_grad(VariationalParams(mean[j], log_var[j]),
                                   tasks[i], "train", s, seeds[j])
                assert np.array_equal(g_mean[j], g.wrt_mean)
                assert np.array_equal(g_var[j], g.wrt_var)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind, widths", [
        ("classification", [2, 8, 8, 5]), ("regression", [2, 16, 1])])
    def test_one_task_pass_equals_plain_reference(self, kind, widths, order):
        # blob tasks hold Fortran-ordered inputs; the backward pass's BLAS
        # kernel, and so its bits, follows the layout
        model, data, v = make_mlp_instance(widths, n=25, n_val=50, seed=40,
                                           kind=kind, n_classes=widths[-1])
        data.x_tr = np.asarray(data.x_tr, order=order)
        for s in (7, 16):
            g = model.nll_grad(v, data, "train", s, s)
            want = reference_nll_grad(model, v, data, "train", s, s)
            assert np.array_equal(g.wrt_mean, want[0])
            assert np.array_equal(g.wrt_var, want[1])

    @pytest.mark.parametrize("limited", [False, True])
    def test_hvp_is_the_fd_of_two_one_task_gradients(self, limited):
        model, data, v = make_mlp_instance([2, 16, 5], n=25, seed=30,
                                           kind="classification",
                                           n_classes=5)
        rng = np.random.default_rng(31)
        vec = TangentVector(rng.normal(size=model.dim),
                            rng.normal(size=model.dim))
        if limited:
            # a tiny variance where the direction is largest: the
            # positivity limit sets h
            var = v.var.copy()
            var[np.argmax(np.abs(vec.wrt_var))] = 1e-6
            v = VariationalParams.from_var(v.mean, var)
        vnorm = max(np.abs(v.mean).max(), np.abs(v.var).max())
        vecnorm = max(np.abs(vec.wrt_mean).max(), np.abs(vec.wrt_var).max())
        h = min(FD_EPSILON * (1.0 + vnorm) / vecnorm,
                0.5 * np.min(v.var / np.abs(vec.wrt_var)))
        assert (h < FD_EPSILON * (1.0 + vnorm) / vecnorm) == limited
        g_plus = model.nll_grad(
            VariationalParams.from_var(v.mean + h * vec.wrt_mean,
                                       v.var + h * vec.wrt_var),
            data, "train", 16, 5)
        g_minus = model.nll_grad(
            VariationalParams.from_var(v.mean - h * vec.wrt_mean,
                                       v.var - h * vec.wrt_var),
            data, "train", 16, 5)
        grads, hvps = model.grad_counter.count, model.hvp_calls
        hv = model.nll_hvp(v, data, "train", vec, 16, 5)
        assert (model.grad_counter.count - grads, model.hvp_calls - hvps) == (
            2, 1)
        assert np.array_equal(hv.wrt_mean,
                              (g_plus.wrt_mean - g_minus.wrt_mean) / (2 * h))
        assert np.array_equal(hv.wrt_var,
                              (g_plus.wrt_var - g_minus.wrt_var) / (2 * h))


class TestCounters:
    def test_hvp_counter_exact(self):
        p = 3
        data = small_task(p, 5, seed=20)
        model = LinearGaussianModel(p)
        v = random_v(p, 21)
        for expected in range(1, 6):
            model.nll_hvp(v, data, "train", TangentVector.zeros(p))
            assert model.hvp_calls == expected

    def test_counter_thread_safety(self):
        p = 3
        data = small_task(p, 5, seed=22)
        model = LinearGaussianModel(p)
        v = random_v(p, 23)

        def worker():
            for _ in range(200):
                model.nll_hvp(v, data, "train", TangentVector.zeros(p))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert model.hvp_calls == 8 * 200


# (widths, split, S): each case is one (S, N) shape; train has 25 points and
# validation 50, as in the blob tasks
BUFFER_CASES = [([2, 32, 5], "val", 64), ([2, 32, 5], "train", 16),
                ([2, 32, 5], "train", 64), ([2, 8, 8, 3], "val", 7),
                ([2, 16, 5], "train", 33), ([2, 32, 5], "val", 1)]


def mlp_pass_bytes(case, seed=3):
    """The bytes of nll_grad, expected_nll and posterior_predictive_probs for
    one case, with the data and point fixed by the case."""
    widths, split, s = case
    model, data, v = make_mlp_instance(widths, n=25, n_val=50,
                                       seed=len(widths) + s,
                                       kind="classification",
                                       n_classes=widths[-1])
    g = model.nll_grad(v, data, split, s, seed)
    value = model.expected_nll(v, data, split, s, seed)
    probs, _ = posterior_predictive_probs(model, v, data, s, seed)
    return (g.wrt_mean.tobytes() + g.wrt_var.tobytes()
            + np.float64(value).tobytes() + probs.tobytes())


def stacked_pass_bytes(hvp, seed=3):
    """The bytes of a B=4 batch_nll_grad call (a repeated task and two
    design shapes) or, with ``hvp``, of an HVP, whose two sides are one B=2
    pass."""
    model, tasks = stacked_tasks([2, 16, 5], "classification", seed=seed)
    rng = np.random.default_rng(seed)
    mean = 0.5 * rng.normal(size=(4, model.dim))
    log_var = np.log(rng.uniform(0.05, 0.3, (4, model.dim)))
    if hvp:
        vec = TangentVector(rng.normal(size=model.dim),
                            0.01 * rng.normal(size=model.dim))
        hv = model.nll_hvp(VariationalParams(mean[0], log_var[0]), tasks[1],
                           "val", vec, 64, seed)
        return hv.wrt_mean.tobytes() + hv.wrt_var.tobytes()
    grad = model.batch_nll_grad([tasks[i] for i in (0, 2, 0, 1)], "train", 16)
    g_mean, g_var = grad(mean, log_var, [seed, seed + 1, seed + 2, seed + 3])
    return g_mean.tobytes() + g_var.tobytes()


def in_fresh_thread(fn, *args):
    """Run fn on a new thread, whose work buffers start empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result(timeout=60)


# Minor page faults of 20 S=64 [2,32,5] gradients after a warm-up. It runs in
# a fresh interpreter: the allocator's trim threshold rises with the largest
# block a process has freed and never falls, so in the test process earlier
# tests would decide whether freshly allocated arrays fault.
FAULT_PROBE = """
import resource
import numpy as np
from bayesmeta import MLPModel, TaskData, VariationalParams

rng = np.random.default_rng(0)
model = MLPModel([2, 32, 5])
data = TaskData(x_tr=rng.normal(size=(2, 25)), y_tr=rng.integers(0, 5, 25),
                x_val=rng.normal(size=(2, 50)), y_val=rng.integers(0, 5, 50),
                task_kind="classification")
v = VariationalParams.from_var(0.5 * rng.normal(size=model.dim),
                               rng.uniform(0.05, 0.3, model.dim))
for seed in range(5):
    model.nll_grad(v, data, "train", 64, seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(20):
    model.nll_grad(v, data, "train", 64, seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestWorkBuffers:
    def test_concurrent_passes_equal_serial(self):
        # one-task passes beside a stacked B=4 call and an HVP pair
        jobs = ([partial(mlp_pass_bytes, case) for case in BUFFER_CASES[:4]]
                + [partial(stacked_pass_bytes, hvp) for hvp in (False, True)])
        serial = [job() for job in jobs]
        barrier = threading.Barrier(len(jobs))

        def run(job):
            barrier.wait(timeout=10)
            return [job() for _ in range(5)]

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(run, job) for job in jobs]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(old_interval)
        for want, got in zip(serial, results):
            assert got == [want] * 5

    def test_growing_and_shrinking_passes_equal_fresh_buffers(self):
        order = BUFFER_CASES + BUFFER_CASES[::-1]
        interleaved = in_fresh_thread(
            lambda: [mlp_pass_bytes(case) for case in order])
        for case, got in zip(order, interleaved):
            assert got == in_fresh_thread(mlp_pass_bytes, case)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts minor faults on Linux")
    def test_gradients_take_no_page_faults(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(inspect.getfile(MLPModel)).parents[1]))
        run = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 20
