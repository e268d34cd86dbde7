"""Outer-loop tests: task generation contracts, the meta-update's exactness
properties, cost accounting per batch, determinism, and checkpoints."""

from dataclasses import replace

import numpy as np
import pytest

from bayesmeta import (BlobTaskSpec, CgConfig, InnerConfig,
                       InnerDivergenceError, LinearGaussianModel, MetaConfig,
                       MetaLossSpec, MLPModel, PriorParams, TaskData,
                       TaskGenSpec,
                       checkpoint_from_json, checkpoint_to_json,
                       generate_blob_tasks, generate_linear_tasks, imaml_prior,
                       meta_step, run_inner_gd, sample_batch,
                       task_meta_gradient)
from bayesmeta import meta_driver
from bayesmeta.vi_core import derive_seed


class TestGenerateLinearTasks:
    def test_exact_condition_number(self):
        spec = TaskGenSpec(dim=8, cond_kappa=20.0, n_tr=12, n_val=6, n_tasks=3,
                           seed=0)
        tasks, _ = generate_linear_tasks(spec)
        for data in tasks:
            s = np.linalg.svd(data.x_tr, compute_uv=False)
            kappa = s[0] / s[-1]
            assert kappa == pytest.approx(20.0, rel=1e-8)

    def test_deterministic(self):
        spec = TaskGenSpec(dim=4, n_tr=6, n_val=4, n_tasks=2, seed=3)
        a, theta_a = generate_linear_tasks(spec)
        b, theta_b = generate_linear_tasks(spec)
        assert np.array_equal(theta_a, theta_b)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.x_tr, tb.x_tr)
            assert np.array_equal(ta.y_tr, tb.y_tr)
            assert np.array_equal(ta.x_val, tb.x_val)
            assert np.array_equal(ta.y_val, tb.y_val)

    def test_task_parameters_follow_oracle_prior(self):
        p = 4
        prior = PriorParams(np.array([1.0, -1.0, 0.5, 0.0]),
                            np.log(np.array([1.0, 4.0, 0.25, 1.0])))
        spec = TaskGenSpec(dim=p, oracle_prior=prior, n_tr=6, n_val=4,
                           n_tasks=10 ** 4, seed=4)
        _, thetas = generate_linear_tasks(spec)
        n = thetas.shape[0]
        se_mean = np.sqrt(prior.var / n)
        assert np.all(np.abs(thetas.mean(axis=0) - prior.mean) <= 3 * se_mean)
        se_var = prior.var * np.sqrt(2.0 / n)
        assert np.all(np.abs(thetas.var(axis=0) - prior.var) <= 3 * se_var)

    def test_rank_deficient_request_rejected(self):
        with pytest.raises(ValueError):
            generate_linear_tasks(TaskGenSpec(dim=8, n_tr=4, n_val=4,
                                              n_tasks=1))

    def test_noise_level_scales_targets(self):
        spec = TaskGenSpec(dim=4, n_tr=6, n_val=4, n_tasks=1, seed=5)
        tasks, thetas = generate_linear_tasks(spec)
        data = tasks[0]
        resid = data.y_tr - data.x_tr.T @ thetas[0]
        assert np.abs(resid).max() < 10 * spec.noise_sigma


class TestGenerateBlobTasks:
    def test_shapes_and_labels(self):
        spec = BlobTaskSpec(n_classes=5, shots_tr=3, shots_val=4, n_tasks=2,
                            seed=0)
        tasks = generate_blob_tasks(spec)
        assert len(tasks) == 2
        for data in tasks:
            assert data.x_tr.shape == (2, 15)
            assert data.x_val.shape == (2, 20)
            assert set(data.y_tr.astype(int)) == set(range(5))
            assert data.task_kind == "classification"

    def test_deterministic(self):
        spec = BlobTaskSpec(n_tasks=2, seed=7)
        a = generate_blob_tasks(spec)
        b = generate_blob_tasks(spec)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.x_tr, tb.x_tr)
            assert np.array_equal(ta.y_val, tb.y_val)


def linear_setup(p=8, n_tasks=6, seed=0, sigma=0.05, **meta_kw):
    spec = TaskGenSpec(dim=p, n_tr=2 * p, n_val=p, n_tasks=n_tasks, seed=seed,
                       noise_sigma=sigma, cond_kappa=10.0, design_scale=0.2)
    tasks, _ = generate_linear_tasks(spec)
    oracle = LinearGaussianModel(p)
    rng = np.random.default_rng(seed)
    prior = PriorParams(rng.normal(size=p), np.zeros(p))
    kw = dict(method="implicit", meta_lr=0.05, batch_size=3, iterations=5,
              inner=InnerConfig(steps=20, lr=0.01),
              cg=CgConfig(max_iters=5), seed=seed)
    kw.update(meta_kw)
    return oracle, tasks, prior, MetaConfig(**kw)


def blob_setup(**meta_kw):
    """The blob workload's [2, 16, 5] network and its prior, on six tasks."""
    tasks = generate_blob_tasks(BlobTaskSpec(n_tasks=6, seed=1))
    oracle = MLPModel([2, 16, 5])
    prior = PriorParams(np.zeros(oracle.dim),
                        np.log(0.1) * np.ones(oracle.dim))
    kw = dict(meta_lr=0.005, batch_size=4, iterations=1,
              cg=CgConfig(max_iters=5, abort_on_negative_curvature=False),
              loss=MetaLossSpec(mc_budget=64), seed=1)
    kw.update(meta_kw)
    return oracle, tasks, prior, MetaConfig(**kw)


class TestMetaStep:
    def test_definitional_update_batch_of_one(self):
        oracle, tasks, prior, cfg = linear_setup(batch_size=1)
        r, t = 2, 1
        grad, _ = task_meta_gradient(oracle, tasks[t], prior, cfg,
                                     derive_seed(cfg.seed, r, t))
        new_prior, report = meta_step(prior, oracle, tasks, [t], cfg, r)
        assert np.array_equal(new_prior.mean,
                              prior.mean - cfg.meta_lr * grad.wrt_mean)
        assert np.array_equal(new_prior.log_var,
                              prior.log_var - cfg.meta_lr * grad.wrt_log_var)
        assert report.task_ids == [t]

    def test_meta_lr_equivariance(self):
        oracle, tasks, prior, cfg = linear_setup()
        new1, _ = meta_step(prior, oracle, tasks, [0, 2], cfg, 0)
        cfg3 = replace(cfg, meta_lr=3 * cfg.meta_lr)
        new3, _ = meta_step(prior, oracle, tasks, [0, 2], cfg3, 0)
        delta1 = np.concatenate([prior.mean - new1.mean,
                                 prior.log_var - new1.log_var])
        delta3 = np.concatenate([prior.mean - new3.mean,
                                 prior.log_var - new3.log_var])
        assert np.allclose(delta3, 3 * delta1, rtol=1e-12)

    def test_unrolled_batch_hvp_count(self):
        k = 7
        oracle, tasks, prior, cfg = linear_setup(
            method="unrolled", inner=InnerConfig(steps=k, lr=0.01))
        batch = [0, 1, 2, 3]
        before = oracle.hvp_calls
        _, report = meta_step(prior, oracle, tasks, batch, cfg, 0)
        assert oracle.hvp_calls - before == len(batch) * k
        assert report.hvp_calls == len(batch) * k

    def test_implicit_batch_hvp_count_bounded(self):
        budget = 4
        oracle, tasks, prior, cfg = linear_setup(cg=CgConfig(max_iters=budget))
        batch = [0, 1, 2]
        before = oracle.hvp_calls
        _, report = meta_step(prior, oracle, tasks, batch, cfg, 0)
        spent = oracle.hvp_calls - before
        assert spent == report.hvp_calls <= len(batch) * budget
        assert report.hvp_calls == sum(report.cg_iters)

    def test_full_run_determinism(self):
        def run():
            oracle, tasks, prior, cfg = linear_setup(seed=11)
            for r in range(cfg.iterations):
                batch = sample_batch(len(tasks), cfg.batch_size, cfg.seed, r)
                prior, _ = meta_step(prior, oracle, tasks, batch, cfg, r)
            return prior

        a, b = run(), run()
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.log_var, b.log_var)

    def test_training_reduces_validation_loss(self):
        firsts, lasts = [], []
        for seed in range(3):
            oracle, tasks, prior, cfg = linear_setup(
                seed=seed, sigma=0.1, iterations=200, meta_lr=0.01,
                inner=InnerConfig(steps=50, lr=0.01))
            losses = []
            for r in range(cfg.iterations):
                batch = sample_batch(len(tasks), cfg.batch_size, cfg.seed, r)
                prior, report = meta_step(prior, oracle, tasks, batch, cfg, r)
                losses.append(report.mean_loss)
            firsts.append(np.mean(losses[:10]))
            lasts.append(np.mean(losses[-10:]))
        assert np.median(lasts) < np.median(firsts)

    def test_task_failure_names_task(self):
        oracle, tasks, prior, cfg = linear_setup(
            inner=InnerConfig(steps=50, lr=1e6))  # guaranteed divergence
        with pytest.raises(RuntimeError, match="task 1"):
            meta_step(prior, oracle, tasks, [1], cfg, 0)


class FailingHvp(LinearGaussianModel):
    """Linear oracle whose HVPs raise on one task (a meta-gradient failure)."""

    def __init__(self, dim, bad):
        super().__init__(dim)
        self.bad = bad

    def nll_hvp(self, v, data, split, vec, mc_budget=None, seed=0):
        if data is self.bad:
            raise FloatingPointError("stub HVP failure")
        return super().nll_hvp(v, data, split, vec, mc_budget, seed)


class TestLockstepBatch:
    """meta_step runs the batch's inner loops in lockstep and gets the bits,
    counts and errors of one task after another."""

    @pytest.mark.parametrize("method", ["implicit", "unrolled", "imaml_mode",
                                        "blob-implicit", "blob-unrolled"])
    def test_equals_per_task_average(self, method, monkeypatch):
        if method.startswith("blob-"):
            oracle, tasks, prior, cfg = blob_setup(
                method=method.removeprefix("blob-"),
                inner=InnerConfig(steps=7, lr=0.02, mc_budget=16))
        else:
            oracle, tasks, prior, cfg = linear_setup(
                method=method, inner=InnerConfig(steps=7, lr=0.01))
        r, batch = 3, [0, 2, 0, 5]
        grads, losses = [], []
        counts = oracle.grad_counter.count, oracle.hvp_calls
        for t in batch:
            grad, loss = task_meta_gradient(oracle, tasks[t], prior, cfg,
                                            derive_seed(cfg.seed, r, t))
            grads.append(grad)
            losses.append(loss)
        serial = (oracle.grad_counter.count - counts[0],
                  oracle.hvp_calls - counts[1])
        counts = oracle.grad_counter.count, oracle.hvp_calls
        value_calls = []
        expected_nll = oracle.expected_nll

        def counting_value(*args, **kw):
            value_calls.append(args[2])
            return expected_nll(*args, **kw)
        monkeypatch.setattr(oracle, "expected_nll", counting_value)
        new_prior, report = meta_step(prior, oracle, tasks, batch, cfg, r)
        assert (oracle.grad_counter.count - counts[0],
                oracle.hvp_calls - counts[1]) == serial
        assert value_calls == ["val"] * len(batch)
        avg_mean, avg_log_var = np.zeros(prior.dim), np.zeros(prior.dim)
        for grad in grads:
            avg_mean += grad.wrt_mean
            avg_log_var += grad.wrt_log_var
        avg_mean /= len(batch)
        avg_log_var /= len(batch)
        assert np.array_equal(new_prior.mean,
                              prior.mean - cfg.meta_lr * avg_mean)
        if method != "imaml_mode":
            assert np.array_equal(new_prior.log_var,
                                  prior.log_var - cfg.meta_lr * avg_log_var)
        assert report.losses == losses
        assert report.cg_iters == [g.cg_iters for g in grads]

    def test_inner_gradients_counted_per_task_and_step(self, monkeypatch):
        k = 7
        oracle, tasks, prior, cfg = linear_setup(
            inner=InnerConfig(steps=k, lr=0.01))
        inner_counts = []

        def counting(oracle, data, prior, cfg, seed, **kw):
            before = oracle.grad_counter.count
            out = run_inner_gd(oracle, data, prior, cfg, seed, **kw)
            inner_counts.append(oracle.grad_counter.count - before)
            return out
        monkeypatch.setattr(meta_driver, "run_inner_gd", counting)
        meta_step(prior, oracle, tasks, [1, 4, 4], cfg, 0)
        assert inner_counts == [3 * k]

    def test_first_failure_in_batch_order_is_raised(self):
        _, tasks, prior, cfg = linear_setup(
            inner=InnerConfig(steps=20, lr=0.01))
        good = tasks[1]
        tasks[1] = TaskData(x_tr=1e4 * good.x_tr, y_tr=good.y_tr,
                            x_val=good.x_val, y_val=good.y_val,
                            noise_sigma=good.noise_sigma)
        oracle = FailingHvp(prior.dim, bad=tasks[0])
        with pytest.raises(InnerDivergenceError) as alone:
            run_inner_gd(oracle, tasks[1], prior, cfg.inner)
        step = alone.value.step
        # position 0 fails in its meta-gradient, position 1 in its inner loop
        with pytest.raises(RuntimeError) as err:
            meta_step(prior, oracle, tasks, [0, 1], cfg, 0)
        assert str(err.value) == (
            "meta-step 0 failed on task 0: stub HVP failure")
        assert isinstance(err.value.__cause__, FloatingPointError)
        with pytest.raises(RuntimeError) as err:
            meta_step(prior, oracle, tasks, [2, 1, 0], cfg, 0)
        assert str(err.value) == (
            f"meta-step 0 failed on task 1: inner GD diverged at step {step}")
        assert isinstance(err.value.__cause__, InnerDivergenceError)


class TestSampleBatch:
    def test_deterministic_and_in_range(self):
        a = sample_batch(10, 4, seed=1, r=3)
        b = sample_batch(10, 4, seed=1, r=3)
        assert np.array_equal(a, b)
        assert a.shape == (4,)
        assert np.all((0 <= a) & (a < 10))
        c = sample_batch(10, 4, seed=1, r=4)
        assert not np.array_equal(a, c)


class TestImamlMode:
    def test_prior_variance_frozen_across_steps(self):
        lam = 2.0
        oracle, tasks, _, cfg = linear_setup(method="imaml_mode")
        prior = imaml_prior(8, np.zeros(8), lam)
        for r in range(3):
            batch = sample_batch(len(tasks), cfg.batch_size, cfg.seed, r)
            prior, _ = meta_step(prior, oracle, tasks, batch, cfg, r)
        assert np.allclose(prior.var, 1.0 / lam, rtol=1e-15)

    def test_huge_lambda_pins_inner_mean_to_prior(self):
        p = 8
        lam = 1e9
        oracle, tasks, _, cfg = linear_setup()
        prior = imaml_prior(p, np.random.default_rng(1).normal(size=p), lam)
        v, _ = run_inner_gd(oracle, tasks[0], prior,
                            InnerConfig(steps=100, lr=1e-10),
                            freeze_log_var=True)
        assert np.linalg.norm(v.mean - prior.mean) <= 1e-6


class TestCheckpoints:
    def test_roundtrip(self):
        prior = PriorParams(np.array([1.0, -2.0]), np.array([0.1, -0.3]))
        text = checkpoint_to_json(prior, iteration=17, hvp_total=345)
        loaded, it, hvp = checkpoint_from_json(text)
        assert np.array_equal(loaded.mean, prior.mean)
        assert np.array_equal(loaded.log_var, prior.log_var)
        assert (it, hvp) == (17, 345)

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            checkpoint_from_json('{"schema": "other", "iteration": 0}')


class TestConfigValidation:
    def test_method_names(self):
        with pytest.raises(ValueError):
            MetaConfig(method="magic")

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            MetaConfig(batch_size=0)
        with pytest.raises(ValueError):
            TaskGenSpec(dim=0)
        with pytest.raises(ValueError):
            TaskGenSpec(cond_kappa=0.5)
