"""Inner-loop tests: GD fixed point vs the closed form, hand-checked single
step, the loop's steps vs the single-point reference gradient, stationarity,
contraction, monotone descent, divergence guard."""

import numpy as np
import pytest

from bayesmeta import (BlobTaskSpec, InnerConfig, InnerDivergenceError,
                       LinearGaussianModel, MLPModel, PriorParams, TaskData,
                       TaskGenSpec, closed_form_linear_optimum,
                       generate_blob_tasks, generate_linear_tasks,
                       run_inner_gd, standard_normal)
from bayesmeta import inner_opt
from bayesmeta.inner_opt import (inner_objective_grad,
                                 inner_objective_log_grad,
                                 inner_objective_value)
from bayesmeta.verify import log_stationarity
from bayesmeta.vi_core import derive_seed
from helpers import random_prior, small_task


def paper_scale_task(seed=0, p=32):
    spec = TaskGenSpec(dim=p, noise_sigma=0.01, cond_kappa=20.0, n_tr=32,
                       n_val=64, n_tasks=1, seed=seed)
    tasks, _ = generate_linear_tasks(spec)
    return tasks[0]


class TestRunInnerGd:
    def test_zero_steps_returns_prior(self):
        p = 4
        prior = random_prior(p, 1)
        model = LinearGaussianModel(p)
        v, trace = run_inner_gd(model, small_task(p, n=5, seed=1), prior,
                                InnerConfig(steps=0, record_trace=True))
        assert np.array_equal(v.mean, prior.mean)
        assert np.array_equal(v.log_var, prior.log_var)
        assert len(trace.iterates) == 1

    def test_single_step_hand_computed(self):
        # p=1: x=[2], y=[1], sigma=1, prior m=0, d=1, lr=0.1.
        # raw gradients at v0=(0, log 1):
        #   mean: x(x m - y)/s2 + (m - m_prior)/d_prior = 2*(0-1) = -2
        #   var:  x^2/(2 s2) + (1/d_prior - 1/d)/2 = 2 + 0 = 2
        # log-var gradient = d * 2 = 2
        # v1 = (0 - 0.1*(-2), 0 - 0.1*2) = (0.2, -0.2)
        data = TaskData(x_tr=[[2.0]], y_tr=[1.0], x_val=[[1.0]], y_val=[0.0],
                        noise_sigma=1.0)
        prior = PriorParams(np.zeros(1), np.zeros(1))
        v, _ = run_inner_gd(LinearGaussianModel(1), data, prior,
                            InnerConfig(steps=1, lr=0.1))
        assert v.mean[0] == pytest.approx(0.2, abs=1e-14)
        assert v.log_var[0] == pytest.approx(-0.2, abs=1e-14)

    def test_converges_to_closed_form_paper_scale(self):
        p = 32
        data = paper_scale_task(seed=3, p=p)
        prior = PriorParams(standard_normal(p, derive_seed(3, 99)), np.zeros(p))
        model = LinearGaussianModel(p)
        v_star = closed_form_linear_optimum(prior, data)
        v, _ = run_inner_gd(model, data, prior, InnerConfig(steps=20000, lr=0.01))
        star = np.concatenate([v_star.mean, v_star.var])
        got = np.concatenate([v.mean, v.var])
        assert np.linalg.norm(got - star) <= 1e-6 * np.linalg.norm(star)

    def test_trace_determinism(self):
        p = 3
        data = small_task(p, n=5, seed=4)
        prior = random_prior(p, 4)
        model = LinearGaussianModel(p)
        cfg = InnerConfig(steps=10, lr=0.01, record_trace=True)
        _, t1 = run_inner_gd(model, data, prior, cfg, seed=7)
        _, t2 = run_inner_gd(model, data, prior, cfg, seed=7)
        assert np.array_equal(t1.iterates, t2.iterates)
        assert t1.step_seeds == t2.step_seeds

    def test_trace_starts_at_prior_and_has_k_plus_1_iterates(self):
        p = 3
        prior = random_prior(p, 5)
        _, trace = run_inner_gd(LinearGaussianModel(p),
                                small_task(p, n=5, seed=5), prior,
                                InnerConfig(steps=7, record_trace=True))
        assert len(trace.iterates) == 8
        assert np.array_equal(trace.iterates[0, :p], prior.mean)
        assert np.array_equal(trace.iterates[0, p:], prior.log_var)

    def test_objective_monotone_descent(self):
        p = 32
        data = paper_scale_task(seed=6, p=p)
        prior = PriorParams(standard_normal(p, derive_seed(6, 99)), np.zeros(p))
        model = LinearGaussianModel(p)
        cfg = InnerConfig(steps=200, lr=0.01, record_trace=True)
        _, trace = run_inner_gd(model, data, prior, cfg)
        vals = [inner_objective_value(model, data, trace.point(k), prior,
                                      None, 0)
                for k in range(len(trace.iterates))]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12), \
            "objective increased: step-size problem, not a gradient bug"

    def test_divergence_guard_names_step(self):
        data = TaskData(x_tr=[[1e6]], y_tr=[1.0], x_val=[[1.0]], y_val=[0.0],
                        noise_sigma=1e-3)
        prior = PriorParams(np.ones(1), np.zeros(1))
        with pytest.raises(InnerDivergenceError) as exc:
            run_inner_gd(LinearGaussianModel(1), data, prior,
                         InnerConfig(steps=50, lr=1.0))
        assert exc.value.step >= 0
        assert str(exc.value.step) in str(exc.value)

    def test_freeze_log_var_keeps_variance(self):
        p = 3
        prior = random_prior(p, 8)
        v, _ = run_inner_gd(LinearGaussianModel(p), small_task(p, n=5, seed=8),
                            prior, InnerConfig(steps=20, lr=0.01),
                            freeze_log_var=True)
        assert np.array_equal(v.log_var, prior.log_var)


def mlp_task_and_prior(seed):
    model = MLPModel([2, 4, 3])
    data = generate_blob_tasks(BlobTaskSpec(n_classes=3, n_tasks=1,
                                            seed=seed))[0]
    rng = np.random.default_rng(seed)
    prior = PriorParams(0.3 * rng.normal(size=model.dim),
                        np.log(0.1) + 0.2 * rng.normal(size=model.dim))
    return model, data, prior


class TestLoopMatchesReference:
    """The loop's inlined step is the single-point reference, bit for bit."""

    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_every_step_gradient_is_bitwise_the_reference(self, kind, freeze):
        if kind == "linear":
            p = 4
            model, data, prior = (LinearGaussianModel(p),
                                  small_task(p, seed=21), random_prior(p, 21))
            cfg = InnerConfig(steps=12, lr=0.05, record_trace=True)
        else:
            model, data, prior = mlp_task_and_prior(22)
            cfg = InnerConfig(steps=6, lr=0.02, mc_budget=4, record_trace=True)
        seed = 23
        v, trace = run_inner_gd(model, data, prior, cfg, seed=seed,
                                freeze_log_var=freeze)
        p = prior.dim
        assert trace.iterates.shape == (cfg.steps + 1, 2 * p)
        assert trace.var_grads.shape == (cfg.steps, p)
        assert trace.step_seeds == (
            [None] * cfg.steps if cfg.mc_budget is None
            else [derive_seed(seed, k) for k in range(cfg.steps)])
        for k in range(cfg.steps):
            w_k = trace.point(k)
            step_seed = trace.step_seeds[k]
            g = inner_objective_grad(model, data, w_k, prior, cfg.mc_budget,
                                     step_seed)
            assert np.array_equal(trace.var_grads[k], g.wrt_var)
            step = trace.iterates[k] - cfg.lr * inner_objective_log_grad(
                model, data, w_k, prior, cfg.mc_budget, step_seed)
            assert np.array_equal(trace.iterates[k + 1, :p], step[:p])
            if freeze:
                assert np.array_equal(trace.iterates[k + 1, p:],
                                      prior.log_var)
            else:
                assert np.array_equal(trace.iterates[k + 1, p:], step[p:])
        assert np.array_equal(np.concatenate([v.mean, v.log_var]),
                              trace.iterates[-1])

    def test_closed_form_run_derives_no_seed(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("derive_seed called without sampling")
        monkeypatch.setattr(inner_opt, "derive_seed", refuse)
        p = 4
        _, trace = run_inner_gd(LinearGaussianModel(p), small_task(p, seed=24),
                                random_prior(p, 24),
                                InnerConfig(steps=5, record_trace=True),
                                seed=24)
        assert trace.step_seeds == [None] * 5


def batch_pool(kind):
    """(model, prior, config kwargs, three tasks): tasks 0 and 2 share a
    train-design shape, task 1 has another."""
    if kind == "linear":
        p = 4
        pool = [small_task(p, n=8, seed=40), small_task(p, n=5, seed=41),
                small_task(p, n=8, seed=42)]
        return (LinearGaussianModel(p), random_prior(p, 31),
                dict(steps=9, lr=0.05), pool)
    model, _, prior = mlp_task_and_prior(32)
    pool = [generate_blob_tasks(BlobTaskSpec(n_classes=3, shots_tr=shots,
                                             n_tasks=1, seed=seed))[0]
            for shots, seed in ((5, 40), (3, 41), (5, 42))]
    return model, prior, dict(steps=5, lr=0.02, mc_budget=4), pool


class TestLockstep:
    """A batch steps in lockstep and each task gets the bits it gets alone."""

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("ids", [[1], [0, 1], [0, 1, 2, 0]],
                             ids=["B1", "B2-two-shapes", "B4-repeated-id"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_batch_equals_each_task_alone(self, kind, ids, freeze, record):
        model, prior, kw, pool = batch_pool(kind)
        cfg = InnerConfig(record_trace=record, **kw)
        seeds = [50 + j for j in range(len(ids))]
        before = model.grad_counter.count
        batch = run_inner_gd(model, [pool[i] for i in ids], prior, cfg, seeds,
                             freeze_log_var=freeze)
        assert model.grad_counter.count - before == len(ids) * cfg.steps
        assert len(batch) == len(ids)
        for i, seed, (v, trace) in zip(ids, seeds, batch):
            v1, trace1 = run_inner_gd(model, pool[i], prior, cfg, seed,
                                      freeze_log_var=freeze)
            assert np.array_equal(v.mean, v1.mean)
            assert np.array_equal(v.log_var, v1.log_var)
            if record:
                assert np.array_equal(trace.iterates, trace1.iterates)
                assert np.array_equal(trace.var_grads, trace1.var_grads)
                assert trace.step_seeds == trace1.step_seeds
            else:
                assert trace is None and trace1 is None
        # each task's result holds only its own rows
        for j, (v, trace) in enumerate(batch):
            for w, other in batch[j + 1:]:
                assert not np.shares_memory(v.mean, w.mean)
                assert not np.shares_memory(v.log_var, w.log_var)
                if record:
                    assert not np.shares_memory(trace.iterates, other.iterates)
                    assert not np.shares_memory(trace.var_grads,
                                                other.var_grads)

    def test_failed_tasks_stop_and_the_others_run_on(self):
        model, prior, kw, pool = batch_pool("linear")
        cfg = InnerConfig(record_trace=True, **kw)
        good = pool[0]
        diverging = TaskData(x_tr=1e4 * good.x_tr, y_tr=good.y_tr,
                             x_val=good.x_val, y_val=good.y_val,
                             noise_sigma=good.noise_sigma)
        wrong_kind = TaskData(x_tr=good.x_tr, y_tr=good.y_tr, x_val=good.x_val,
                              y_val=good.y_val, task_kind="classification")
        batch = [pool[1], diverging, pool[2], wrong_kind, pool[0]]
        out = run_inner_gd(model, batch, prior, cfg, list(range(5)))
        with pytest.raises(InnerDivergenceError) as alone:
            run_inner_gd(model, diverging, prior, cfg)
        assert isinstance(out[1], InnerDivergenceError)
        assert out[1].step == alone.value.step
        assert isinstance(out[3], ValueError)
        assert "regression tasks only" in str(out[3])
        for j in (0, 2, 4):
            v, trace = out[j]
            v1, trace1 = run_inner_gd(model, batch[j], prior, cfg, j)
            assert np.array_equal(v.mean, v1.mean)
            assert np.array_equal(v.log_var, v1.log_var)
            assert np.array_equal(trace.iterates, trace1.iterates)
            assert np.array_equal(trace.var_grads, trace1.var_grads)


class TestClosedForm:
    def test_no_data_returns_prior(self):
        p = 3
        prior = random_prior(p, 9)
        data = TaskData(x_tr=np.zeros((p, 0)), y_tr=np.zeros(0),
                        x_val=np.ones((p, 1)), y_val=np.ones(1))
        v = closed_form_linear_optimum(prior, data)
        assert np.allclose(v.mean, prior.mean, atol=1e-12)
        assert np.allclose(v.var, prior.var, rtol=1e-12)

    def test_uninformative_likelihood_returns_prior(self):
        p = 3
        prior = random_prior(p, 10)
        base = small_task(p, n=5, seed=10)
        data = TaskData(x_tr=base.x_tr, y_tr=base.y_tr, x_val=base.x_val,
                        y_val=base.y_val, noise_sigma=1e9)
        v = closed_form_linear_optimum(prior, data)
        assert np.linalg.norm(v.mean - prior.mean) <= 1e-6
        assert np.linalg.norm(v.var - prior.var) <= 1e-6

    def test_gd_fixed_point(self):
        p = 2
        data = small_task(p, n=5, seed=11)
        prior = random_prior(p, 11)
        model = LinearGaussianModel(p)
        v_star = closed_form_linear_optimum(prior, data)
        v, _ = run_inner_gd(model, data, prior, InnerConfig(steps=10 ** 5, lr=0.01))
        star = np.concatenate([v_star.mean, v_star.var])
        got = np.concatenate([v.mean, v.var])
        assert np.linalg.norm(got - star) <= 1e-6 * np.linalg.norm(star)

    def test_stationarity(self):
        p = 8
        data = small_task(p, n=16, seed=12)
        prior = random_prior(p, 12)
        model = LinearGaussianModel(p)
        v_star = closed_form_linear_optimum(prior, data)
        residual, scale = log_stationarity(model, data, v_star, prior)
        assert residual <= 1e-8 * scale

    def test_variance_contraction(self):
        for seed in range(10):
            p = 4
            data = small_task(p, n=8, seed=100 + seed)
            prior = random_prior(p, 100 + seed)
            v_star = closed_form_linear_optimum(prior, data)
            assert np.all(v_star.var <= prior.var + 1e-15)

    def test_alternative_variance_factor_is_not_stationary(self):
        # the variance denominator written with an extra factor of 2 is not
        # the fixed point of the objective the inner loop descends
        p = 4
        data = small_task(p, n=8, seed=13)
        prior = random_prior(p, 13)
        model = LinearGaussianModel(p)
        v_alt = closed_form_linear_optimum(prior, data,
                                           printed_variance_factor=True)
        residual, scale = log_stationarity(model, data, v_alt, prior)
        assert residual > 1e-3 * scale

    def test_rejects_classification_tasks(self):
        data = TaskData(x_tr=np.ones((2, 3)), y_tr=np.zeros(3),
                        x_val=np.ones((2, 1)), y_val=np.zeros(1),
                        task_kind="classification")
        with pytest.raises(ValueError):
            closed_form_linear_optimum(random_prior(2), data)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            InnerConfig(steps=-1)
        with pytest.raises(ValueError):
            InnerConfig(lr=0.0)
