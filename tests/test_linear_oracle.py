"""Dense ground-truth module tests: assembled H and G, snapshot invariants,
the dense meta-gradient, and the NRMSE metric."""

import numpy as np
import pytest

from bayesmeta import (InnerConfig, LinearGaussianModel, MetaGradient,
                       MetaLossSpec, PriorParams, TaskData,
                       closed_form_linear_optimum, dense_snapshot,
                       fd_meta_gradient, nrmse, oracle_dense_h,
                       oracle_meta_gradient)
from helpers import random_prior, small_task


class TestDenseAssembly:
    def test_no_data_block_diagonal(self):
        p = 3
        prior = random_prior(p, 1)
        data = TaskData(x_tr=np.zeros((p, 0)), y_tr=np.zeros(0),
                        x_val=np.ones((p, 1)), y_val=np.ones(1))
        v = closed_form_linear_optimum(prior, data)
        h = oracle_dense_h(prior, data, v)
        d_inv = 1.0 / prior.var
        want = np.zeros((2 * p, 2 * p))
        want[:p, :p] = np.diag(d_inv)
        want[p:, p:] = np.diag(0.5 * d_inv ** 2)
        assert np.allclose(h, want, atol=1e-12)

    def test_h_symmetric_and_positive_definite(self):
        for seed in range(5):
            p = 4
            data = small_task(p, seed=seed)
            prior = random_prior(p, seed)
            v = closed_form_linear_optimum(prior, data)
            h = oracle_dense_h(prior, data, v)
            assert np.linalg.norm(h - h.T) <= 1e-12 * np.linalg.norm(h)
            assert np.linalg.eigvalsh(h).min() > 0

    def test_snapshot_jacobian_identity(self):
        p = 4
        data = small_task(p, seed=6)
        prior = random_prior(p, 6)
        snap = dense_snapshot(prior, data)
        recon = snap.g_dense @ np.linalg.inv(snap.h_dense)
        assert np.linalg.norm(snap.jacobian_dense - recon) <= 1e-10 * (
            1 + np.linalg.norm(recon))

    def test_dense_p_cap(self):
        p = 65
        prior = PriorParams(np.zeros(p), np.zeros(p))
        data = TaskData(x_tr=np.zeros((p, 0)), y_tr=np.zeros(0),
                        x_val=np.ones((p, 1)), y_val=np.ones(1))
        with pytest.raises(ValueError):
            oracle_dense_h(prior, data,
                           closed_form_linear_optimum(prior, data))


class TestOracleMetaGradient:
    def test_uninformative_data_gives_tiny_gradient(self):
        p = 4
        base = small_task(p, seed=7, sigma=0.01)
        prior = random_prior(p, 7)
        spec = MetaLossSpec()
        baseline = np.linalg.norm(
            oracle_meta_gradient(prior, base, spec).concat_log())
        flat = TaskData(x_tr=base.x_tr, y_tr=base.y_tr, x_val=base.x_val,
                        y_val=base.y_val, noise_sigma=1e9)
        flat_norm = np.linalg.norm(
            oracle_meta_gradient(prior, flat, spec).concat_log())
        assert flat_norm <= 1e-6 * baseline

    def test_agrees_with_converged_unroll(self):
        p = 4
        data = small_task(p, seed=8)
        prior = random_prior(p, 8)
        model = LinearGaussianModel(p)
        spec = MetaLossSpec()
        truth = oracle_meta_gradient(prior, data, spec)
        fd = fd_meta_gradient(model, data, prior,
                              InnerConfig(steps=20000, lr=0.005), spec)
        err = np.linalg.norm(fd.concat_log() - truth.concat_log()) / \
            np.linalg.norm(truth.concat_log())
        assert err <= 1e-3


class TestNrmse:
    def _grad(self, vec, prior_var):
        p = len(vec) // 2
        return MetaGradient.from_raw(vec[:p], vec[p:], prior_var)

    def test_identity_is_zero(self):
        prior_var = np.array([1.0, 2.0])
        g = self._grad(np.array([1.0, 2.0, 3.0, 4.0]), prior_var)
        assert nrmse(g, g) == 0.0

    def test_zero_estimate_is_one(self):
        prior_var = np.array([1.0, 2.0])
        truth = self._grad(np.array([1.0, 2.0, 3.0, 4.0]), prior_var)
        zero = self._grad(np.zeros(4), prior_var)
        assert nrmse(zero, truth) == pytest.approx(1.0)

    def test_doubled_estimate_is_one(self):
        prior_var = np.array([0.5, 3.0])
        vec = np.array([1.0, -2.0, 0.5, 4.0])
        truth = self._grad(vec, prior_var)
        doubled = self._grad(2 * vec, prior_var)
        assert nrmse(doubled, truth) == pytest.approx(1.0)

    def test_raw_and_log_coordinates_differ(self):
        # at unit prior variance the two coordinate systems coincide
        ones = np.ones(2)
        truth = self._grad(np.array([1.0, 0.0, 1.0, 1.0]), ones)
        est = self._grad(np.array([0.0, 0.0, 2.0, 2.0]), ones)
        assert nrmse(est, truth, coords="log") == pytest.approx(
            nrmse(est, truth, coords="raw"))
        # with anisotropic prior variance they weight the blocks differently
        aniso = np.array([1.0, 4.0])
        truth = self._grad(np.array([1.0, 0.0, 1.0, 2.0]), aniso)
        est = self._grad(np.array([0.0, 0.0, 3.0, 1.0]), aniso)
        assert nrmse(est, truth, coords="log") != pytest.approx(
            nrmse(est, truth, coords="raw"))

    def test_zero_truth_rejected(self):
        prior_var = np.ones(2)
        zero = self._grad(np.zeros(4), prior_var)
        with pytest.raises(ValueError):
            nrmse(zero, zero)
