"""Distribution-layer tests: KL values against quadrature, gradients against
finite differences (bayesmeta.verify's checks), sampling determinism and
moments."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bayesmeta import (PriorParams, VariationalParams, derive_seed,
                       kl_diag_gaussian, kl_grad, raw_to_log_grad,
                       sample_params, standard_normal)
from bayesmeta.verify import kl_grad_vs_fd, log_chain_rule_vs_fd, rel_err


def gaussian_kl_quadrature(m_q, d_q, m_p, d_p):
    """Independent oracle: numerically integrate q log(q/p) on the real line."""

    def logpdf(x, m, d):
        return -0.5 * ((x - m) ** 2 / d + np.log(2 * np.pi * d))

    def integrand(x):
        lq = logpdf(x, m_q, d_q)
        return np.exp(lq) * (lq - logpdf(x, m_p, d_p))

    lo = m_q - 12 * np.sqrt(d_q)
    hi = m_q + 12 * np.sqrt(d_q)
    val, err = quad(integrand, lo, hi, limit=200)
    assert err < 1e-7
    return val


def random_pair(p, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    prior = PriorParams(rng.normal(size=p), rng.uniform(-1, 1, p))
    q = VariationalParams(prior.mean + spread * rng.normal(size=p),
                          prior.log_var + spread * rng.uniform(-1, 1, p))
    return q, prior


class TestKlValue:
    def test_zero_at_equality(self):
        for p in (1, 2, 8, 32):
            _, prior = random_pair(p, p)
            q = VariationalParams.from_prior(prior)
            assert kl_diag_gaussian(q, prior) == pytest.approx(0.0, abs=1e-14)

    def test_unit_shift_against_quadrature(self):
        # q = N(1, 1), p = N(0, 1): quadrature gives exactly 1/2
        q = VariationalParams.from_var(np.array([1.0]), np.array([1.0]))
        prior = PriorParams.from_var(np.array([0.0]), np.array([1.0]))
        oracle = gaussian_kl_quadrature(1.0, 1.0, 0.0, 1.0)
        assert oracle == pytest.approx(0.5, abs=1e-9)
        assert kl_diag_gaussian(q, prior) == pytest.approx(oracle, abs=1e-9)

    def test_double_variance_against_quadrature(self):
        # q = N(0, 2), p = N(0, 1): quadrature gives 0.15342...
        q = VariationalParams.from_var(np.array([0.0]), np.array([2.0]))
        prior = PriorParams.from_var(np.array([0.0]), np.array([1.0]))
        oracle = gaussian_kl_quadrature(0.0, 2.0, 0.0, 1.0)
        assert oracle == pytest.approx(0.15342640972002733, abs=1e-9)
        assert kl_diag_gaussian(q, prior) == pytest.approx(oracle, abs=1e-9)

    def test_sums_over_coordinates(self):
        q, prior = random_pair(4, 7)
        total = sum(gaussian_kl_quadrature(q.mean[i], q.var[i],
                                           prior.mean[i], prior.var[i])
                    for i in range(4))
        assert kl_diag_gaussian(q, prior) == pytest.approx(total, rel=1e-8)

    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 8, 32]))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, seed, p):
        q, prior = random_pair(p, seed, spread=2.0)
        assert kl_diag_gaussian(q, prior) >= 0.0

    def test_dimension_mismatch_rejected(self):
        q = VariationalParams(np.zeros(3), np.zeros(3))
        prior = PriorParams(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            kl_diag_gaussian(q, prior)


class TestKlGrad:
    def test_zero_at_minimum(self):
        _, prior = random_pair(5, 3)
        q = VariationalParams.from_prior(prior)
        g_q, _ = kl_grad(q, prior)
        assert np.allclose(g_q.concat(), 0.0, atol=1e-14)

    def test_unit_mean_derivative(self):
        # q = N(1,1), p = N(0,1): d KL / d m_q = 1
        q = VariationalParams.from_var(np.array([1.0]), np.array([1.0]))
        prior = PriorParams.from_var(np.array([0.0]), np.array([1.0]))
        g_q, _ = kl_grad(q, prior)
        assert g_q.wrt_mean[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 8, 32])
    def test_matches_finite_differences(self, p):
        q, prior = random_pair(p, 100 + p)
        analytic, numeric = kl_grad_vs_fd(q, prior)
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * (
            1 + np.linalg.norm(numeric))


class TestSampling:
    def test_deterministic(self):
        q, _ = random_pair(6, 11)
        a = sample_params(q, 50, seed=123)
        b = sample_params(q, 50, seed=123)
        assert np.array_equal(a, b)
        c = sample_params(q, 50, seed=124)
        assert not np.array_equal(a, c)

    def test_zero_variance_collapses_to_mean(self):
        q = VariationalParams(np.array([2.0, -1.0]), np.array([-900.0, -900.0]))
        s = sample_params(q, 10, seed=0)
        assert np.allclose(s, q.mean[None, :], atol=1e-190)

    def test_moments(self):
        q = VariationalParams.from_var(np.array([0.0]), np.array([1.0]))
        s = sample_params(q, 100000, seed=5)
        assert abs(s.mean()) < 0.02
        assert abs(s.var() - 1.0) < 0.02

    def test_derive_seed_splits(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert standard_normal(4, derive_seed(0, 1)).shape == (4,)

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, -1])
    @pytest.mark.parametrize("shape", [(), (0,), (1,), (5, 7), (8, 133)])
    def test_rekeyed_draws_equal_fresh_generator(self, shape, seed):
        fresh = np.random.Generator(
            np.random.Philox(key=seed & (2 ** 64 - 1))).standard_normal(shape)
        draws = standard_normal(shape, seed)
        assert draws.shape == fresh.shape
        assert draws.tobytes() == fresh.tobytes()

    def test_concurrent_draws_equal_serial(self):
        seeds = [derive_seed(3, i) for i in range(64)]
        serial = [standard_normal((8, 133), s) for s in seeds]
        barrier = threading.Barrier(4)

        def draw_all(offset):
            barrier.wait(timeout=10)
            order = (seeds[offset:] + seeds[:offset]) * 5
            return [(s, standard_normal((8, 133), s)) for s in order]

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [f.result(timeout=60) for f in
                           [pool.submit(draw_all, 16 * t) for t in range(4)]]
        finally:
            sys.setswitchinterval(old_interval)
        expected = {s: draws.tobytes() for s, draws in zip(seeds, serial)}
        for res in results:
            assert len(res) == 5 * len(seeds)
            for s, draws in res:
                assert draws.tobytes() == expected[s]


class TestLogCoordinates:
    def test_identity_at_unit_variance(self):
        g = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(raw_to_log_grad(g, np.ones(3)), g)

    def test_definitional_product(self):
        assert raw_to_log_grad(np.array([3.0]), np.array([2.0]))[0] == 6.0

    def test_matches_fd_on_quadratic(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0.5, 2.0, 5)
        a = rng.normal(size=5)
        assert rel_err(*log_chain_rule_vs_fd(
            lambda dv: float(np.sum(a * dv ** 2)), 2 * a * d, d)) <= 1e-6

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            raw_to_log_grad(np.ones(2), np.array([1.0, 0.0]))


class TestParamTypes:
    def test_prior_variance_clamped(self):
        prior = PriorParams(np.zeros(1), np.array([-100.0]))
        assert prior.var[0] == pytest.approx(1e-8)
        prior = PriorParams(np.zeros(1), np.array([100.0]))
        assert prior.var[0] == pytest.approx(1e8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            VariationalParams(np.array([np.nan]), np.array([0.0]))
        with pytest.raises(ValueError):
            PriorParams(np.array([1.0]), np.array([np.inf]))

    def test_from_var_roundtrip(self):
        v = VariationalParams.from_var(np.array([1.0]), np.array([0.25]))
        assert v.var[0] == pytest.approx(0.25)
