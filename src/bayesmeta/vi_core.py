"""Mean-field Gaussian building blocks.

Variational and prior distributions are diagonal Gaussians over a
p-dimensional parameter vector. Variances are stored as log-variances
everywhere; raw variances are materialized on demand via ``.var``.

Sampling uses numpy's Philox counter-based generator keyed directly by the
caller's seed, so identical seeds give bitwise-identical draws and streams
can be split by deriving child seeds with :func:`derive_seed`. Each thread
rekeys one generator per call rather than building a new one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

# Clamp bounds for prior variances (applied at construction only).
D_MIN = 1e-8
D_MAX = 1e8


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries")
    return v.copy()


@dataclass(frozen=True)
class VariationalParams:
    """Diagonal Gaussian (m_t, log d_t): a task's posterior surrogate."""

    mean: np.ndarray
    log_var: np.ndarray

    def __init__(self, mean, log_var):
        mean = _as_vector(mean)
        log_var = _as_vector(log_var)
        if mean.shape != log_var.shape:
            raise ValueError("mean/log_var length mismatch")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_var", log_var)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def var(self) -> np.ndarray:
        return np.exp(self.log_var)

    @classmethod
    def from_var(cls, mean, var) -> "VariationalParams":
        var = _as_vector(var)
        if np.any(var <= 0):
            raise ValueError("variances must be positive")
        return cls(mean, np.log(var))

    @classmethod
    def from_prior(cls, prior: PriorParams) -> "VariationalParams":
        return cls(prior.mean, prior.log_var)

    @classmethod
    def _unchecked(cls, mean: np.ndarray,
                   log_var: np.ndarray) -> "VariationalParams":
        """Package-internal: wrap two arrays the caller has already checked
        (equal-length finite float64 vectors), without a copy."""
        v = object.__new__(cls)
        object.__setattr__(v, "mean", mean)
        object.__setattr__(v, "log_var", log_var)
        return v


@dataclass(frozen=True)
class PriorParams(VariationalParams):
    """Meta-parameters (m, log d) of the prior: the same diagonal Gaussian,
    with log d clipped to [log D_MIN, log D_MAX] at construction."""

    def __init__(self, mean, log_var):
        super().__init__(mean, log_var)
        # Assumption: prior variances positive and bounded.
        object.__setattr__(self, "log_var", np.clip(
            self.log_var, np.log(D_MIN), np.log(D_MAX)))


@dataclass
class TangentVector:
    """A (mean-block, variance-block) direction in raw-d coordinates.

    Concatenation order is always (mean, variance), total length 2p.
    """

    wrt_mean: np.ndarray
    wrt_var: np.ndarray

    def __post_init__(self):
        self.wrt_mean = np.asarray(self.wrt_mean, dtype=np.float64)
        self.wrt_var = np.asarray(self.wrt_var, dtype=np.float64)
        if self.wrt_mean.shape != self.wrt_var.shape or self.wrt_mean.ndim != 1:
            raise ValueError("tangent blocks must be equal-length vectors")

    @property
    def dim(self) -> int:
        return self.wrt_mean.shape[0]

    @classmethod
    def _unchecked(cls, wrt_mean: np.ndarray,
                   wrt_var: np.ndarray) -> "TangentVector":
        """Package-internal: wrap two arrays the caller has already checked
        (equal-length float64 vectors), without a copy."""
        t = object.__new__(cls)
        t.wrt_mean, t.wrt_var = wrt_mean, wrt_var
        return t

    def concat(self) -> np.ndarray:
        return np.concatenate([self.wrt_mean, self.wrt_var])

    @classmethod
    def zeros(cls, p: int) -> "TangentVector":
        return cls(np.zeros(p), np.zeros(p))

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.wrt_mean + other.wrt_mean,
                             self.wrt_var + other.wrt_var)

    def __mul__(self, c: float) -> "TangentVector":
        return TangentVector(c * self.wrt_mean, c * self.wrt_var)

    __rmul__ = __mul__


def _check_same_dim(q: VariationalParams, prior: PriorParams) -> int:
    if q.dim != prior.dim:
        raise ValueError(f"dimension mismatch: q has {q.dim}, prior has {prior.dim}")
    return q.dim


def kl_diag_gaussian(q: VariationalParams, prior: PriorParams) -> float:
    """KL( N(m_t, diag d_t) || N(m, diag d) ) for diagonal Gaussians."""
    _check_same_dim(q, prior)
    d_t, d = q.var, prior.var
    dm = prior.mean - q.mean
    terms = d_t / d - 1.0 + dm * dm / d + prior.log_var - q.log_var
    return float(0.5 * np.sum(terms))


def kl_grad(q: VariationalParams, prior: PriorParams):
    """Analytic gradients of :func:`kl_diag_gaussian`.

    Returns (grad wrt q, grad wrt prior), both in raw-variance coordinates.
    The q-gradient vanishes iff q equals the prior.
    """
    _check_same_dim(q, prior)
    d_t, d = q.var, prior.var
    dm = q.mean - prior.mean
    g_q = TangentVector(dm / d, 0.5 * (1.0 / d - 1.0 / d_t))
    g_prior = TangentVector(-dm / d,
                            0.5 * (1.0 / d - d_t / d ** 2 - dm * dm / d ** 2))
    return g_q, g_prior


def derive_seed(seed: int, *path: int) -> int:
    """Deterministically derive a child seed from (seed, path...)."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(i) for i in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


_thread_local = threading.local()


def standard_normal(shape, seed: int) -> np.ndarray:
    """Seeded standard-normal draws from a Philox counter-based generator.

    Each thread keeps one generator and rekeys it on every call: key
    ``[seed mod 2**64, 0]``, counter zero, empty buffer. That is the exact
    state of ``Philox(key=seed)``, so the draws are bitwise those of a freshly
    keyed generator, without building one (and its unused OS-entropy seed
    sequence) per call.
    """
    gen = getattr(_thread_local, "gen", None)
    if gen is None:
        gen = _thread_local.gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([int(seed) & (2 ** 64 - 1), 0],
                                  dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal(shape)


def sample_params(q: VariationalParams, n: int, seed: int) -> np.ndarray:
    """Reparameterized samples theta = m + sqrt(d) * eps, shape (n, p).

    Pure function of (q, n, seed). Raw variance zero is allowed here (every
    sample then equals the mean).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = standard_normal((n, q.dim), seed)
    return q.mean[None, :] + np.sqrt(q.var)[None, :] * eps


def central_fd(f, x: np.ndarray, steps) -> np.ndarray:
    """Central finite differences of ``f`` at ``x``, one coordinate at a time.

    Row i is (f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i) with h_i = steps[i];
    ``f`` may return a scalar or an array (the result is then a Jacobian
    with one row per coordinate).
    """
    rows = []
    for i, h in enumerate(steps):
        e = np.zeros_like(x)
        e[i] = h
        rows.append((f(x + e) - f(x - e)) / (2 * h))
    return np.array(rows)


def raw_to_log_grad(grad_wrt_d: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Chain rule into log-variance coordinates: grad_log = d * grad_d."""
    grad_wrt_d = np.asarray(grad_wrt_d, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if grad_wrt_d.shape != d.shape:
        raise ValueError("length mismatch")
    if np.any(d <= 0):
        raise ValueError("d must be positive")
    return d * grad_wrt_d
