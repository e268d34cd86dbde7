"""Outer loop: synthetic task generation, batched meta-steps, checkpoints.

The meta-update is plain SGD on (mean, log-variance) coordinates of the
prior, averaging per-task meta-gradients over the batch. Methods: "implicit"
(CG-based), "unrolled" (backprop through the inner trace), and "imaml_mode"
(frozen isotropic variance, mean-block-only implicit gradient).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .hyper_implicit import CgConfig, implicit_meta_gradient
from .hyper_unrolled import unrolled_meta_gradient
from .inner_opt import InnerConfig, run_inner_gd
from .meta_loss import MetaGradient, MetaLossSpec, meta_loss_value
from .models import GradientOracle, TaskData
from .vi_core import PriorParams, derive_seed, standard_normal

METHODS = ("implicit", "unrolled", "imaml_mode")


@dataclass
class MetaConfig:
    method: str = "implicit"
    meta_lr: float = 0.01
    batch_size: int = 4
    iterations: int = 100
    inner: InnerConfig = field(default_factory=InnerConfig)
    cg: CgConfig = field(default_factory=CgConfig)
    loss: MetaLossSpec = field(default_factory=MetaLossSpec)
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.batch_size < 1 or self.iterations < 1:
            raise ValueError("batch_size and iterations must be >= 1")
        if not self.meta_lr > 0:
            raise ValueError("meta_lr must be positive")


@dataclass
class TaskGenSpec:
    dim: int = 32
    oracle_prior: Optional[PriorParams] = None  # default N(0, I)
    noise_sigma: float = 0.01
    cond_kappa: float = 20.0
    n_tr: int = 32
    n_val: int = 64
    n_tasks: int = 100
    seed: int = 0
    design_scale: float = 0.018  # largest singular value of the train design

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.cond_kappa < 1:
            raise ValueError("cond_kappa must be >= 1")
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if not self.noise_sigma > 0:
            raise ValueError("noise_sigma must be positive")
        if self.n_val < 1:
            raise ValueError("n_val must be >= 1")
        if self.n_tr < self.dim:
            raise ValueError(
                "n_tr >= dim required for the exact-condition design")
        if self.oracle_prior is None:
            self.oracle_prior = PriorParams(np.zeros(self.dim), np.zeros(self.dim))


def _random_orthogonal(n: int, seed: int) -> np.ndarray:
    a = standard_normal((n, n), seed)
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))[None, :]


def generate_linear_tasks(spec: TaskGenSpec
                          ) -> Tuple[List[TaskData], np.ndarray]:
    """Seeded linear-regression tasks with exact train condition number.

    The train design is U S V^T with orthogonal factors and geometrically
    spaced singular values (ratio exactly cond_kappa). Validation inputs are
    an independent Gaussian design rescaled to the same spectral norm.
    Returns (tasks, true task weights of shape (n_tasks, p)).
    """
    p, n_tr, n_val = spec.dim, spec.n_tr, spec.n_val
    prior = spec.oracle_prior
    sing = spec.design_scale * np.geomspace(1.0, 1.0 / spec.cond_kappa, p)
    tasks = []
    thetas = np.empty((spec.n_tasks, p))
    for t in range(spec.n_tasks):
        eps_theta = standard_normal(p, derive_seed(spec.seed, t, 0))
        theta_t = prior.mean + np.sqrt(prior.var) * eps_theta
        thetas[t] = theta_t
        u = _random_orthogonal(p, derive_seed(spec.seed, t, 1))
        v = _random_orthogonal(n_tr, derive_seed(spec.seed, t, 2))
        x_tr = u @ (sing[:, None] * v[:p, :])
        y_tr = x_tr.T @ theta_t + spec.noise_sigma * standard_normal(
            n_tr, derive_seed(spec.seed, t, 3))
        x_val = standard_normal((p, n_val), derive_seed(spec.seed, t, 4))
        x_val *= spec.design_scale / np.linalg.svd(x_val, compute_uv=False)[0]
        y_val = x_val.T @ theta_t + spec.noise_sigma * standard_normal(
            n_val, derive_seed(spec.seed, t, 5))
        tasks.append(TaskData(x_tr=x_tr, y_tr=y_tr, x_val=x_val, y_val=y_val,
                              noise_sigma=spec.noise_sigma,
                              task_kind="regression"))
    return tasks, thetas


@dataclass
class BlobTaskSpec:
    """Toy W-way Gaussian-blob classification tasks in the plane."""

    n_classes: int = 5
    input_dim: int = 2
    shots_tr: int = 5
    shots_val: int = 10
    class_spread: float = 2.0  # stddev of class centers
    blob_sigma: float = 0.5    # within-class scatter
    n_tasks: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("n_classes", "input_dim", "shots_val", "n_tasks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.shots_tr < 0:
            raise ValueError("shots_tr must be >= 0")


def generate_blob_tasks(spec: BlobTaskSpec) -> List[TaskData]:
    """Seeded classification tasks: per task, fresh class centers and blobs."""
    tasks = []
    w, dim = spec.n_classes, spec.input_dim
    for t in range(spec.n_tasks):
        centers = spec.class_spread * standard_normal(
            (w, dim), derive_seed(spec.seed, t, 0))

        def draw(shots: int, salt: int):
            labels = np.repeat(np.arange(w), shots)
            noise = standard_normal((w * shots, dim),
                                    derive_seed(spec.seed, t, salt))
            x = centers[labels] + spec.blob_sigma * noise
            return x.T, labels.astype(np.float64)

        x_tr, y_tr = draw(spec.shots_tr, 1)
        x_val, y_val = draw(spec.shots_val, 2)
        tasks.append(TaskData(x_tr=x_tr, y_tr=y_tr, x_val=x_val, y_val=y_val,
                              task_kind="classification"))
    return tasks


@dataclass
class StepReport:
    iteration: int
    task_ids: List[int]
    losses: List[float]
    hvp_calls: int
    cg_iters: List[int]
    cg_residuals: List[float]

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.losses))


def _inner_run(cfg: MetaConfig) -> Tuple[InnerConfig, bool]:
    """The inner config and ``freeze_log_var`` flag of the configured method."""
    inner = cfg.inner
    if cfg.method == "unrolled" and not inner.record_trace:
        inner = replace(inner, record_trace=True)
    return inner, cfg.method == "imaml_mode"


def task_meta_gradient(oracle: GradientOracle, data: TaskData,
                       prior: PriorParams, cfg: MetaConfig, seed: int,
                       adapted=None) -> Tuple[MetaGradient, float]:
    """Inner run plus the configured method's meta-gradient for one task.

    ``adapted`` is the task's ``(v_hat, trace)`` when its inner run is
    already done (:func:`meta_step` runs a batch's in lockstep).
    """
    inner, freeze = _inner_run(cfg)
    if adapted is None:
        adapted = run_inner_gd(oracle, data, prior, inner, seed,
                               freeze_log_var=freeze)
    v_hat, trace = adapted
    loss = meta_loss_value(oracle, data, v_hat, prior, cfg.loss, seed)
    if cfg.method == "unrolled":
        grad = unrolled_meta_gradient(oracle, data, trace, prior, cfg.loss, seed)
    else:
        grad = implicit_meta_gradient(oracle, data, v_hat, prior, cfg.loss,
                                      cfg.cg, inner.mc_budget, seed,
                                      mask_variance=freeze)
    return grad, loss


def sample_batch(n_tasks: int, batch_size: int, seed: int, r: int) -> np.ndarray:
    """With-replacement task indices for meta-iteration r, seeded and stateless."""
    gen = np.random.Generator(np.random.Philox(key=derive_seed(seed, r)))
    return gen.integers(0, n_tasks, size=batch_size)


def meta_step(prior: PriorParams, oracle: GradientOracle,
              tasks: List[TaskData], task_ids, cfg: MetaConfig, r: int
              ) -> Tuple[PriorParams, StepReport]:
    """One outer SGD step over the given batch of task indices.

    The batch's inner runs step in lockstep; then each task in batch order
    gets its meta-loss and meta-gradient. The first task that failed in any
    phase, in batch order, fails the step.
    """
    p = prior.dim
    avg_mean = np.zeros(p)
    avg_log_var = np.zeros(p)
    losses, cg_iters, cg_residuals = [], [], []
    hvp_total = 0
    ids = [int(t) for t in task_ids]
    batch = [tasks[t] for t in ids]
    seeds = [derive_seed(cfg.seed, r, t) for t in ids]
    inner, freeze = _inner_run(cfg)
    adapted = run_inner_gd(oracle, batch, prior, inner, seeds,
                           freeze_log_var=freeze)
    for t, data, seed, result in zip(ids, batch, seeds, adapted):
        try:
            if isinstance(result, Exception):
                raise result
            grad, loss = task_meta_gradient(oracle, data, prior, cfg, seed,
                                            result)
        except Exception as exc:
            raise RuntimeError(f"meta-step {r} failed on task {t}: {exc}") from exc
        avg_mean += grad.wrt_mean
        avg_log_var += grad.wrt_log_var
        losses.append(loss)
        cg_iters.append(grad.cg_iters)
        cg_residuals.append(grad.cg_residual)
        hvp_total += grad.hvp_calls
    n = len(ids)
    avg_mean /= n
    avg_log_var /= n
    new_mean = prior.mean - cfg.meta_lr * avg_mean
    if cfg.method == "imaml_mode":
        new_log_var = prior.log_var  # frozen coordinates
    else:
        new_log_var = prior.log_var - cfg.meta_lr * avg_log_var
    new_prior = PriorParams(new_mean, new_log_var)
    report = StepReport(iteration=r, task_ids=ids,
                        losses=losses, hvp_calls=hvp_total,
                        cg_iters=cg_iters, cg_residuals=cg_residuals)
    return new_prior, report


def imaml_prior(dim: int, mean: np.ndarray, lam: float) -> PriorParams:
    """Isotropic prior with variance 1/lambda (the frozen imaml_mode prior)."""
    return PriorParams(mean, np.full(dim, -np.log(lam)))


def checkpoint_to_json(prior: PriorParams, iteration: int,
                       hvp_total: int) -> str:
    return json.dumps({
        "schema": "bayesmeta.checkpoint.v1",
        "iteration": iteration,
        "prior_mean": prior.mean.tolist(),
        "prior_log_var": prior.log_var.tolist(),
        "hvp_total": hvp_total,
    }, indent=2)


def checkpoint_from_json(text: str) -> Tuple[PriorParams, int, int]:
    obj = json.loads(text)
    if obj.get("schema") != "bayesmeta.checkpoint.v1":
        raise ValueError("unrecognized checkpoint schema")
    prior = PriorParams(np.array(obj["prior_mean"]),
                        np.array(obj["prior_log_var"]))
    return prior, int(obj["iteration"]), int(obj["hvp_total"])
