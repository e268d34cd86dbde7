"""Task models exposing expected-nll value / gradient / HVP at a variational point.

Two implementations of the same oracle interface:

* :class:`LinearGaussianModel` -- Bayesian linear regression where the
  expected nll under a diagonal Gaussian is available in closed form.
* :class:`MLPModel` -- a small tanh feedforward network; the expected nll is
  a Monte Carlo average over reparameterized parameter samples, gradients are
  manual reverse-mode, and the HVP is a central finite difference of the
  gradient with common random numbers.

Additive constants independent of the variational point are dropped from all
nll values (gradients and HVPs are unaffected).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vi_core import TangentVector, standard_normal

FD_EPSILON = 1e-4  # relative step for the FD-of-gradient HVP


@dataclass
class TaskData:
    """One task's train/validation splits. Inputs are columns of x_*."""

    x_tr: np.ndarray
    y_tr: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    noise_sigma: float = 1.0
    task_kind: str = "regression"

    def __post_init__(self):
        self.x_tr = np.atleast_2d(np.asarray(self.x_tr, dtype=np.float64))
        self.x_val = np.atleast_2d(np.asarray(self.x_val, dtype=np.float64))
        self.y_tr = np.asarray(self.y_tr)
        self.y_val = np.asarray(self.y_val)
        if self.x_tr.shape[1] != self.y_tr.shape[0]:
            raise ValueError("x_tr column count must match y_tr length")
        if self.x_val.shape[1] != self.y_val.shape[0]:
            raise ValueError("x_val column count must match y_val length")
        if self.y_val.shape[0] < 1:
            raise ValueError("validation split must be nonempty")
        if self.task_kind == "regression" and self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive for regression")

    def split(self, which: str):
        if which == "train":
            return self.x_tr, self.y_tr
        if which == "val":
            return self.x_val, self.y_val
        raise ValueError(f"unknown split {which!r}")


class _CallCounter:
    """Thread-safe integer counter of oracle calls (gradients or HVPs)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def increment(self, n: int = 1) -> None:
        with self._lock:
            self._count += n


class GradientOracle:
    """Interface: expected nll value / gradient / HVP at a variational point.

    All three are deterministic for fixed (v, split, mc_budget, seed).
    Implementations must increment ``hvp_counter`` exactly once per
    ``nll_hvp`` call.

    The gradient is written once, here, on four hooks of the model:
    ``_check(dim, mc_budget)`` refuses a variational dimension or MC budget;
    ``_stack_key(data, split)`` groups the tasks that can share one stack;
    ``_stack(tasks, split)`` computes what depends on the tasks alone and
    refuses a task the model does not take; and ``_stacked_grad(stack,
    mean, log_var, mc_budget, seeds)`` maps (B, p) means and log-variances
    and one seed per row (or one seed whose draws all rows share) to the
    (B, p) mean and variance blocks, each row with the bits it gets alone.
    Callers must not write to the blocks: they may be arrays of the stack.
    """

    dim: int

    def __init__(self):
        self.hvp_counter = _CallCounter()
        self.grad_counter = _CallCounter()

    @property
    def hvp_calls(self) -> int:
        return self.hvp_counter.count

    def expected_nll(self, v, data, split, mc_budget=None, seed=0) -> float:
        raise NotImplementedError

    def nll_grad(self, v, data, split, mc_budget=None, seed=0) -> TangentVector:
        """``_stacked_grad`` on a one-task stack."""
        self._check(v.dim, mc_budget)
        stack = self._stack([data], split)
        self.grad_counter.increment()
        g_mean, g_var = self._stacked_grad(stack, v.mean[None], v.log_var[None],
                                           mc_budget, [seed])
        return TangentVector(g_mean[0], g_var[0])

    def nll_hvp(self, v, data, split, vec, mc_budget=None, seed=0) -> TangentVector:
        raise NotImplementedError

    def batch_nll_grad(self, tasks, split, mc_budget=None):
        """Stacked gradients for a batch of tasks of one variational dimension.

        Returns ``grad(mean, log_var, seeds)``: it maps (B, p) means and
        log-variances and one seed per task to the (B, p) mean and variance
        blocks of each task's :meth:`nll_grad`, bit for bit, and counts B
        gradients. Each group of tasks with one ``_stack_key`` is stacked
        once, here, and a call is one ``_stacked_grad`` per group.
        """
        groups = {}
        for i, data in enumerate(tasks):
            groups.setdefault(self._stack_key(data, split), []).append(i)
        # one group: a slice views the stacked rows, an index list copies
        stacks = [(idx if len(groups) > 1 else slice(None),
                   self._stack([tasks[i] for i in idx], split))
                  for idx in groups.values()]
        n_tasks = len(tasks)

        def grad(mean, log_var, seeds):
            self._check(mean.shape[1], mc_budget)
            self.grad_counter.increment(n_tasks)
            if len(stacks) == 1:
                return self._stacked_grad(stacks[0][1], mean, log_var,
                                          mc_budget, seeds)
            g_mean, g_var = np.empty_like(mean), np.empty_like(log_var)
            for rows, stack in stacks:
                g_mean[rows], g_var[rows] = self._stacked_grad(
                    stack, mean[rows], log_var[rows], mc_budget,
                    [seeds[i] for i in rows])
            return g_mean, g_var
        return grad


class LinearGaussianModel(GradientOracle):
    """Closed-form expected nll for y = x^T theta + AWGN under q = N(m_t, D_t).

    E_q[-log p] = (1/(2 sigma^2)) sum_n [ (y_n - x_n^T m_t)^2 + x_n^T D_t x_n ]
    up to an additive constant.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def _split(self, data: TaskData, split: str):
        if data.task_kind != "regression":
            raise ValueError("linear model handles regression tasks only")
        return data.split(split)

    def _check(self, dim: int, mc_budget):
        if dim != self.dim:
            raise ValueError("variational dimension mismatch")

    def expected_nll(self, v, data, split, mc_budget=None, seed=0) -> float:
        x, y = self._split(data, split)
        self._check(v.dim, mc_budget)
        resid = y - x.T @ v.mean
        quad = np.sum((x * x).sum(axis=1) * v.var)
        return float((resid @ resid + quad) / (2.0 * data.noise_sigma ** 2))

    def _stack_key(self, data, split):
        # padding unequal designs to one shape would change the BLAS sums
        return data.split(split)[0].shape

    def _stack(self, tasks, split):
        """The (B, p, N) designs and their transposes, ``X y``, the noise
        variances and the variance block, which is constant in v. A one-task
        stack, which ``nll_grad`` builds on every call, takes views."""
        consts = []
        for data in tasks:
            x, y = self._split(data, split)
            s2 = data.noise_sigma ** 2
            consts.append((x, x @ y, s2, (x * x).sum(axis=1) / (2.0 * s2)))
        if len(consts) == 1:
            x, xy, s2, g_var = consts[0]
            return x[None], x.T[None], xy[None], s2, g_var[None]
        x, xy, s2, g_var = map(np.stack, zip(*consts))
        return x, x.swapaxes(1, 2), xy, s2[:, None], g_var

    def _stacked_grad(self, stack, mean, log_var, mc_budget, seeds):
        x, xt, xy, s2, g_var = stack
        return (np.matmul(x, np.matmul(xt, mean[:, :, None]))[:, :, 0]
                - xy) / s2, g_var

    def nll_hvp(self, v, data, split, vec, mc_budget=None, seed=0) -> TangentVector:
        x, _ = self._split(data, split)
        self._check(v.dim, mc_budget)
        self.hvp_counter.increment()
        h_mean = x @ (x.T @ vec.wrt_mean) / data.noise_sigma ** 2
        return TangentVector._unchecked(h_mean, np.zeros(self.dim))


# Grow-only float64 work buffers, one set per thread, for the MLP's large
# arrays: the (B, S, p) samples, and per pass the (B, S, width, N) layer
# outputs and deltas and the (B, S, p) gradients. Fresh arrays would fault
# their pages in again on each pass, whenever the allocator has handed the
# freed heap top back to the OS.
_work = threading.local()


def _work_views(name: str, shapes):
    """Consecutive views of the given shapes into this thread's work buffer
    ``name``. A buffer grows to the largest request the thread has made and
    is kept, so a view is valid until the next request for that buffer."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = getattr(_work, name, None)
    if buf is None or buf.size < sum(sizes):
        buf = np.empty(sum(sizes))
        setattr(_work, name, buf)
    views, ofs = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buf[ofs:ofs + size].reshape(shape))
        ofs += size
    return views


def mlp_param_count(widths: Sequence[int]) -> int:
    return sum(widths[i + 1] * widths[i] + widths[i + 1]
               for i in range(len(widths) - 1))


class _TaskStack:
    """One split of B tasks of one kind, design shape and memory layout,
    stacked for an MLP pass: the (B, 1, w_in, N) inputs, which broadcast over
    the samples, and the targets with the index arrays the nll reads them by.

    ``np.stack`` keeps the tasks' (C or Fortran) order, on which the BLAS
    kernels of the backward pass, and so its bits, depend.
    """

    def __init__(self, tasks: Sequence[TaskData], split: str):
        xs, ys = zip(*(data.split(split) for data in tasks))
        self.x = np.stack(xs)[:, None]
        self.regression = tasks[0].task_kind == "regression"
        if self.regression:
            self.y = np.array(ys)[:, None, :]  # (B, 1, N)
            self.s2 = np.array([data.noise_sigma ** 2
                                for data in tasks])[:, None]  # (B, 1)
        else:
            # out[b, s, labels[b, n], n] is out[rows, :, labels, cols]
            self.labels = np.array(ys, dtype=int)  # (B, N)
            self.rows = np.arange(len(tasks))[:, None]
            self.cols = np.arange(self.labels.shape[1])


class MLPModel(GradientOracle):
    """Tanh MLP with Monte Carlo expected nll and manual reverse-mode gradients.

    ``widths`` gives layer sizes, e.g. [1, 40, 40, 1]. Hidden layers use tanh,
    the output layer is linear. Regression uses squared error / (2 sigma^2);
    classification uses softmax cross-entropy (sigma is ignored).

    The HVP is (g(v + h vec) - g(v - h vec)) / (2h) with the same seed on both
    sides, h = FD_EPSILON * (1 + ||v||_inf) / max(||vec||_inf, tiny).

    Every value and gradient comes from one pass over stacked (B, S, ...)
    arrays, each task with its own inputs, targets and draws: B=1 for
    :meth:`expected_nll` and :meth:`nll_grad`, B=2 for the HVP's two sides
    and one row per task for :meth:`batch_nll_grad`. Tasks are independent,
    so each row gets the bits of a pass of its own. The passes keep their
    large arrays in this thread's work buffers (see ``_work_views``), so
    instances may be shared across threads.
    """

    def __init__(self, widths: Sequence[int]):
        super().__init__()
        self.widths = list(widths)
        self.dim = mlp_param_count(self.widths)

    def _unpack(self, params: np.ndarray):
        """Split (..., p) parameter rows into per-layer weights/biases."""
        lead = params.shape[:-1]
        out = []
        ofs = 0
        for i in range(len(self.widths) - 1):
            n_in, n_out = self.widths[i], self.widths[i + 1]
            w = params[..., ofs:ofs + n_out * n_in].reshape(*lead, n_out, n_in)
            ofs += n_out * n_in
            b = params[..., ofs:ofs + n_out]
            ofs += n_out
            out.append((w, b))
        return out

    def _pass_views(self, lead, n: int):
        """Work-buffer views for one pass of ``lead`` (S or (B, S)) samples
        over N inputs: the (..., width, N) layer outputs, one back-propagated
        (..., width, N) delta per hidden layer, and the (..., p) gradients."""
        outs = [(*lead, w, n) for w in self.widths[1:]]
        deltas = [(*lead, w, n) for w in self.widths[1:-1]]
        views = _work_views("mlp_pass", outs + deltas + [(*lead, self.dim)])
        return views[:len(outs)], views[len(outs):-1], views[-1]

    def _forward(self, params: np.ndarray, x: np.ndarray):
        """Forward pass of parameter samples (..., p) over inputs
        (..., w_in, N) whose leading axes broadcast against them.

        Returns the output (..., w_out, N), the per-layer activations needed
        for backprop and the per-layer weights. The output and the hidden
        activations are views into this thread's work buffer, valid until
        the next MLP pass on the same thread: use them at once.
        """
        layers = self._unpack(params)
        outs, _, _ = self._pass_views(params.shape[:-1], x.shape[-1])
        acts = [x]  # matmul broadcasts the inputs over samples
        h = x
        for li, (w, b) in enumerate(layers):
            z = np.matmul(w, h, out=outs[li])
            z += b[..., None]
            h = np.tanh(z, out=z) if li < len(layers) - 1 else z
            acts.append(h)
        return h, acts, layers

    def _per_sample_nll(self, out: np.ndarray, stack: _TaskStack):
        """(B, S) nll per MC sample (summed over data points) and d nll / d
        out, for the (B, S, w_out, N) outputs of ``stack``'s tasks."""
        if stack.regression:
            resid = out[..., 0, :] - stack.y
            nll = 0.5 * np.sum(resid ** 2, axis=-1) / stack.s2
            dout = np.zeros_like(out)
            dout[..., 0, :] = resid / stack.s2[..., None]
            return nll, dout
        # softmax cross-entropy with integer labels
        z = out - out.max(axis=-2, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-2, keepdims=True))
        picked = (stack.rows, slice(None), stack.labels, stack.cols)
        nll = -logp[picked].sum(axis=1)  # (B, N, S) summed over N
        dout = np.exp(logp)
        dout[picked] -= 1.0
        return nll, dout

    def _backward(self, acts, layers, dout: np.ndarray) -> np.ndarray:
        """Accumulate d nll / d params, returning (..., p) gradients in this
        thread's work buffer. Overwrites the hidden activations."""
        n_layers = len(layers)
        lead = dout.shape[:-2]
        _, deltas, g_theta = self._pass_views(lead, dout.shape[-1])
        grads = [None] * n_layers
        delta = dout
        for li in range(n_layers - 1, -1, -1):
            w, _ = layers[li]
            h_in = acts[li]
            gw = delta @ h_in.swapaxes(-1, -2)
            gb = delta.sum(axis=-1)
            grads[li] = (gw, gb)
            if li > 0:
                delta = np.matmul(w.swapaxes(-1, -2), delta,
                                  out=deltas[li - 1])
                # acts[li] is spent: write the tanh slope 1 - a**2 over it
                slope = np.square(acts[li], out=acts[li])
                np.subtract(1.0, slope, out=slope)
                delta *= slope
        return np.concatenate([part for gw, gb in grads
                               for part in (gw.reshape(*lead, -1), gb)],
                              axis=-1, out=g_theta)

    def _sample(self, mean: np.ndarray, log_var: np.ndarray, mc_budget: int,
                seeds):
        """Antithetic reparameterized samples (B, S, p) of B points (mean,
        log-variance rows), with their eps draws and the (B, p) standard
        deviations. ``seeds`` holds one seed per row, or one seed whose
        (1, S, p) draws every row shares.

        Pairing eps with -eps cancels odd-order MC noise in the pathwise
        variance gradient exactly; an odd budget leaves one unpaired draw.
        The samples and draws are views into this thread's sample buffer,
        valid until the next ``_sample`` on the same thread.
        """
        b, p = mean.shape
        half = (mc_budget + 1) // 2
        eps, theta = _work_views("mlp_sample", [(len(seeds), mc_budget, p),
                                                (b, mc_budget, p)])
        for i, seed in enumerate(seeds):
            draws = standard_normal((half, p), seed)
            eps[i, :half] = draws
            np.negative(draws[:mc_budget - half], out=eps[i, half:])
        sqrt_d = np.sqrt(np.exp(log_var))
        np.multiply(sqrt_d[:, None, :], eps, out=theta)
        theta += mean[:, None, :]
        return theta, eps, sqrt_d

    def _check(self, dim: int, mc_budget):
        if dim != self.dim:
            raise ValueError(
                f"parameter count mismatch: network has {self.dim}, got {dim}")
        if mc_budget is None or mc_budget < 1:
            raise ValueError("mc_budget must be >= 1")

    def _stack_key(self, data, split):
        x = data.split(split)[0]
        return data.task_kind, x.shape, x.strides

    _stack = _TaskStack  # a class, so self._stack(tasks, split) binds no self

    def _stacked_grad(self, stack, mean, log_var, mc_budget, seeds):
        """Backprop through the stacked pass, then the pathwise rule."""
        theta, eps, sqrt_d = self._sample(mean, log_var, mc_budget, seeds)
        out, acts, layers = self._forward(theta, stack.x)
        _, dout = self._per_sample_nll(out, stack)
        g_theta = self._backward(acts, layers, dout)  # (B, S, p)
        # pathwise rule: d theta / d d = eps / (2 sqrt d)
        g_mean = g_theta.mean(axis=1)
        g_theta *= eps
        g_theta /= (2.0 * np.maximum(sqrt_d, 1e-300))[:, None, :]
        return g_mean, g_theta.mean(axis=1)

    def expected_nll(self, v, data, split, mc_budget=None, seed=0) -> float:
        self._check(v.dim, mc_budget)
        stack = self._stack([data], split)
        theta, _, _ = self._sample(v.mean[None], v.log_var[None], mc_budget,
                                   [seed])
        out, _, _ = self._forward(theta, stack.x)
        nll, _ = self._per_sample_nll(out, stack)
        return float(nll[0].mean())

    def nll_hvp(self, v, data, split, vec, mc_budget=None, seed=0) -> TangentVector:
        self._check(v.dim, mc_budget)
        self.hvp_counter.increment()
        d = v.var
        vnorm = max(np.abs(v.mean).max(), np.abs(d).max())
        vecnorm = max(np.abs(vec.wrt_mean).max(), np.abs(vec.wrt_var).max())
        if vecnorm == 0.0:
            return TangentVector.zeros(self.dim)
        h = FD_EPSILON * (1.0 + vnorm) / vecnorm
        # keep perturbed variances positive
        moved = vec.wrt_var != 0
        if moved.any():
            h = min(h, 0.5 * np.min(
                d[moved] / np.maximum(np.abs(vec.wrt_var[moved]), 1e-300)))
        # rows v + h vec and v - h vec, checked as VariationalParams.from_var
        step_mean, step_var = h * vec.wrt_mean, h * vec.wrt_var
        mean = np.array([v.mean + step_mean, v.mean - step_mean])
        var = np.array([d + step_var, d - step_var])
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise ValueError("non-finite entries")
        if np.any(var <= 0):
            raise ValueError("variances must be positive")
        # both sides: one pass whose two rows share the seed's draws
        self.grad_counter.increment(2)
        g_mean, g_var = self._stacked_grad(self._stack([data, data], split),
                                           mean, np.log(var), mc_budget, [seed])
        return TangentVector((g_mean[0] - g_mean[1]) / (2 * h),
                             (g_var[0] - g_var[1]) / (2 * h))
