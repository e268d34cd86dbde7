"""Fixed reference kernels that measure how fast the machine runs right now.

A shared 2-core x86_64 virtual machine (OpenBLAS, one thread) changed speed by
up to a factor of 1.8 within a minute (the same nrmse-sweep op took 234 to 433 ms
in consecutive 15-second blocks), in CPU time as well as wall time. The
harness therefore runs a probe before the first op and after every op, and
reports op times scaled to the probes' reference time:
``op_ns * REFERENCE_NS / probe_ns``, with ``probe_ns`` the mean of the probes
on either side of the op. The probes use NumPy and Python only, never the
library, so a change to the library moves the op times and not the probes.

Two probes match the two kinds of op: ``python`` for the small-array,
interpreter-bound linear workloads, and ``mlp`` for the batched tanh-network
forward and backward passes of the blob workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Probe times on the reference machine at nominal speed (2-core x86_64,
# OpenBLAS with one thread); they only set the scale of the reported times.
REFERENCE_NS = {"python": 3_500_000, "mlp": 7_000_000}


@dataclass
class _Vector:
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite")


def _python_kernel() -> float:
    rng = np.random.Generator(np.random.Philox(key=1))
    x = rng.standard_normal((32, 32))
    v = rng.standard_normal(32)
    acc = 0.0
    for i in range(150):
        seed = np.random.SeedSequence((7, i)).generate_state(1)[0]
        v = x @ (x.T @ v) * 1e-3 + 0.5 * v
        w = _Vector(np.concatenate([v, -v]))
        acc += float(w.data[0]) + float(seed & 1)
    return acc


def _mlp_kernel() -> float:
    rng = np.random.Generator(np.random.Philox(key=2))
    w1 = rng.standard_normal((64, 32, 2))
    w2 = 0.2 * rng.standard_normal((64, 5, 32))
    x = np.broadcast_to(rng.standard_normal((2, 25)), (64, 2, 25))
    acc = 0.0
    for _ in range(4):
        h = np.tanh(np.einsum("soi,sin->son", w1, x))
        out = np.einsum("soi,sin->son", w2, h)
        p = np.exp(out - out.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g2 = np.einsum("son,sin->soi", p, h)
        d = np.einsum("soi,son->sin", w2, p) * (1.0 - h ** 2)
        g1 = np.einsum("son,sin->soi", d, x)
        acc += float(g1[0, 0, 0] + g2[0, 0, 0])
    return acc


KERNELS = {"python": _python_kernel, "mlp": _mlp_kernel}


def probe_ns(kind: str) -> int:
    """Wall time of one run of the ``kind`` kernel, in ns."""
    kernel = KERNELS[kind]
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def scaled(times_ns, probes_ns, kind: str) -> np.ndarray:
    """Op times scaled to the reference speed.

    ``probes_ns`` holds one probe before the first op and one after every op;
    each op is scaled by the mean of the two probes around it. (A median over
    a wider window of probes tracked the op's speed worse on the shared VM:
    it switches between a fast and a slow state within seconds.)
    """
    probes = np.asarray(probes_ns, dtype=np.float64)
    if len(probes) != len(times_ns) + 1:
        raise ValueError("need one probe before the first op and one after each")
    local = 0.5 * (probes[:-1] + probes[1:])
    return np.asarray(times_ns, dtype=np.float64) * REFERENCE_NS[kind] / local
