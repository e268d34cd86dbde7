"""The benchmark's own correctness checks, run on the library as it stands.

One short traced run per workload (``perfbench/run.py``'s ``run_traced``)
covers: every op's checks (finite outputs, HVP counts against CG iterations
and K, the oracle counter), the seed-0 reference replay against
``perfbench/baseline.json``, byte-identical traced and untraced outputs, and
every patch site of the span tracer (a missing one raises ``KeyError``).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("linear-train", "blob-train", "nrmse-sweep", "blob-adapt")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """perfbench's ``run`` module, writing into ``tmp_path``; its BLAS
    variables and ``sys.path`` entry are undone after the test."""
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)  # restored at teardown
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return run


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_passes_every_benchmark_check(bench, name):
    wl = importlib.import_module("workloads").WORKLOADS[name]
    _, _, info, attempted, failed, problems, _, _ = bench.run_traced(
        wl, seed=3, seconds=0.2)
    assert problems == []
    assert failed == 0 and attempted > 0
    assert info["identical_outputs"]
