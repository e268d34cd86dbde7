"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a short run of every workload prints every metric of
``BENCHMARK.json`` with its unit, that traced and untraced runs of one seed
produce the same output bytes, that injected faults are counted as failed
ops, and that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_command(workload, seed=7, seconds=1, trace=0, cwd=ROOT):
    return subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def run_in_process(workload, seconds=0.5, trace=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", "5",
                  "--seconds", str(seconds), "--trace", str(trace)])
    return json.loads(out.getvalue().strip().splitlines()[-1])


class ShortRuns(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            for w in BENCH["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_command(w["name"], trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        want)
                    table = "\n".join(lines[:-1])
                    for name, unit in want.items():
                        self.assertRegex(table, rf"{name}\s+\S+ {unit}\n")

    def test_traced_and_untraced_runs_write_identical_outputs(self):
        for trace in (0, 1):
            proc = run_command("blob-train", seed=11, seconds=2, trace=trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
        digests = [json.loads((run.OUT_DIR / f"blob-train-seed11-trace{t}.json")
                              .read_text())["op_sha256"] for t in (0, 1)]
        n = min(map(len, digests))
        self.assertGreater(n, 0)
        self.assertEqual(digests[0][:n], digests[1][:n])


class _FaultyLinear(workloads.LinearGaussianModel):
    """Linear oracle whose third HVP result is corrupted by ``fault``."""

    fault = None

    def nll_hvp(self, v, data, split, vec, mc_budget=None, seed=0):
        out = super().nll_hvp(v, data, split, vec, mc_budget, seed)
        if self.hvp_calls == 3:
            type(self).fault(self, out)
        return out


class InjectedFaults(unittest.TestCase):
    def run_with_fault(self, fault, workload="linear-train", trace=0):
        _FaultyLinear.fault = staticmethod(fault)
        original = workloads.LinearGaussianModel
        workloads.LinearGaussianModel = _FaultyLinear
        try:
            return run_in_process(workload, trace=trace)
        finally:
            workloads.LinearGaussianModel = original

    def assert_counted(self, result):
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_clean_run_passes(self):
        result = self.run_with_fault(lambda model, out: None)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_nonfinite_hvp_fails_its_op(self):
        def nan(model, out):
            out.wrt_mean[0] = np.nan
        self.assert_counted(self.run_with_fault(nan))

    def test_perturbed_hvp_is_caught_by_the_baseline(self):
        def nudge(model, out):
            out.wrt_mean *= 1 + 1e-3
        self.assert_counted(self.run_with_fault(nudge))
        self.assert_counted(self.run_with_fault(nudge, "nrmse-sweep"))

    def test_uncounted_extra_hvp_breaks_the_count_contract(self):
        def extra(model, out):
            model.hvp_counter.increment()
        self.assert_counted(self.run_with_fault(extra))
        self.assert_counted(self.run_with_fault(extra, "nrmse-sweep"))

    def test_tracer_that_changes_a_result_is_caught(self):
        # a last-bit change only in the traced replay: within the baseline
        # tolerance, so only the bitwise traced/untraced comparison sees it
        original = tracing.Tracer.trace_model

        def perturbing(tracer, model):
            original(tracer, model)
            hvp = model.nll_hvp

            def nudged(*args, **kwargs):
                out = hvp(*args, **kwargs)
                out.wrt_mean *= 1 + 1e-12
                return out
            model.nll_hvp = nudged
        tracing.Tracer.trace_model = perturbing
        try:
            self.assert_counted(run_in_process("linear-train", trace=1))
        finally:
            tracing.Tracer.trace_model = original
        record = json.loads((run.OUT_DIR / "linear-train-seed5-trace1.json")
                            .read_text())
        self.assertFalse(record["info"]["identical_outputs"])
        self.assertTrue(all("differ from the untraced run" in p
                            for p in record["problems"]), record["problems"])


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        bare = run.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_command("linear-train", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
