"""bayesmeta benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload linear-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run builds its inputs from --seed, runs
one op after another for --seconds, checks every op, replays a fixed
reference segment (seed 0) and compares it with ``perfbench/baseline.json``,
then prints a metrics table and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Op and set-up times are scaled to a reference machine speed measured by the
probes in ``speedprobe.py``; the raw wall times are printed beside them.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the timed
loop untraced for half the time, replays the same ops with every layer
wrapped by the span tracer, checks that both produce identical output bytes
and reports the per-layer metrics. Spans and per-op output digests are
written under ``.bench_out/``.

``--record-baseline`` rewrites the reference outputs in
``perfbench/baseline.json`` from the code as it stands; do that only when a
change is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import os

# Fixed before NumPy loads its BLAS. One thread: the workloads are small
# (p <= 165), and a second thread only adds scheduling noise on a 2-core box.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speedprobe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
OUT_DIR = ROOT / ".bench_out"

REFERENCE_SEED = 0
SETUP_REPS = 5
# Reference comparison. Swapping the MLP einsums for batched matmuls (a
# reordering of the same sums) uses 0.1% of this tolerance on blob-train, where
# the FD HVP and the nonconvex trajectory amplify last-bit changes; one inner
# step less, one CG iteration less or half the MC samples exceed it 300-fold
# or more, or break an HVP-count check.
RTOL = 1e-6
ATOL = 1e-9

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "peak_rss_mb": "MB",
                    "quality_guard": "1"}

PER_LAYER_UNITS = {
    "models.grad_calls_per_op": "count/op",
    "models.hvp_calls_per_op": "count/op",
    "models.value_calls_per_op": "count/op",
    "models.grad_us": "us",
    "models.hvp_self_us": "us",
    "models.value_us": "us",
    "models.self_share": "fraction",
    "vi_core.derive_seed_calls_per_op": "count/op",
    "vi_core.standard_normal_calls_per_op": "count/op",
    "vi_core.kl_grad_calls_per_op": "count/op",
    "vi_core.validations_per_op": "count/op",
    "vi_core.self_ms_per_op": "ms",
    "inner_opt.steps_per_op": "count/op",
    "inner_opt.self_us_per_step": "us",
    "hyper_implicit.cg_iters_per_solve": "count",
    "hyper_implicit.negcurv_exits": "count/op",
    "hyper_implicit.cg_residual_median": "1",
    "hyper_implicit.self_ms_per_op": "ms",
    "hyper_unrolled.steps_per_op": "count/op",
    "hyper_unrolled.self_ms_per_op": "ms",
    "hyper_unrolled.retained_bytes": "B",
    "hyper_unrolled.retained_bytes_formula": "B",
    "meta_loss.self_ms_per_op": "ms",
    "linear_oracle.ms_per_op": "ms",
    "meta_driver.self_ms_per_op": "ms",
    "meta_driver.prior_clamps": "count/op",
    "meta_driver.taskgen_ms": "ms",
    "calibration.predictive_ms_per_op": "ms",
    "calibration.ece_ms": "ms",
    "trace.overhead_frac": "fraction",
}


# ---------------------------------------------------------------- helpers

def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def blas_info():
    """BLAS name from NumPy's build record and its live thread count."""
    import ctypes
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def environment(seed: int) -> dict:
    name, threads = blas_info()
    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": name,
            "blas_threads": threads if threads is not None else BLAS_THREADS,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "seed": seed}


def digest(out) -> str:
    h = hashlib.sha256()
    if isinstance(out, BaseException):
        h.update(repr(out).encode())
    else:
        for key in sorted(out):
            h.update(key.encode())
            h.update(np.ascontiguousarray(out[key]).tobytes())
    return h.hexdigest()


def to_json(out) -> dict:
    return {k: np.asarray(v).tolist() for k, v in sorted(out.items())}


def mismatches(got: dict, want: dict) -> list:
    """Keys where a run's output differs from the baseline record."""
    bad = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            bad.append(f"{key}: missing")
            continue
        a, b = np.asarray(got[key]), np.asarray(want[key])
        if a.shape != b.shape:
            bad.append(f"{key}: shape {a.shape} != {b.shape}")
        elif a.dtype.kind in "iub" and b.dtype.kind in "iub":
            if not np.array_equal(a, b):
                bad.append(f"{key}: integers differ")
        elif not np.allclose(a, b, rtol=RTOL, atol=ATOL):
            err = np.max(np.abs(a - b) / (ATOL + RTOL * np.abs(b)))
            bad.append(f"{key}: off by {err:.3g}x the tolerance")
    return bad


# ------------------------------------------------------------------ loops

def run_ops(wl, state, seconds=None, n_ops=None, tracer=None, probe=None):
    """Closed loop: each op starts when the previous one returns.

    Runs for ``seconds`` (at least one op) or exactly ``n_ops`` ops. With
    ``probe`` set, runs that speed probe before the first op and after every
    op, outside the op timings. Returns per-op wall times in ns, the outputs
    (or the exception an op raised) and the probe times in ns.
    """
    times, outs = [], []
    probes = [speedprobe.probe_ns(probe)] if probe is not None else []
    op = wl.op if tracer is None else tracer.wrap("op", wl.op)
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9) if seconds is not None else None
    i = 0
    while (i < n_ops) if n_ops is not None else (i == 0 or clock() < deadline):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out = op(state, i)
        except Exception as exc:  # an op that raises is counted as failed
            out = exc
        times.append(clock() - t0)
        outs.append(out)
        if probe is not None:
            probes.append(speedprobe.probe_ns(probe))
        i += 1
    return times, outs, probes


def check_ops(wl, state, outs, label):
    """Indices of the ops that raised or failed a check, and the problems."""
    bad, problems = set(), []
    for i, out in enumerate(outs):
        found = ([repr(out)] if isinstance(out, BaseException)
                 else wl.check(state, out))
        if found:
            bad.add(i)
        problems += [f"{label} op {i}: {p}" for p in found]
    return bad, problems


def ok_outputs(outs):
    return [o for o in outs if not isinstance(o, BaseException)]


def reference_replay(wl):
    """The fixed reference segment: outputs, whole-run extras, guards."""
    state = wl.setup(REFERENCE_SEED)
    _, outs, _ = run_ops(wl, state, n_ops=wl.n_reference)
    good = ok_outputs(outs)
    extra = wl.finish(good) if len(good) == len(outs) else {}
    guards = wl.guards(good, extra) if len(good) == len(outs) else {}
    return state, outs, extra, guards


def compare_reference(wl, state, outs, extra, guards):
    """Check the replay and compare it with the baseline record.

    Returns (attempted, failed, problems); the whole-run extras and guards
    count as one more op.
    """
    bad, problems = check_ops(wl, state, outs, "reference")
    record = json.loads(BASELINE.read_text())["workloads"].get(wl.name)
    if record is None:
        return len(outs) + 1, len(outs) + 1, [f"no baseline for {wl.name}"]
    for i, (out, want) in enumerate(zip(outs, record["ops"])):
        if isinstance(out, BaseException):
            continue
        differ = mismatches(to_json(out), want)
        if differ:
            bad.add(i)
        problems += [f"reference op {i}: {p}" for p in differ]
    summary = mismatches({**extra, **guards},
                         {**record["extra"], **record["guards"]})
    problems += [f"reference summary: {p}" for p in summary]
    return len(outs) + 1, len(bad) + bool(summary), problems


def probe_setup(wl, seed: int):
    """One set-up in a fresh interpreter: import, tasks, model and prior.

    Returns (seconds scaled to the reference speed, raw seconds).
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    setup_ns, probe = map(int, proc.stdout.split()[-2:])
    scaled = speedprobe.scaled([setup_ns], [probe, probe], wl.probe)[0]
    return scaled / 1e9, setup_ns / 1e9


# ------------------------------------------------------------------- modes

def run_untraced(wl, seed, seconds):
    setups = [probe_setup(wl, seed) for _ in range(SETUP_REPS)]
    state = wl.setup(seed)
    times, outs, probes = run_ops(wl, state, seconds=seconds, probe=wl.probe)
    bad, problems = check_ops(wl, state, outs, "timed")
    good = ok_outputs(outs)
    timed_extra = wl.finish(good) if good else {}
    ref = reference_replay(wl)
    ref_attempted, ref_failed, ref_problems = compare_reference(wl, *ref)
    guards = ref[3]
    scaled_ms = speedprobe.scaled(times, probes, wl.probe) / 1e6
    tail = float(np.percentile(scaled_ms, wl.tail_pct))
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": (len(outs) - len(bad)) / (scaled_ms.sum() / 1e3),
        "op_ms_p50": float(np.median(scaled_ms)),
        "op_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # 0 only when the reference replay failed, which the run reports
        "quality_guard": next(iter(guards.values())) if guards else 0.0,
    }
    attempted = len(outs) + ref_attempted
    failed = len(bad) + ref_failed
    info = {"tail_percentile": wl.tail_pct, "timed_ops": len(outs),
            "ops_beyond_tail": int((scaled_ms > tail).sum()),
            "fail_frac": failed / attempted,
            "guards": guards,
            "timed_ops_summary": timed_extra,
            "wall_op_ms_p50": statistics.median(times) / 1e6,
            "wall_setup_s": statistics.median(w for _, w in setups),
            "probe": wl.probe,
            "probe_ms_p50": statistics.median(probes) / 1e6,
            "probe_ms_reference": speedprobe.REFERENCE_NS[wl.probe] / 1e6}
    series = {"op_ms_wall": [t / 1e6 for t in times],
              "op_ms_scaled": scaled_ms.tolist(),
              "probe_ms": [t / 1e6 for t in probes]}
    return (metrics, END_TO_END_UNITS, info, attempted, failed,
            problems + ref_problems, outs, series)


def run_traced(wl, seed, seconds):
    import tracing
    state_a = wl.setup(seed)
    times_a, outs_a, probes_a = run_ops(wl, state_a, seconds=seconds / 2,
                                        probe=wl.probe)
    n = len(outs_a)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state_b = wl.setup(seed)
        tracer.trace_model(state_b.model)
        times_b, outs_b, probes_b = run_ops(wl, state_b, n_ops=n,
                                            tracer=tracer, probe=wl.probe)
        tracer.op_id = tracing.FINISH_OP
        good_b = ok_outputs(outs_b)
        if good_b:
            wl.finish(good_b)
    finally:
        tracer.uninstall()
    bad_a, problems = check_ops(wl, state_a, outs_a, "untraced")
    bad_b, problems_b = check_ops(wl, state_b, outs_b, "traced")
    problems += problems_b
    differ = [i for i, (a, b) in enumerate(zip(outs_a, outs_b))
              if digest(a) != digest(b)]
    problems += [f"traced op {i}: output bytes differ from the untraced run"
                 for i in differ]
    retained, formula = wl.retained_bytes(state_a)
    ref = reference_replay(wl)
    ref_attempted, ref_failed, ref_problems = compare_reference(wl, *ref)

    metrics = tracing.layer_metrics(tracer, n)
    # layer times scaled to the reference speed, like the end-to-end times
    speed = speedprobe.REFERENCE_NS[wl.probe] / statistics.median(probes_b)
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("ms", "us") and name in metrics:
            metrics[name] *= speed
    metrics["hyper_unrolled.retained_bytes"] = float(retained)
    metrics["hyper_unrolled.retained_bytes_formula"] = float(formula)
    metrics["meta_driver.prior_clamps"] = (
        sum(wl.clamps(o) for o in good_b) / n)
    metrics["trace.overhead_frac"] = float(
        speedprobe.scaled(times_b, probes_b, wl.probe).sum()
        / speedprobe.scaled(times_a, probes_a, wl.probe).sum() - 1.0)
    failed = len(bad_a) + len(bad_b | set(differ)) + ref_failed
    attempted = 2 * n + ref_attempted
    info = {"traced_ops": n, "identical_outputs": not differ,
            "layer_time_scale": speed,
            "outputs_sha256": hashlib.sha256("".join(
                digest(o) for o in outs_a).encode()).hexdigest(),
            "fail_frac": failed / attempted}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{wl.name}-seed{seed}-spans.npz")
    series = {"op_ms_wall_untraced": [t / 1e6 for t in times_a],
              "op_ms_wall_traced": [t / 1e6 for t in times_b]}
    return (metrics, PER_LAYER_UNITS, info, attempted, failed,
            problems + ref_problems, outs_a, series)


def record_baseline() -> int:
    from workloads import WORKLOADS
    record = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    record["environment"] = environment(REFERENCE_SEED)
    record["reference_seed"] = REFERENCE_SEED
    record["tolerance"] = {"rtol": RTOL, "atol": ATOL}
    record["workloads"] = {}
    for name, wl in WORKLOADS.items():
        state, outs, extra, guards = reference_replay(wl)
        _, problems = check_ops(wl, state, outs, "reference")
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        record["workloads"][name] = {"ops": [to_json(o) for o in outs],
                                     "extra": extra, "guards": guards}
        print(f"{name}: {len(outs)} reference ops, guards {guards}")
    BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True,
                                       allow_nan=False) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "bayesmeta" / "__init__.py").is_file():
        print(f"error: {SRC / 'bayesmeta'} not found; run from the root of a "
              "bayesmeta checkout", file=sys.stderr)
        return 2
    if not BASELINE.is_file() and not args.record_baseline:
        print(f"error: {BASELINE} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))

    if args.record_baseline:
        return record_baseline()

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    mode = run_traced if args.trace else run_untraced
    metrics, units, info, attempted, failed, problems, outs, series = mode(
        wl, args.seed, args.seconds)

    print(f"workload {wl.name}: {wl.why}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:16.6g} {units[name]}")
    for key, value in info.items():
        print(f"  {key:42s} {value}")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more failures")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "metrics": metrics, "info": info,
                    "problems": problems,
                    "op_sha256": [digest(o) for o in outs], **series},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
