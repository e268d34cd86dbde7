"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads linear-train,...]
        [--first-seed 100] [--trace 0] [--record]

Runs ``BENCHMARK.json``'s command once per (workload, seed), one run at a
time, and prints per workload and metric the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound. ``--record`` stores the
medians and quartiles under ``measured_trace<0|1>`` in
``perfbench/baseline.json``, with the environment of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def run_once(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    measured, env, ok = {}, None, True
    for workload in names:
        values = {}
        for r in range(args.runs):
            result, env = run_once(bench["command"], workload,
                                   args.first_seed + r, bench["run_seconds"],
                                   args.trace)
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {args.first_seed + r}: correct="
                  f"{result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)
        measured[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else None
            bound = bounds.get(name)
            flag = ("" if bound is None or spread is None or name == "setup_s"
                    else " OK" if spread < bound / 3 else
                    " within bound" if spread <= bound else " TOO WIDE")
            print(f"  {workload:13s} {name:40s} {units[name]:8s} "
                  f"median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread if spread is None else round(spread, 4)}"
                  + (f" bound {bound}" if bound is not None else "") + flag)
            measured[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "runs": len(vals),
                                        "values": vals}
    if args.record:
        record = json.loads(BASELINE.read_text())
        section = record.setdefault(f"measured_trace{args.trace}",
                                    {"workloads": {}})
        section.update({"environment": env, "runs": args.runs,
                        "first_seed": args.first_seed,
                        "run_seconds": bench["run_seconds"]})
        section["workloads"].update(measured)
        BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True,
                                       allow_nan=False) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
