"""Command-line entry point.

Subcommands:

* ``nrmse-sweep`` -- per-seed accuracy of both meta-gradient paths against
  the dense linear oracle, over a grid of inner step counts and CG budgets.
* ``bench`` -- median backward-phase wall time and retained-memory counts
  for both paths as the inner step count grows.
* ``train`` -- outer-loop meta-training with a loss CSV and a resumable
  JSON checkpoint.
* ``calibration`` -- ECE/MCE of the posterior predictive on held-out
  classification tasks.
* ``verify`` -- the built-in invariant suite; nonzero exit on any failure.

Every command takes --config PATH and repeatable --set key=value overrides,
writes its outputs under --out DIR, and records a JSON manifest with the
resolved config and sha256 digests of everything it wrote.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from . import __version__
from .calibration import ece_mce, posterior_predictive_probs
from .config import (ConfigError, as_int_list, resolve_config, utc_now,
                     write_manifest)
from .hyper_implicit import CgConfig, implicit_meta_gradient
from .hyper_unrolled import unrolled_meta_gradient
from .inner_opt import InnerConfig, run_inner_gd
from .linear_oracle import nrmse, oracle_meta_gradient
from .meta_driver import (BlobTaskSpec, MetaConfig, TaskGenSpec,
                          checkpoint_from_json, checkpoint_to_json,
                          generate_blob_tasks, generate_linear_tasks,
                          imaml_prior, meta_step, sample_batch)
from .meta_loss import MetaLossSpec
from .models import LinearGaussianModel, MLPModel
from .vi_core import PriorParams, derive_seed, standard_normal
from .verify import run_all_checks

# linear-regression task generation (nrmse-sweep, bench, train)
LINEAR_TASK_DEFAULTS: Dict[str, Any] = {
    "dim": 32,
    "noise_sigma": 0.01,
    "cond_kappa": 20.0,
    "n_tr": 32,
    "n_val": 64,
    "design_scale": 0.018,
}

# Gaussian-blob task generation, the network and its prior (train, calibration)
BLOB_TASK_DEFAULTS: Dict[str, Any] = {
    "hidden": 32,
    "n_classes": 5,
    "input_dim": 2,
    "shots_tr": 5,
    "shots_val": 10,
    "class_spread": 2.0,
    "blob_sigma": 0.5,
    "prior_init_var": 0.1,
}

SWEEP_DEFAULTS: Dict[str, Any] = {
    **LINEAR_TASK_DEFAULTS,
    "inner_lr": 0.01,
    "mc_budget": 64,
    "k_list": [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000],
    "l_list": [2],
    "cg_rel_tol": 1e-10,
    "loss_kind": "val_nll_only",
}

BENCH_DEFAULTS: Dict[str, Any] = {
    **LINEAR_TASK_DEFAULTS,
    "inner_lr": 0.01,
    "cg_iters": 5,
    "cg_rel_tol": 1e-10,
    "reps": 10,
    "k_list": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
}

TRAIN_DEFAULTS: Dict[str, Any] = {
    "dataset": "linear",  # linear | blob
    "method": "implicit",
    "iterations": 100,
    "batch_size": 4,
    "meta_lr": 0.01,
    "inner_steps": 100,
    "inner_lr": 0.01,
    "cg_iters": 5,
    "cg_rel_tol": 1e-10,
    # truncated CG: keep going past negative curvature (needed for the
    # nonconvex network, whose Hessian is indefinite away from the optimum)
    "cg_abort_negative": False,
    "mc_budget": 64,
    "imaml_lambda": 1.0,  # prior precision in imaml_mode
    "resume": True,
    "n_tasks": 20,
    **LINEAR_TASK_DEFAULTS,
    **BLOB_TASK_DEFAULTS,
}

CALIBRATION_DEFAULTS: Dict[str, Any] = {
    "n_tasks": 20,
    "mc_budget": 64,
    "inner_steps": 100,
    "inner_lr": 0.01,
    "n_bins": 10,
    "checkpoint": "",  # optional path to a train checkpoint
    **BLOB_TASK_DEFAULTS,
}

VERIFY_DEFAULTS: Dict[str, Any] = {}


def _parse_seeds(text: str) -> List[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds expects comma-separated integers, got {text!r}")


def _write_csv(path: Path, header: List[str], rows: List[List[Any]],
               append: bool = False) -> None:
    with path.open("a" if append else "w", newline="") as fh:
        w = csv.writer(fh)
        if not append:
            w.writerow(header)
        w.writerows(rows)


def _read_checkpoint(path: Path, dim: int, source: str):
    """(prior, iteration, hvp_total) of a train checkpoint whose prior has
    dimension ``dim``; anything else is refused naming ``source``."""
    try:
        prior, iteration, hvp_total = checkpoint_from_json(path.read_text())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{source}: {path} is not a train checkpoint "
                          f"({type(exc).__name__}: {exc})")
    if prior.dim != dim:
        raise ConfigError(f"{source}: {path} holds a prior of dimension "
                          f"{prior.dim}, the model has {dim}")
    return prior, iteration, hvp_total


def _linear_setup(cfg: Dict[str, Any], seed: int, n_tasks: int):
    """Linear tasks, their closed-form model and the starting prior."""
    p = cfg["dim"]
    spec = TaskGenSpec(dim=p, noise_sigma=cfg["noise_sigma"],
                       cond_kappa=cfg["cond_kappa"], n_tr=cfg["n_tr"],
                       n_val=cfg["n_val"], n_tasks=n_tasks, seed=seed,
                       design_scale=cfg["design_scale"])
    tasks, _ = generate_linear_tasks(spec)
    prior = PriorParams(standard_normal(p, derive_seed(seed, 99)), np.zeros(p))
    return tasks, LinearGaussianModel(p), prior


def _blob_setup(cfg: Dict[str, Any], task_seed: int):
    """Blob tasks, the MLP and its starting prior N(0, prior_init_var I)."""
    spec = BlobTaskSpec(n_classes=cfg["n_classes"], input_dim=cfg["input_dim"],
                        shots_tr=cfg["shots_tr"], shots_val=cfg["shots_val"],
                        class_spread=cfg["class_spread"],
                        blob_sigma=cfg["blob_sigma"], n_tasks=cfg["n_tasks"],
                        seed=task_seed)
    model = MLPModel([cfg["input_dim"], cfg["hidden"], cfg["n_classes"]])
    prior = PriorParams(np.zeros(model.dim),
                        np.log(cfg["prior_init_var"]) * np.ones(model.dim))
    return generate_blob_tasks(spec), model, prior


# ---------------------------------------------------------------- nrmse-sweep

def _sweep_seed(cfg: Dict[str, Any], seed: int) -> List[List[Any]]:
    """All sweep rows for one seed: one fresh task, a grid of (K, L, method)."""
    tasks, model, prior = _linear_setup(cfg, seed, 1)
    data = tasks[0]
    loss = MetaLossSpec(kind=cfg["loss_kind"],
                        kl_weight=0.0 if cfg["loss_kind"] == "val_nll_only" else 1.0,
                        mc_budget=cfg["mc_budget"])
    truth = oracle_meta_gradient(prior, data, loss)
    rows: List[List[Any]] = []
    for k in as_int_list(cfg["k_list"]):
        inner = InnerConfig(steps=k, lr=cfg["inner_lr"], record_trace=True)
        v_hat, trace = run_inner_gd(model, data, prior, inner, seed=seed)

        t0 = time.perf_counter_ns()
        ug = unrolled_meta_gradient(model, data, trace, prior, loss, seed=seed)
        wall = time.perf_counter_ns() - t0
        rows.append([k, 0, "unrolled", seed, nrmse(ug, truth),
                     nrmse(ug, truth, coords="raw"), ug.hvp_calls, wall])

        for l_budget in as_int_list(cfg["l_list"]):
            cg = CgConfig(max_iters=l_budget, rel_tol=cfg["cg_rel_tol"])
            t0 = time.perf_counter_ns()
            ig = implicit_meta_gradient(model, data, v_hat, prior, loss, cg,
                                        seed=seed)
            wall = time.perf_counter_ns() - t0
            rows.append([k, l_budget, "implicit", seed, nrmse(ig, truth),
                         nrmse(ig, truth, coords="raw"), ig.hvp_calls, wall])
    return rows


def cmd_nrmse_sweep(cfg: Dict[str, Any], out_dir: Path, seeds: List[int],
                    workers: int) -> List[Path]:
    header = ["K", "L", "method", "seed", "nrmse_log", "nrmse_raw",
              "hvp_calls", "wall_ns"]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_sweep_seed, [cfg] * len(seeds), seeds))
    else:
        per_seed = [_sweep_seed(cfg, s) for s in seeds]
    rows = [row for chunk in per_seed for row in chunk]
    path = out_dir / "nrmse_sweep.csv"
    _write_csv(path, header, rows)

    # per-cell median and interquartile range across seeds
    cells: Dict[Any, List[float]] = {}
    for k, l_budget, method, _, nrmse_log, *_ in rows:
        cells.setdefault((k, l_budget, method), []).append(nrmse_log)
    summary = [[k, l_budget, method,
                np.median(vals), np.percentile(vals, 25),
                np.percentile(vals, 75), len(vals)]
               for (k, l_budget, method), vals in sorted(cells.items(),
                                                         key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))]
    summary_path = out_dir / "nrmse_summary.csv"
    _write_csv(summary_path, ["K", "L", "method", "median_nrmse_log",
                              "q25", "q75", "n_seeds"], summary)
    return [path, summary_path]


# ---------------------------------------------------------------------- bench

def cmd_bench(cfg: Dict[str, Any], out_dir: Path, seeds: List[int],
              workers: int) -> List[Path]:
    """Backward-phase timing only; the forward inner run is shared and untimed."""
    reps = cfg["reps"]
    if reps < 10:
        raise ConfigError(f"config key 'reps' must be >= 10, got {reps}")
    seed = seeds[0]
    tasks, model, prior = _linear_setup(cfg, seed, 1)
    data, p = tasks[0], model.dim
    loss = MetaLossSpec()
    cg = CgConfig(max_iters=cfg["cg_iters"], rel_tol=cfg["cg_rel_tol"])
    rows = []
    for k in as_int_list(cfg["k_list"]):
        inner = InnerConfig(steps=k, lr=cfg["inner_lr"], record_trace=True)
        v_hat, trace = run_inner_gd(model, data, prior, inner, seed=seed)

        times_u, times_i = [], []
        hvp_u = hvp_i = 0
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            ug = unrolled_meta_gradient(model, data, trace, prior, loss, seed=seed)
            times_u.append(time.perf_counter_ns() - t0)
            hvp_u = ug.hvp_calls
            t0 = time.perf_counter_ns()
            ig = implicit_meta_gradient(model, data, v_hat, prior, loss, cg,
                                        seed=seed)
            times_i.append(time.perf_counter_ns() - t0)
            hvp_i = ig.hvp_calls
        # retained state for the backward phase, in float64 elements:
        # unrolled keeps the whole trace, implicit only the final iterate
        # plus the four CG work vectors (x, r, d, Hd).
        rows.append([k, "unrolled", int(np.median(times_u)), reps,
                     (k + 1) * 2 * p, hvp_u])
        rows.append([k, "implicit", int(np.median(times_i)), reps,
                     5 * 2 * p, hvp_i])
    path = out_dir / "bench.csv"
    _write_csv(path, ["K", "method", "median_backward_ns", "reps",
                      "retained_elements", "hvp_calls"], rows)
    return [path]


# ---------------------------------------------------------------------- train

def _train_setup(cfg: Dict[str, Any], seed: int):
    """Build (oracle, tasks, fresh prior, MetaConfig) from a resolved config."""
    dataset = cfg["dataset"]
    if dataset == "linear":
        tasks, oracle, prior = _linear_setup(cfg, seed, cfg["n_tasks"])
        inner_mc = None  # closed-form expected nll
    elif dataset == "blob":
        tasks, oracle, prior = _blob_setup(cfg, seed)
        inner_mc = cfg["mc_budget"]
    else:
        raise ConfigError(f"dataset must be linear or blob, got {dataset!r}")

    meta_cfg = MetaConfig(
        method=cfg["method"],
        meta_lr=cfg["meta_lr"],
        batch_size=cfg["batch_size"],
        iterations=cfg["iterations"],
        inner=InnerConfig(steps=cfg["inner_steps"], lr=cfg["inner_lr"],
                          mc_budget=inner_mc),
        cg=CgConfig(max_iters=cfg["cg_iters"], rel_tol=cfg["cg_rel_tol"],
                    abort_on_negative_curvature=cfg["cg_abort_negative"]),
        loss=MetaLossSpec(mc_budget=cfg["mc_budget"]),
        seed=seed,
    )
    if meta_cfg.method == "imaml_mode":
        prior = imaml_prior(prior.dim, prior.mean, cfg["imaml_lambda"])
    return oracle, tasks, prior, meta_cfg


def cmd_train(cfg: Dict[str, Any], out_dir: Path, seeds: List[int],
              workers: int) -> List[Path]:
    seed = seeds[0]
    oracle, tasks, prior, meta_cfg = _train_setup(cfg, seed)
    ckpt_path = out_dir / "checkpoint.json"
    loss_path = out_dir / "loss.csv"
    start_iter, hvp_total = 0, 0
    if cfg["resume"] and ckpt_path.exists():
        if not loss_path.exists():
            raise ConfigError(
                f"cannot resume from {ckpt_path}: {loss_path.name} is missing "
                "(restore it, or set resume=false to start over)")
        prior, start_iter, hvp_total = _read_checkpoint(
            ckpt_path, oracle.dim, "cannot resume")
        if start_iter >= meta_cfg.iterations:
            # already trained this far: rewriting would rewind the counter
            # while keeping the later prior
            return [loss_path, ckpt_path]
    rows = []
    for r in range(start_iter, meta_cfg.iterations):
        batch = sample_batch(len(tasks), meta_cfg.batch_size, meta_cfg.seed, r)
        prior, report = meta_step(prior, oracle, tasks, batch, meta_cfg, r)
        hvp_total += report.hvp_calls
        rows.append([r, f"{report.mean_loss:.17g}", report.hvp_calls,
                     hvp_total])
    _write_csv(loss_path, ["iteration", "mean_loss", "hvp_calls", "hvp_total"],
               rows, append=start_iter > 0)
    ckpt_path.write_text(checkpoint_to_json(prior, meta_cfg.iterations,
                                            hvp_total) + "\n")
    return [loss_path, ckpt_path]


# ---------------------------------------------------------------- calibration

def cmd_calibration(cfg: Dict[str, Any], out_dir: Path, seeds: List[int],
                    workers: int) -> List[Path]:
    seed = seeds[0]
    # tasks held out from training
    tasks, model, prior = _blob_setup(cfg, derive_seed(seed, 1))
    if cfg["checkpoint"]:
        ckpt_path = Path(cfg["checkpoint"])
        if not ckpt_path.is_file():
            raise ConfigError(f"config key 'checkpoint': no file {ckpt_path}")
        prior, _, _ = _read_checkpoint(ckpt_path, model.dim,
                                       "config key 'checkpoint'")
    mc = cfg["mc_budget"]
    inner = InnerConfig(steps=cfg["inner_steps"], lr=cfg["inner_lr"],
                        mc_budget=mc)
    probs_all, labels_all, nlls = [], [], []
    for t, data in enumerate(tasks):
        task_seed = derive_seed(seed, 2, t)
        v_hat, _ = run_inner_gd(model, data, prior, inner, task_seed)
        probs, labels = posterior_predictive_probs(model, v_hat, data, mc,
                                                   derive_seed(task_seed, 7))
        probs_all.append(probs)
        labels_all.append(labels)
        nlls.append(model.expected_nll(v_hat, data, "val", mc, task_seed))
    probs = np.concatenate(probs_all, axis=0)
    labels = np.concatenate(labels_all, axis=0)
    report = ece_mce(probs, labels, n_bins=cfg["n_bins"])
    report["mean_val_nll"] = float(np.mean(nlls))
    report["accuracy"] = float((probs.argmax(axis=1) == labels).mean())
    report["n_tasks"] = cfg["n_tasks"]
    path = out_dir / "calibration.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return [path]


# --------------------------------------------------------------------- verify

def cmd_verify(cfg: Dict[str, Any], out_dir: Path, seeds: List[int],
               workers: int) -> List[Path]:
    results = run_all_checks()
    for res in results:
        print(res.line())
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    path = out_dir / "verify_report.json"
    path.write_text(json.dumps(
        {"schema": "bayesmeta.verify.v1",
         "passed": n_fail == 0,
         "checks": [res.__dict__ for res in results]},
        indent=2, sort_keys=True) + "\n")
    if n_fail:
        raise SystemExit(1)
    return [path]


COMMANDS = {
    "nrmse-sweep": (SWEEP_DEFAULTS, cmd_nrmse_sweep, list(range(20))),
    "bench": (BENCH_DEFAULTS, cmd_bench, [0]),
    "train": (TRAIN_DEFAULTS, cmd_train, [0]),
    "calibration": (CALIBRATION_DEFAULTS, cmd_calibration, [0]),
    "verify": (VERIFY_DEFAULTS, cmd_verify, [0]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesmeta",
        description="Bayesian meta-gradient experiments and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seeds", default=None,
                       help="comma-separated seed list")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel workers (per-seed, where supported)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    defaults, fn, default_seeds = COMMANDS[args.command]
    try:
        cfg = resolve_config(defaults, args.config, args.set)
        seeds = _parse_seeds(args.seeds) if args.seeds else list(default_seeds)
        if not seeds:
            raise ConfigError("at least one seed is required")
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = utc_now()
        outputs = fn(cfg, out_dir, seeds, args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = write_manifest(out_dir, args.command, cfg, seeds, outputs,
                              started, __version__)
    print(f"wrote {', '.join(str(p) for p in outputs + [manifest])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
