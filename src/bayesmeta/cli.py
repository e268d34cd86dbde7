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
checks the whole resolved config before it builds, writes or starts anything,
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
# the config keys that go into a BlobTaskSpec
BLOB_SPEC_KEYS = ("n_classes", "input_dim", "shots_tr", "shots_val",
                  "class_spread", "blob_sigma", "n_tasks")

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


def _build(cls, fixed: Dict[str, Any], **fields):
    """``cls(**fixed, name=value, ...)`` for ``fields`` given as
    ``name=(config key, value)``. A ValueError from the dataclass's checks
    becomes a ConfigError naming the keys whose value it refuses on its own
    (all of them when it refuses only their combination)."""
    try:
        return cls(**fixed, **{name: value
                               for name, (_, value) in fields.items()})
    except ValueError as exc:
        error = exc
    refused = []
    for name, (key, value) in fields.items():
        try:
            cls(**fixed, **{name: value})
        except ValueError:
            refused.append(key)
    keys = dict.fromkeys(refused or [key for key, _ in fields.values()])
    raise ConfigError(f"config key {', '.join(map(repr, keys))}: {error}")


def _linear_spec(cfg: Dict[str, Any], seed: int, n_tasks: int) -> TaskGenSpec:
    return _build(TaskGenSpec, {"seed": seed}, n_tasks=("n_tasks", n_tasks),
                  **{key: (key, cfg[key]) for key in LINEAR_TASK_DEFAULTS})


def _blob_spec(cfg: Dict[str, Any], task_seed: int) -> BlobTaskSpec:
    """The blob task spec, once the network and prior keys are in range."""
    if cfg["hidden"] < 1:
        raise ConfigError(f"config key 'hidden' must be >= 1, "
                          f"got {cfg['hidden']}")
    if not cfg["prior_init_var"] > 0:
        raise ConfigError(f"config key 'prior_init_var' must be positive, "
                          f"got {cfg['prior_init_var']}")
    return _build(BlobTaskSpec, {"seed": task_seed},
                  **{key: (key, cfg[key]) for key in BLOB_SPEC_KEYS})


def _linear_setup(spec: TaskGenSpec):
    """Linear tasks, their closed-form model and the starting prior."""
    tasks, _ = generate_linear_tasks(spec)
    p = spec.dim
    prior = PriorParams(standard_normal(p, derive_seed(spec.seed, 99)),
                        np.zeros(p))
    return tasks, LinearGaussianModel(p), prior


def _blob_setup(cfg: Dict[str, Any], spec: BlobTaskSpec):
    """Blob tasks, the MLP and its starting prior N(0, prior_init_var I)."""
    model = MLPModel([cfg["input_dim"], cfg["hidden"], cfg["n_classes"]])
    prior = PriorParams(np.zeros(model.dim),
                        np.log(cfg["prior_init_var"]) * np.ones(model.dim))
    return generate_blob_tasks(spec), model, prior


def _inner_configs(cfg: Dict[str, Any]) -> List[InnerConfig]:
    """One recording InnerConfig per entry of ``k_list``."""
    return [_build(InnerConfig, {"record_trace": True}, steps=("k_list", k),
                   lr=("inner_lr", cfg["inner_lr"]))
            for k in as_int_list(cfg["k_list"])]


# ---------------------------------------------------------------- nrmse-sweep

def _sweep_seed(plan, spec: TaskGenSpec) -> List[List[Any]]:
    """All sweep rows for one seed: one fresh task, a grid of (K, L, method)."""
    loss, inners, cgs = plan
    seed = spec.seed
    tasks, model, prior = _linear_setup(spec)
    data = tasks[0]
    truth = oracle_meta_gradient(prior, data, loss)
    rows: List[List[Any]] = []
    for inner in inners:
        k = inner.steps
        v_hat, trace = run_inner_gd(model, data, prior, inner, seed=seed)

        t0 = time.perf_counter_ns()
        ug = unrolled_meta_gradient(model, data, trace, prior, loss, seed=seed)
        wall = time.perf_counter_ns() - t0
        rows.append([k, 0, "unrolled", seed, nrmse(ug, truth),
                     nrmse(ug, truth, coords="raw"), ug.hvp_calls, wall])

        for cg in cgs:
            t0 = time.perf_counter_ns()
            ig = implicit_meta_gradient(model, data, v_hat, prior, loss, cg,
                                        seed=seed)
            wall = time.perf_counter_ns() - t0
            rows.append([k, cg.max_iters, "implicit", seed, nrmse(ig, truth),
                         nrmse(ig, truth, coords="raw"), ig.hvp_calls, wall])
    return rows


def cmd_nrmse_sweep(cfg: Dict[str, Any], seeds: List[int], workers: int):
    kind = cfg["loss_kind"]
    loss = _build(MetaLossSpec, {}, kind=("loss_kind", kind),
                  kl_weight=("loss_kind",
                             0.0 if kind == "val_nll_only" else 1.0),
                  mc_budget=("mc_budget", cfg["mc_budget"]))
    cgs = [_build(CgConfig, {}, max_iters=("l_list", l_budget),
                  rel_tol=("cg_rel_tol", cfg["cg_rel_tol"]))
           for l_budget in as_int_list(cfg["l_list"])]
    plan = (loss, _inner_configs(cfg), cgs)
    specs = [_linear_spec(cfg, s, 1) for s in seeds]

    def run(out_dir: Path) -> List[Path]:
        header = ["K", "L", "method", "seed", "nrmse_log", "nrmse_raw",
                  "hvp_calls", "wall_ns"]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                per_seed = list(pool.map(_sweep_seed, [plan] * len(specs),
                                         specs))
        else:
            per_seed = [_sweep_seed(plan, spec) for spec in specs]
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
                   for (k, l_budget, method), vals in sorted(cells.items())]
        summary_path = out_dir / "nrmse_summary.csv"
        _write_csv(summary_path, ["K", "L", "method", "median_nrmse_log",
                                  "q25", "q75", "n_seeds"], summary)
        return [path, summary_path]
    return run


# ---------------------------------------------------------------------- bench

def cmd_bench(cfg: Dict[str, Any], seeds: List[int], workers: int):
    """Backward-phase timing only; the forward inner run is shared and untimed."""
    reps = cfg["reps"]
    if reps < 10:
        raise ConfigError(f"config key 'reps' must be >= 10, got {reps}")
    spec = _linear_spec(cfg, seeds[0], 1)
    inners = _inner_configs(cfg)
    cg = _build(CgConfig, {}, max_iters=("cg_iters", cfg["cg_iters"]),
                rel_tol=("cg_rel_tol", cfg["cg_rel_tol"]))

    def run(out_dir: Path) -> List[Path]:
        seed = spec.seed
        tasks, model, prior = _linear_setup(spec)
        data = tasks[0]
        loss = MetaLossSpec()
        rows = []
        for inner in inners:
            k = inner.steps
            v_hat, trace = run_inner_gd(model, data, prior, inner, seed=seed)

            times_u, times_i = [], []
            hvp_u = hvp_i = 0
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                ug = unrolled_meta_gradient(model, data, trace, prior, loss,
                                            seed=seed)
                times_u.append(time.perf_counter_ns() - t0)
                hvp_u = ug.hvp_calls
                t0 = time.perf_counter_ns()
                ig = implicit_meta_gradient(model, data, v_hat, prior, loss,
                                            cg, seed=seed)
                times_i.append(time.perf_counter_ns() - t0)
                hvp_i = ig.hvp_calls
            # retained state of the backward phase, in float64 elements:
            # unrolled keeps the whole trace, (K+1) x 2p iterates plus the
            # K x p step gradients it reuses; implicit only the final iterate
            # plus the four CG work vectors (x, r, d, Hd).
            rows.append([k, "unrolled", int(np.median(times_u)), reps,
                         trace.iterates.size + trace.var_grads.size, hvp_u])
            rows.append([k, "implicit", int(np.median(times_i)), reps,
                         5 * 2 * model.dim, hvp_i])
        path = out_dir / "bench.csv"
        _write_csv(path, ["K", "method", "median_backward_ns", "reps",
                          "retained_elements", "hvp_calls"], rows)
        return [path]
    return run


# ---------------------------------------------------------------------- train

# train keys a resume may change: neither shapes the steps already taken
RESUMABLE_KEYS = ("iterations", "resume")


def _check_resume_manifest(path: Path, cfg: Dict[str, Any],
                           seeds: List[int]) -> None:
    """Refuse a resume whose manifest records another config or seed list."""
    try:
        manifest = json.loads(path.read_text())
        old_cfg, old_seeds = dict(manifest["config"]), manifest["seeds"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot resume: {path} is not a train manifest "
                          f"({type(exc).__name__}: {exc})")
    differ = sorted(key for key in set(old_cfg) | set(cfg)
                    if key not in RESUMABLE_KEYS
                    and old_cfg.get(key) != cfg.get(key))
    if old_seeds != seeds:
        differ.append("--seeds")
    if differ:
        raise ConfigError(
            f"cannot resume: {path.name} records another config "
            f"({', '.join(differ)} differ); set them back, use another "
            "--out, or set resume=false to start over")


def cmd_train(cfg: Dict[str, Any], seeds: List[int], workers: int):
    seed = seeds[0]
    dataset = cfg["dataset"]
    if dataset not in ("linear", "blob"):
        raise ConfigError(f"dataset must be linear or blob, got {dataset!r}")
    linear = dataset == "linear"
    inner = _build(InnerConfig, {},
                   steps=("inner_steps", cfg["inner_steps"]),
                   lr=("inner_lr", cfg["inner_lr"]),
                   # the linear model's expected nll is closed-form
                   mc_budget=("mc_budget",
                              None if linear else cfg["mc_budget"]))
    cg = _build(CgConfig, {}, max_iters=("cg_iters", cfg["cg_iters"]),
                rel_tol=("cg_rel_tol", cfg["cg_rel_tol"]),
                abort_on_negative_curvature=("cg_abort_negative",
                                             cfg["cg_abort_negative"]))
    loss = _build(MetaLossSpec, {}, mc_budget=("mc_budget", cfg["mc_budget"]))
    meta_cfg = _build(MetaConfig,
                      {"inner": inner, "cg": cg, "loss": loss, "seed": seed},
                      method=("method", cfg["method"]),
                      meta_lr=("meta_lr", cfg["meta_lr"]),
                      batch_size=("batch_size", cfg["batch_size"]),
                      iterations=("iterations", cfg["iterations"]))
    spec = (_linear_spec(cfg, seed, cfg["n_tasks"]) if linear
            else _blob_spec(cfg, seed))
    if not cfg["imaml_lambda"] > 0:
        raise ConfigError(f"config key 'imaml_lambda' must be positive, "
                          f"got {cfg['imaml_lambda']}")

    def run(out_dir: Path) -> List[Path]:
        tasks, oracle, prior = (_linear_setup(spec) if linear
                                else _blob_setup(cfg, spec))
        if meta_cfg.method == "imaml_mode":
            prior = imaml_prior(prior.dim, prior.mean, cfg["imaml_lambda"])
        ckpt_path = out_dir / "checkpoint.json"
        loss_path = out_dir / "loss.csv"
        manifest_path = out_dir / "train_manifest.json"
        start_iter, hvp_total = 0, 0
        if cfg["resume"] and ckpt_path.exists():
            for needed in (loss_path, manifest_path):
                if not needed.exists():
                    raise ConfigError(
                        f"cannot resume from {ckpt_path}: {needed.name} is "
                        "missing (restore it, or set resume=false to start "
                        "over)")
            prior, start_iter, hvp_total = _read_checkpoint(
                ckpt_path, oracle.dim, "cannot resume")
            _check_resume_manifest(manifest_path, cfg, seeds)
            if start_iter >= meta_cfg.iterations:
                # already trained this far: rewriting would rewind the
                # counter while keeping the later prior
                return [loss_path, ckpt_path]
        rows = []
        for r in range(start_iter, meta_cfg.iterations):
            batch = sample_batch(len(tasks), meta_cfg.batch_size,
                                 meta_cfg.seed, r)
            prior, report = meta_step(prior, oracle, tasks, batch, meta_cfg, r)
            hvp_total += report.hvp_calls
            rows.append([r, f"{report.mean_loss:.17g}", report.hvp_calls,
                         hvp_total])
        _write_csv(loss_path,
                   ["iteration", "mean_loss", "hvp_calls", "hvp_total"],
                   rows, append=start_iter > 0)
        ckpt_path.write_text(checkpoint_to_json(prior, meta_cfg.iterations,
                                                hvp_total) + "\n")
        return [loss_path, ckpt_path]
    return run


# ---------------------------------------------------------------- calibration

def cmd_calibration(cfg: Dict[str, Any], seeds: List[int], workers: int):
    seed = seeds[0]
    mc = cfg["mc_budget"]
    inner = _build(InnerConfig, {},
                   steps=("inner_steps", cfg["inner_steps"]),
                   lr=("inner_lr", cfg["inner_lr"]),
                   mc_budget=("mc_budget", mc))
    if cfg["n_bins"] < 1:
        raise ConfigError(f"config key 'n_bins' must be >= 1, "
                          f"got {cfg['n_bins']}")
    ckpt_path = Path(cfg["checkpoint"]) if cfg["checkpoint"] else None
    if ckpt_path is not None and not ckpt_path.is_file():
        raise ConfigError(f"config key 'checkpoint': no file {ckpt_path}")
    # tasks held out from training
    spec = _blob_spec(cfg, derive_seed(seed, 1))

    def run(out_dir: Path) -> List[Path]:
        tasks, model, prior = _blob_setup(cfg, spec)
        if ckpt_path is not None:
            prior, _, _ = _read_checkpoint(ckpt_path, model.dim,
                                           "config key 'checkpoint'")
        probs_all, labels_all, nlls = [], [], []
        for t, data in enumerate(tasks):
            task_seed = derive_seed(seed, 2, t)
            v_hat, _ = run_inner_gd(model, data, prior, inner, task_seed)
            probs, labels = posterior_predictive_probs(
                model, v_hat, data, mc, derive_seed(task_seed, 7))
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
    return run


# --------------------------------------------------------------------- verify

def cmd_verify(cfg: Dict[str, Any], seeds: List[int], workers: int):
    def run(out_dir: Path) -> List[Path]:
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
    return run


# name -> (defaults, command, default seeds). A command checks its config
# (building every config dataclass) and returns the run; main calls the run
# only after every check has passed.
COMMANDS = {
    "nrmse-sweep": (SWEEP_DEFAULTS, cmd_nrmse_sweep, list(range(20))),
    "bench": (BENCH_DEFAULTS, cmd_bench, [0]),
    "train": (TRAIN_DEFAULTS, cmd_train, [0]),
    "calibration": (CALIBRATION_DEFAULTS, cmd_calibration, [0]),
    "verify": (VERIFY_DEFAULTS, cmd_verify, [0]),
}
PARALLEL_COMMANDS = ("nrmse-sweep",)  # the only ones that take --workers


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
        if name in PARALLEL_COMMANDS:
            p.add_argument("--workers", type=int, default=1,
                           help="parallel worker processes, one seed each")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    defaults, command, default_seeds = COMMANDS[args.command]
    workers = getattr(args, "workers", 1)
    try:
        cfg = resolve_config(defaults, args.config, args.set)
        seeds = _parse_seeds(args.seeds) if args.seeds else list(default_seeds)
        if not seeds:
            raise ConfigError("at least one seed is required")
        if workers < 1:
            raise ConfigError("--workers must be >= 1")
        run = command(cfg, seeds, workers)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = utc_now()
        outputs = run(out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = write_manifest(out_dir, args.command, cfg, seeds, outputs,
                              started, __version__)
    print(f"wrote {', '.join(str(p) for p in outputs + [manifest])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
