"""End-to-end command tests: row counts, manifest contents, bitwise resume,
calibration hand cases, verify exit status, and config validation."""

import csv
import json

import numpy as np
import pytest

from bayesmeta import ece_mce
from bayesmeta.cli import CALIBRATION_DEFAULTS, COMMANDS, SWEEP_DEFAULTS, main
from bayesmeta.config import resolve_config


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestNrmseSweep:
    def test_row_count_and_schema(self, tmp_path):
        rc = main(["nrmse-sweep", "--out", str(tmp_path), "--seeds", "0,1,2",
                   "--set", "k_list=1,5,20", "--set", "l_list=2,5"])
        assert rc == 0
        rows = read_csv(tmp_path / "nrmse_sweep.csv")
        assert rows[0] == ["K", "L", "method", "seed", "nrmse_log",
                           "nrmse_raw", "hvp_calls", "wall_ns"]
        # 3 K values x 3 seeds x (1 unrolled + 2 implicit L budgets)
        assert len(rows) - 1 == 3 * 3 * 3

    def test_counter_contracts_per_row(self, tmp_path):
        main(["nrmse-sweep", "--out", str(tmp_path), "--seeds", "0",
              "--set", "k_list=1,10", "--set", "l_list=3"])
        for row in read_csv(tmp_path / "nrmse_sweep.csv")[1:]:
            k, l_budget, method, _, _, _, hvp_calls, _ = row
            if method == "unrolled":
                assert int(hvp_calls) == int(k)
            else:
                assert int(hvp_calls) <= int(l_budget)

    def test_manifest_echoes_defaults(self, tmp_path):
        main(["nrmse-sweep", "--out", str(tmp_path), "--seeds", "0",
              "--set", "k_list=1"])
        manifest = json.loads((tmp_path / "nrmse-sweep_manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["dim"] == 32
        assert cfg["noise_sigma"] == 0.01
        assert cfg["cond_kappa"] == 20.0
        assert cfg["n_tr"] == 32
        assert cfg["n_val"] == 64
        assert cfg["inner_lr"] == 0.01
        assert cfg["mc_budget"] == 64
        assert manifest["seeds"] == [0]
        assert "nrmse_sweep.csv" in manifest["outputs"]

    def test_rerun_reproduces_outputs_bitwise(self, tmp_path):
        args = ["nrmse-sweep", "--seeds", "0,1", "--set", "k_list=1,5"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a/nrmse-sweep_manifest.json").read_text())
        b = json.loads((tmp_path / "b/nrmse-sweep_manifest.json").read_text())
        # digests cover everything except wall-clock timing columns
        sa = (tmp_path / "a/nrmse_summary.csv").read_bytes()
        sb = (tmp_path / "b/nrmse_summary.csv").read_bytes()
        assert sa == sb
        assert a["config"] == b["config"]

    def test_workers_give_identical_numbers(self, tmp_path):
        args = ["nrmse-sweep", "--seeds", "0,1,2,3", "--set", "k_list=1,5"]
        main(args + ["--out", str(tmp_path / "serial")])
        main(args + ["--out", str(tmp_path / "par"), "--workers", "4"])
        assert (tmp_path / "serial/nrmse_summary.csv").read_bytes() == \
            (tmp_path / "par/nrmse_summary.csv").read_bytes()

    def test_unknown_key_rejected_with_field_name(self, tmp_path, capsys):
        rc = main(["nrmse-sweep", "--out", str(tmp_path), "--set", "bogus=1"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_config_file_applies(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("k_list = 1, 2  # small grid\ndim = 8\nn_tr = 8\n")
        main(["nrmse-sweep", "--out", str(tmp_path), "--seeds", "0",
              "--config", str(cfg_file)])
        manifest = json.loads((tmp_path / "nrmse-sweep_manifest.json").read_text())
        assert manifest["config"]["dim"] == 8
        assert manifest["config"]["k_list"] == [1, 2]


class TestBench:
    def test_retained_elements_exact(self, tmp_path):
        main(["bench", "--out", str(tmp_path), "--set", "k_list=1,4,16",
              "--set", "reps=10"])
        rows = read_csv(tmp_path / "bench.csv")
        p = 32
        implicit_counts = set()
        for k, method, _, reps, retained, hvp in rows[1:]:
            assert int(reps) >= 10
            if method == "unrolled":
                # (K+1) x 2p iterates plus K x p step gradients
                assert int(retained) == (int(k) + 1) * 2 * p + int(k) * p
                assert int(hvp) == int(k)
            else:
                implicit_counts.add(int(retained))
                assert int(hvp) <= 5
        assert len(implicit_counts) == 1  # independent of K


class TestTrain:
    def test_single_iteration_outputs(self, tmp_path):
        rc = main(["train", "--out", str(tmp_path), "--set", "iterations=1",
                   "--set", "n_tasks=4"])
        assert rc == 0
        rows = read_csv(tmp_path / "loss.csv")
        assert len(rows) == 2
        ckpt = json.loads((tmp_path / "checkpoint.json").read_text())
        assert ckpt["iteration"] == 1

    def test_resume_is_bitwise(self, tmp_path):
        common = ["--set", "n_tasks=4", "--set", "batch_size=2"]
        main(["train", "--out", str(tmp_path / "full"),
              "--set", "iterations=6"] + common)
        main(["train", "--out", str(tmp_path / "split"),
              "--set", "iterations=3"] + common)
        main(["train", "--out", str(tmp_path / "split"),
              "--set", "iterations=6"] + common)
        assert (tmp_path / "full/checkpoint.json").read_bytes() == \
            (tmp_path / "split/checkpoint.json").read_bytes()
        assert (tmp_path / "full/loss.csv").read_bytes() == \
            (tmp_path / "split/loss.csv").read_bytes()

    def test_resume_with_fewer_iterations_leaves_outputs(self, tmp_path):
        common = ["--out", str(tmp_path), "--set", "n_tasks=4",
                  "--set", "batch_size=2"]
        main(["train", "--set", "iterations=4"] + common)
        ckpt = (tmp_path / "checkpoint.json").read_bytes()
        loss = (tmp_path / "loss.csv").read_bytes()
        assert main(["train", "--set", "iterations=2"] + common) == 0
        assert (tmp_path / "checkpoint.json").read_bytes() == ckpt
        assert (tmp_path / "loss.csv").read_bytes() == loss
        assert main(["train", "--set", "iterations=4"] + common) == 0
        assert (tmp_path / "checkpoint.json").read_bytes() == ckpt
        rows = read_csv(tmp_path / "loss.csv")
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]

    def test_resume_without_loss_csv_is_refused(self, tmp_path, capsys):
        common = ["--out", str(tmp_path), "--set", "n_tasks=4",
                  "--set", "batch_size=2"]
        assert main(["train", "--set", "iterations=2"] + common) == 0
        (tmp_path / "loss.csv").unlink()
        ckpt = (tmp_path / "checkpoint.json").read_bytes()
        assert main(["train", "--set", "iterations=4"] + common) == 2
        assert "loss.csv" in capsys.readouterr().err
        assert (tmp_path / "checkpoint.json").read_bytes() == ckpt
        assert not (tmp_path / "loss.csv").exists()

    def test_resume_from_another_dimension_is_refused(self, tmp_path, capsys):
        common = ["--out", str(tmp_path), "--set", "n_tasks=4"]
        assert main(["train", "--set", "iterations=1"] + common) == 0
        ckpt = (tmp_path / "checkpoint.json").read_bytes()
        loss = (tmp_path / "loss.csv").read_bytes()
        assert main(["train", "--set", "iterations=2", "--set", "dim=8",
                     "--set", "n_tr=8"] + common) == 2
        assert "dimension" in capsys.readouterr().err
        assert (tmp_path / "checkpoint.json").read_bytes() == ckpt
        assert (tmp_path / "loss.csv").read_bytes() == loss

    @pytest.mark.parametrize("changes, named", [
        (["--set", "n_tasks=6", "--set", "meta_lr=0.5"], ["meta_lr", "n_tasks"]),
        (["--seeds", "1"], ["--seeds"]),
    ])
    def test_resume_under_another_config_is_refused(self, tmp_path, capsys,
                                                    changes, named):
        out = ["--out", str(tmp_path)]
        assert main(["train", "--set", "iterations=1", "--set", "n_tasks=4"]
                    + out) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["checkpoint.json", "loss.csv",
                                  "train_manifest.json"]
        capsys.readouterr()
        assert main(["train", "--set", "iterations=2", "--set", "n_tasks=4"]
                    + changes + out) == 2
        err = capsys.readouterr().err
        for key in named:
            assert key in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_without_manifest_is_refused(self, tmp_path, capsys):
        common = ["--out", str(tmp_path), "--set", "n_tasks=4"]
        assert main(["train", "--set", "iterations=1"] + common) == 0
        (tmp_path / "train_manifest.json").unlink()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["train", "--set", "iterations=2"] + common) == 2
        assert "train_manifest.json" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_blob_dataset_runs(self, tmp_path):
        rc = main(["train", "--out", str(tmp_path), "--set", "dataset=blob",
                   "--set", "iterations=2", "--set", "n_tasks=4",
                   "--set", "inner_steps=5", "--set", "hidden=8",
                   "--set", "mc_budget=8"])
        assert rc == 0
        ckpt = json.loads((tmp_path / "checkpoint.json").read_text())
        # widths [2, 8, 5] parameter count
        assert len(ckpt["prior_mean"]) == 2 * 8 + 8 + 8 * 5 + 5


class TestCalibrationMetric:
    def test_all_confident_half_correct(self):
        # confidence 1.0 everywhere, accuracy 1/2: ECE = MCE = 0.5
        n = 40
        probs = np.zeros((n, 2))
        probs[:, 0] = 1.0
        labels = np.array([0, 1] * (n // 2))
        out = ece_mce(probs, labels, n_bins=10)
        assert out["ece"] == pytest.approx(0.5)
        assert out["mce"] == pytest.approx(0.5)

    def test_two_bin_hand_case(self):
        # bin A: 10 points at confidence 0.6, accuracy 0.5;
        # bin B: 30 points at confidence 0.9, accuracy 0.9
        probs = np.zeros((40, 2))
        labels = np.zeros(40, dtype=int)
        probs[:10, 0] = 0.6
        probs[:10, 1] = 0.4
        labels[:10] = [0, 1] * 5
        probs[10:, 0] = 0.9
        probs[10:, 1] = 0.1
        labels[10:] = [0] * 27 + [1] * 3
        out = ece_mce(probs, labels, n_bins=10)
        assert out["ece"] == pytest.approx(0.025)
        assert out["mce"] == pytest.approx(0.1)

    def test_perfectly_calibrated(self):
        probs = np.zeros((30, 2))
        probs[:, 0] = 0.8
        probs[:, 1] = 0.2
        labels = np.array([0] * 24 + [1] * 6)  # accuracy 0.8 == confidence
        out = ece_mce(probs, labels, n_bins=10)
        assert out["ece"] == pytest.approx(0.0)
        assert out["mce"] == pytest.approx(0.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ece_mce(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestCalibrationCommand:
    def test_writes_report(self, tmp_path):
        rc = main(["calibration", "--out", str(tmp_path),
                   "--set", "n_tasks=2", "--set", "inner_steps=5",
                   "--set", "mc_budget=8", "--set", "hidden=8"])
        assert rc == 0
        report = json.loads((tmp_path / "calibration.json").read_text())
        assert 0.0 <= report["ece"] <= report["mce"] <= 1.0
        assert report["n_bins"] == 10
        assert report["n"] == 2 * 5 * 10  # tasks x classes x shots_val

    def test_non_checkpoint_files_are_refused(self, tmp_path, capsys):
        # a loss.csv is not a checkpoint; a linear prior does not fit the MLP
        train_dir = tmp_path / "train"
        assert main(["train", "--out", str(train_dir), "--set", "iterations=1",
                     "--set", "n_tasks=4"]) == 0
        before = {p.name: p.read_bytes() for p in train_dir.iterdir()}
        for name in ("loss.csv", "checkpoint.json"):
            out = tmp_path / name
            assert main(["calibration", "--out", str(out),
                         "--set", f"checkpoint={train_dir / name}",
                         "--set", "n_tasks=2", "--set", "hidden=8"]) == 2
            assert "config key 'checkpoint'" in capsys.readouterr().err
            assert list(out.iterdir()) == []
        assert {p.name: p.read_bytes() for p in train_dir.iterdir()} == before


class TestVerifyCommand:
    def test_passes_and_writes_report(self, tmp_path):
        rc = main(["verify", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert [(c["name"], c["tolerance"]) for c in report["checks"]] == \
            PINNED_CHECKS
        for check in report["checks"]:
            assert {"name", "measured", "tolerance", "passed"} <= set(check)


# The verify report's checks, in order, with their tolerances.
PINNED_CHECKS = [
    ("kl_zero_at_equality_p1", 1e-12), ("kl_zero_at_equality_p2", 1e-12),
    ("kl_zero_at_equality_p8", 1e-12), ("kl_zero_at_equality_p32", 1e-12),
    ("kl_nonnegative", 1e-12),
    ("kl_grad_vs_fd_p1", 1e-6), ("kl_grad_vs_fd_p2", 1e-6),
    ("kl_grad_vs_fd_p8", 1e-6), ("kl_grad_vs_fd_p32", 1e-6),
    ("log_chain_rule_vs_fd", 1e-6),
    ("linear_grad_vs_fd", 1e-6), ("linear_hvp_vs_dense_fd", 1e-6),
    ("cg_vs_dense_solve_p6", 1e-8), ("cg_vs_dense_solve_p16", 1e-8),
    ("stationarity_at_closed_form", 1e-8),
    ("posterior_variance_contraction", 1e-15),
    ("variance_factor_discrepancy_demo", 1e-8),
    ("inner_objective_descent", 1e-12),
    ("lemma1_jacobian_vs_fd_p2", 1e-4), ("lemma1_jacobian_vs_fd_p4", 1e-4),
    ("lemma1_jacobian_vs_fd_p8", 1e-4),
    ("h_matvec_vs_dense", 1e-10),
    ("unrolled_hvp_count_equals_k", 0.0),
    ("unrolled_vs_fd_through_unroll", 1e-5),
    ("implicit_vs_dense_oracle", 1e-8),
    ("implicit_hvp_equals_cg_iters_k1", 0.0),
    ("implicit_hvp_equals_cg_iters_k100", 0.0),
    ("implicit_cost_invariant_in_k", 0.0),
    ("imaml_reduction_vs_dense", 1e-10),
]

# Every command's resolved default config, as its manifest records it.
PINNED_DEFAULTS = {
    "nrmse-sweep": {
        "cg_rel_tol": 1e-10, "cond_kappa": 20.0, "design_scale": 0.018,
        "dim": 32, "inner_lr": 0.01,
        "k_list": [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000], "l_list": [2],
        "loss_kind": "val_nll_only", "mc_budget": 64, "n_tr": 32, "n_val": 64,
        "noise_sigma": 0.01,
    },
    "bench": {
        "cg_iters": 5, "cg_rel_tol": 1e-10, "cond_kappa": 20.0,
        "design_scale": 0.018, "dim": 32, "inner_lr": 0.01,
        "k_list": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512], "n_tr": 32,
        "n_val": 64, "noise_sigma": 0.01, "reps": 10,
    },
    "train": {
        "batch_size": 4, "blob_sigma": 0.5, "cg_abort_negative": False,
        "cg_iters": 5, "cg_rel_tol": 1e-10, "class_spread": 2.0,
        "cond_kappa": 20.0, "dataset": "linear", "design_scale": 0.018,
        "dim": 32, "hidden": 32, "imaml_lambda": 1.0, "inner_lr": 0.01,
        "inner_steps": 100, "input_dim": 2, "iterations": 100,
        "mc_budget": 64, "meta_lr": 0.01, "method": "implicit",
        "n_classes": 5, "n_tasks": 20, "n_tr": 32, "n_val": 64,
        "noise_sigma": 0.01, "prior_init_var": 0.1, "resume": True,
        "shots_tr": 5, "shots_val": 10,
    },
    "calibration": {
        "blob_sigma": 0.5, "checkpoint": "", "class_spread": 2.0,
        "hidden": 32, "inner_lr": 0.01, "inner_steps": 100, "input_dim": 2,
        "mc_budget": 64, "n_bins": 10, "n_classes": 5, "n_tasks": 20,
        "prior_init_var": 0.1, "shots_tr": 5, "shots_val": 10,
    },
    "verify": {},
}


class TestConfig:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_resolved_defaults_are_pinned(self, command):
        cfg = resolve_config(COMMANDS[command][0], None, [])
        # compared as manifest text, so 20 in place of 20.0 also fails
        assert json.dumps(cfg, sort_keys=True) == \
            json.dumps(PINNED_DEFAULTS[command], sort_keys=True)

    @pytest.mark.parametrize("command, item, named", [
        ("nrmse-sweep", "dim=abc", ["dim"]),
        ("nrmse-sweep", "dim=2.5", ["dim"]),
        ("nrmse-sweep", "k_list=1,x", ["k_list"]),
        ("train", "resume=maybe", ["resume"]),
        ("train", "meta_lr=true", ["meta_lr"]),
        ("calibration", "checkpoint=a,b/ckpt.json",
         ["checkpoint", "a,b/ckpt.json"]),
        ("bench", "reps=3", ["reps"]),
        # non-finite floats and empty lists
        *[("train", item, [item.partition("=")[0]])
          for item in ("meta_lr=nan", "cond_kappa=inf", "inner_lr=inf",
                       "noise_sigma=inf")],
        ("calibration", "blob_sigma=nan", ["blob_sigma"]),
        ("bench", "cond_kappa=nan", ["cond_kappa"]),
        ("nrmse-sweep", "cg_rel_tol=nan", ["cg_rel_tol"]),
        ("nrmse-sweep", "k_list=,", ["k_list"]),
        ("bench", "k_list=,", ["k_list"]),
    ])
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, command,
                                          item, named):
        assert main([command, "--out", str(tmp_path), "--set", item]) == 2
        err = capsys.readouterr().err
        for text in named:
            assert text in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, items, named", [
        ("train", ["inner_lr=-1"], "inner_lr"),
        ("train", ["inner_steps=-1"], "inner_steps"),
        ("train", ["cg_iters=0"], "cg_iters"),
        ("train", ["batch_size=0"], "batch_size"),
        ("train", ["method=foo"], "method"),
        ("train", ["dim=0"], "dim"),
        ("nrmse-sweep", ["k_list=1,-1"], "k_list"),
        ("nrmse-sweep", ["l_list=0"], "l_list"),
        ("nrmse-sweep", ["loss_kind=foo"], "loss_kind"),
        ("bench", ["cg_rel_tol=-1"], "cg_rel_tol"),
        ("calibration", ["inner_lr=0"], "inner_lr"),
        *[("calibration", [f"{key}=0"], key)
          for key in ("n_bins", "n_tasks", "mc_budget", "hidden", "shots_val",
                      "input_dim", "n_classes", "prior_init_var")],
        ("train", ["n_tasks=0"], "n_tasks"),
        *[("train", ["dataset=blob", f"{key}=0"], key)
          for key in ("mc_budget", "hidden", "shots_val", "prior_init_var")],
        *[("train", [item], item.partition("=")[0])
          for item in ("noise_sigma=0", "n_val=0", "n_tr=8")],
        ("train", ["meta_lr=-1"], "meta_lr"),
        ("train", ["method=imaml_mode", "imaml_lambda=-1"], "imaml_lambda"),
        # each command's key -> field tables
        ("train", ["iterations=0"], "iterations"),
        ("train", ["cg_rel_tol=-1"], "cg_rel_tol"),
        ("train", ["cond_kappa=0.5"], "cond_kappa"),
        ("train", ["mc_budget=0"], "mc_budget"),
        *[("train", ["dataset=blob", item], item.partition("=")[0])
          for item in ("n_classes=0", "shots_tr=-1")],
        ("bench", ["cg_iters=0"], "cg_iters"),
        ("bench", ["inner_lr=0"], "inner_lr"),
        ("nrmse-sweep", ["inner_lr=0"], "inner_lr"),
        ("nrmse-sweep", ["cg_rel_tol=-1"], "cg_rel_tol"),
        ("calibration", ["inner_steps=-1"], "inner_steps"),
        # past the dense oracle's cap; a meta-loss with no MC sample
        ("nrmse-sweep", ["dim=65", "n_tr=65"], "dim"),
        ("nrmse-sweep", ["mc_budget=0"], "mc_budget"),
    ])
    def test_out_of_range_value_exits_2_naming_key(self, tmp_path, capsys,
                                                   command, items, named):
        # refused before any task, file or worker process is made
        args = [command, "--out", str(tmp_path), "--seeds", "0"]
        if command == "nrmse-sweep":
            args += ["--workers", "2"]
        for item in items:
            args += ["--set", item]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"config key '{named}'" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, write", [
        ("missing.cfg", lambda path: None),
        ("a_directory", lambda path: path.mkdir()),
        ("latin1.cfg", lambda path: path.write_bytes(b"dim = 8 # \xe9\n")),
    ], ids=["missing", "directory", "not_utf8"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, name,
                                            write):
        path = tmp_path / name
        write(path)
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "train", "calibration",
                                         "verify"])
    def test_workers_refused_where_unused(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path), "--workers", "4"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_accepted_values_keep_their_form(self):
        cfg = resolve_config(SWEEP_DEFAULTS, None,
                             ["noise_sigma=1", "k_list=1", "l_list=2,5"])
        assert type(cfg["noise_sigma"]) is int and cfg["noise_sigma"] == 1
        assert cfg["k_list"] == 1
        assert cfg["l_list"] == [2, 5]
        cfg = resolve_config(CALIBRATION_DEFAULTS, None,
                             ["checkpoint=a,b/ckpt.json"])
        assert cfg["checkpoint"] == "a,b/ckpt.json"
