"""Experiment harness: config parsing, matrix runs, outputs, CLI."""

import json
import os

import numpy as np
import pytest

from sr2kit import cli, harness
from sr2kit.errors import ParseError
from sr2kit.regularizers import L1

BASIC_CONFIG = """\
problem:
  kind: least_squares
  N: 40
  n: 8
  noise_sd: 0.1
  gen_seed: 1
regularizers:
  - kind: l1
    lam: 0.05
solvers:
  sr2: {}
run:
  seeds: [3]
  batch_size: 40
  max_iter: 60
"""

CLASSIFICATION_CONFIG = """\
problem:
  kind: logistic
  N: 60
  n: 6
  gen_seed: 2
regularizers:
  - kind: l1
    lam: 0.01
  - kind: l0
    lam: 0.01
solvers:
  sr2: {}
  proxgen: {}
  proxsgd: {}
run:
  seeds: [0, 1]
  batch_size: 16
  epochs: 3
"""


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_basic(self, tmp_path):
        spec = harness.parse_config(write_config(tmp_path, BASIC_CONFIG))
        assert spec.seeds == [3]
        assert spec.regularizers == [L1(0.05)]
        assert spec.batch_size == 40

    def test_default_l1_grid(self, tmp_path):
        cfg = "problem:\n  kind: least_squares\n  N: 10\n  n: 3\n"
        spec = harness.parse_config(write_config(tmp_path, cfg))
        assert [r.lam for r in spec.regularizers] == [1e-4, 1e-3, 1e-2]

    def test_sr2_defaults_applied(self, tmp_path):
        spec = harness.parse_config(write_config(tmp_path, BASIC_CONFIG))
        assert spec.solvers["sr2"] == {}  # stock hyperparameters kick in

    def test_unknown_key_strict(self, tmp_path):
        bad = BASIC_CONFIG + "extra_section: 1\n"
        with pytest.raises(ParseError, match="extra_section"):
            harness.parse_config(write_config(tmp_path, bad))

    def test_unknown_solver_key(self, tmp_path):
        bad = BASIC_CONFIG.replace("sr2: {}", "sr2: {learning_rate: 0.1}")
        with pytest.raises(ParseError, match="learning_rate"):
            harness.parse_config(write_config(tmp_path, bad))

    def test_eta1_zero_rejected(self, tmp_path):
        bad = BASIC_CONFIG.replace("sr2: {}", "sr2: {eta1: 0.0}")
        with pytest.raises(ValueError, match="eta1"):
            harness.parse_config(write_config(tmp_path, bad))

    def test_proxsgd_nonconvex_skipped_not_error(self, tmp_path):
        spec = harness.parse_config(
            write_config(tmp_path, CLASSIFICATION_CONFIG))
        assert ("proxsgd", "l0(lam=0.01)") in spec.skipped
        cells = harness.plan_cells(spec)
        assert not any(s == "proxsgd" and str(r).startswith("l0(")
                       for s, r, _ in cells)

    def test_empty_regularizer_grid(self, tmp_path):
        bad = BASIC_CONFIG.replace(
            "regularizers:\n  - kind: l1\n    lam: 0.05\n",
            "regularizers: []\n")
        with pytest.raises(ParseError):
            harness.parse_config(write_config(tmp_path, bad))

    def test_removed_gamma2_key_rejected(self, tmp_path):
        bad = BASIC_CONFIG.replace("sr2: {}", "sr2: {gamma2: 2.95}")
        with pytest.raises(ParseError, match="gamma2"):
            harness.parse_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("old,new", [
        ("  batch_size: 40\n  max_iter: 60\n",
         "  batch_size: 0\n  epochs: 1\n"),
        ("sr2: {}", "proxgen: {schedule: cosine}"),
        ("max_iter: 60", "max_iter: -3"),
        ("max_iter: 60", "max_iter: 2.5"),
        ("max_iter: 60", "epochs: -1"),
    ], ids=["batch_size_0", "proxgen_schedule", "max_iter_negative",
            "max_iter_float", "epochs_negative"])
    def test_bad_run_or_solver_config_rejected_before_any_run(
            self, tmp_path, old, new):
        assert old in BASIC_CONFIG
        bad = BASIC_CONFIG.replace(old, new)
        with pytest.raises(ValueError):
            harness.parse_config(write_config(tmp_path, bad))


class TestModelIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=17)
        path = tmp_path / "m.txt"
        harness.save_model(path, x)
        np.testing.assert_array_equal(harness.load_model(path), x)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3\n1.0\n2.0\n")
        with pytest.raises(ParseError):
            harness.load_model(path)


class TestRunExperiments:
    def test_single_cell_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        out = str(tmp_path / "out")
        spec = harness.parse_config(cfg_path)
        summary = harness.run_experiments(spec, out, config_path=cfg_path)
        assert len(summary) == 1
        row = summary[0]
        cell = row["cell"]
        assert os.path.exists(os.path.join(out, f"trace_{cell}.csv"))
        assert os.path.exists(os.path.join(out, f"model_{cell}.txt"))
        assert os.path.exists(os.path.join(out, f"prune_sparsity_{cell}.dat"))
        assert os.path.exists(os.path.join(out, f"objective_{cell}.dat"))
        assert os.path.exists(os.path.join(out, f"sigma_{cell}.dat"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert len(row["prune_sweep"]) == 8
        required = {"solver", "reg", "lambda", "seed", "final_objective",
                    "accuracy", "pct_zero", "pct_below_1e-3", "stop_reason",
                    "iterations"}
        assert required <= set(row)

    def test_trace_schema(self, tmp_path):
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        out = str(tmp_path / "out")
        spec = harness.parse_config(cfg_path)
        summary = harness.run_experiments(spec, out, config_path=cfg_path)
        cols, rows = harness.read_trace_csv(
            os.path.join(out, f"trace_{summary[0]['cell']}.csv"))
        assert tuple(cols) == harness.TRACE_COLUMNS
        assert len(rows) == summary[0]["iterations"]

    def test_two_seeds_same_schema(self, tmp_path):
        cfg = BASIC_CONFIG.replace("seeds: [3]", "seeds: [3, 4]")
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        spec = harness.parse_config(cfg_path)
        summary = harness.run_experiments(spec, out, config_path=cfg_path)
        assert len(summary) == 2
        headers = set()
        for row in summary:
            cols, _ = harness.read_trace_csv(
                os.path.join(out, f"trace_{row['cell']}.csv"))
            headers.add(tuple(cols))
        assert len(headers) == 1

    def test_rerun_bitwise_identical_minus_walltime(self, tmp_path):
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
        spec = harness.parse_config(cfg_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        harness.run_experiments(spec, out1, config_path=cfg_path)
        harness.run_experiments(spec, out2, config_path=cfg_path)
        names1 = sorted(os.listdir(out1))
        assert names1 == sorted(os.listdir(out2))
        drop = [harness.TRACE_COLUMNS.index(c)
                for c in harness.NONDETERMINISTIC_COLUMNS]
        for name in names1:
            p1, p2 = os.path.join(out1, name), os.path.join(out2, name)
            if name.startswith("trace_"):
                _, rows1 = harness.read_trace_csv(p1)
                _, rows2 = harness.read_trace_csv(p2)
                for a, b in zip(rows1, rows2):
                    for j, (va, vb) in enumerate(zip(a, b)):
                        if j not in drop:
                            assert va == vb, f"{name} col {j}"
            else:
                with open(p1) as f1, open(p2) as f2:
                    assert f1.read() == f2.read(), name

    def test_classification_emits_accuracy_curves(self, tmp_path):
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
        out = str(tmp_path / "out")
        spec = harness.parse_config(cfg_path)
        summary = harness.run_experiments(spec, out, config_path=cfg_path)
        ran = [r for r in summary if not r.get("skipped")]
        for row in ran:
            acc_file = os.path.join(out, f"prune_accuracy_{row['cell']}.dat")
            assert os.path.exists(acc_file)
            lines = open(acc_file).read().splitlines()
            assert len(lines) == 8
        skipped = [r for r in summary if r.get("skipped")]
        assert len(skipped) == 1  # proxsgd x l0

    def test_sparsity_curve_monotone(self, tmp_path):
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        out = str(tmp_path / "out")
        spec = harness.parse_config(cfg_path)
        summary = harness.run_experiments(spec, out, config_path=cfg_path)
        sweep = summary[0]["prune_sweep"]
        # thresholds are descending (1e-1 .. 1e-8), so sparsity descends
        vals = [pt["sparsity_pct"] for pt in sweep]
        assert vals == sorted(vals, reverse=True)

    def test_report_rebuilds_summary(self, tmp_path):
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        out = str(tmp_path / "out")
        spec = harness.parse_config(cfg_path)
        original = harness.run_experiments(spec, out, config_path=cfg_path)
        rebuilt = harness.rebuild_summary(out)
        assert len(rebuilt) == len(original)
        a, b = original[0], rebuilt[0]
        assert a["final_objective"] == pytest.approx(b["final_objective"])
        assert a["pct_zero"] == b["pct_zero"]

    def test_epoch_accounting(self, tmp_path):
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
        spec = harness.parse_config(cfg_path)
        out = str(tmp_path / "out")
        summary = harness.run_experiments(spec, out, config_path=cfg_path)
        # 60 samples / batch 16 -> 4 iterations per epoch, 3 epochs = 12
        proxgen_rows = [r for r in summary
                        if r.get("solver") == "proxgen" and not r.get("skipped")]
        assert all(r["iterations"] == 12 for r in proxgen_rows)
        assert all(r["epochs"] == pytest.approx(3.0) for r in proxgen_rows)


class TestCli:
    def test_dry_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
        rc = cli.main(["run", "--config", cfg_path,
                       "--out", str(tmp_path / "o"), "--dry-run"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "would run" in out
        assert "skipped" in out

    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        out_dir = str(tmp_path / "o")
        assert cli.main(["run", "--config", cfg_path, "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "summary.json"))
        assert cli.main(["report", "--out", out_dir]) == 0

    def test_prune_command(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        harness.save_model(model, np.array([0.5, 1e-4, -2.0]))
        rc = cli.main(["prune", "--model", str(model),
                       "--alpha", "1e-3", "1e-1"])
        assert rc == 0
        assert "alpha" in capsys.readouterr().out

    def test_seed_override_flag(self, tmp_path):
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        out_dir = str(tmp_path / "o")
        cli.main(["run", "--config", cfg_path, "--out", out_dir,
                  "--seed-override", "11"])
        summary = json.load(open(os.path.join(out_dir, "summary.json")))
        assert summary[0]["seed"] == 11

    def test_seed_override_ends_with_its_run(self, tmp_path):
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        assert cli.main(["run", "--config", cfg_path, "--out",
                         str(tmp_path / "o"), "--seed-override", "11"]) == 0
        assert harness.parse_config(cfg_path).seeds == [3]

    def test_report_after_seed_override(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, BASIC_CONFIG.replace("seeds: [3]", "seeds: [0, 1]"))
        out_dir = str(tmp_path / "o")
        assert cli.main(["run", "--config", cfg_path, "--out", out_dir,
                         "--seed-override", "11"]) == 0
        ran = json.load(open(os.path.join(out_dir, "summary.json")))
        assert harness.parse_config(
            os.path.join(out_dir, "config.yaml")).seeds == [11]
        assert cli.main(["report", "--out", out_dir]) == 0
        rebuilt = json.load(open(os.path.join(out_dir, "summary.json")))
        keys = ("cell", "final_objective", "pct_zero")
        assert [[r[k] for k in keys] for r in rebuilt] == \
            [[r[k] for k in keys] for r in ran]
        assert [r["cell"] for r in ran] == ["sr2_l1_0.05_s11"]

    def test_config_copied_byte_for_byte_without_override(self, tmp_path):
        cfg_path = write_config(tmp_path, "# comment kept\r\n" + BASIC_CONFIG)
        out_dir = str(tmp_path / "o")
        assert cli.main(["run", "--config", cfg_path, "--out", out_dir]) == 0
        with open(cfg_path, "rb") as src, \
                open(os.path.join(out_dir, "config.yaml"), "rb") as copy:
            assert copy.read() == src.read()


FAILING_CELL_CONFIG = """\
problem:
  kind: logistic
  N: 60
  n: 6
  gen_seed: 2
regularizers:
  - kind: l1
    lam: 0.01
solvers:
  sr2: {}
  proxsgd: {alpha: 2.0}
run:
  seeds: [0, 1]
  batch_size: 16
  max_iter: 20
"""


def assert_same_outputs(out1, out2):
    """Same files with the same contents, trace wall_time aside."""
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    drop = [harness.TRACE_COLUMNS.index(c)
            for c in harness.NONDETERMINISTIC_COLUMNS]
    for name in names:
        p1, p2 = os.path.join(out1, name), os.path.join(out2, name)
        if name.startswith("trace_"):
            cols1, rows1 = harness.read_trace_csv(p1)
            cols2, rows2 = harness.read_trace_csv(p2)
            assert cols1 == cols2 and len(rows1) == len(rows2)
            for a, b in zip(rows1, rows2):
                assert [v for j, v in enumerate(a) if j not in drop] == \
                    [v for j, v in enumerate(b) if j not in drop], name
        else:
            with open(p1) as f1, open(p2) as f2:
                assert f1.read() == f2.read(), name


class TestFailingCell:
    def test_jobs_1_and_2_record_the_same_failure(self, tmp_path):
        cfg_path = write_config(tmp_path, FAILING_CELL_CONFIG)
        spec = harness.parse_config(cfg_path)
        outs = [str(tmp_path / f"jobs{j}") for j in (1, 2)]
        summaries = [harness.run_experiments(spec, out, jobs=j,
                                             config_path=cfg_path)
                     for j, out in zip((1, 2), outs)]
        assert summaries[0] == summaries[1]
        errors = [r for r in summaries[0] if "error" in r]
        assert [(r["solver"], r["seed"]) for r in errors] == [
            ("proxsgd", 0), ("proxsgd", 1)]
        assert all("alpha" in r["error"] for r in errors)
        assert sum("final_objective" in r for r in summaries[0]) == 2
        assert_same_outputs(*outs)

    def test_cli_exits_nonzero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAILING_CELL_CONFIG)
        out_dir = str(tmp_path / "o")
        assert cli.main(["run", "--config", cfg_path, "--out", out_dir]) == 1
        assert "FAILED" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out_dir, "summary.json"))


class TestJobsOption:
    @pytest.mark.parametrize("jobs", ["0", "-1", "1.5", "many",
                                      str((os.cpu_count() or 1) + 1),
                                      str(10**9)])
    def test_rejected_before_any_run(self, tmp_path, monkeypatch, capsys,
                                     jobs):
        def no_run(*args, **kwargs):
            raise AssertionError("run_experiments must not be reached")

        monkeypatch.setattr(harness, "run_experiments", no_run)
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg_path, "--out",
                      str(tmp_path / "o"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cpu_count_accepted(self, tmp_path, monkeypatch):
        seen = {}

        def fake_run(spec, out, jobs, config_path):
            seen["jobs"] = jobs
            return []

        monkeypatch.setattr(harness, "run_experiments", fake_run)
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        cpus = str(os.cpu_count() or 1)
        assert cli.main(["run", "--config", cfg_path, "--out",
                         str(tmp_path / "o"), "--jobs", cpus]) == 0
        assert seen["jobs"] == int(cpus)
