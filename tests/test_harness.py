"""Experiment harness: config parsing, matrix runs, outputs, CLI."""

import dataclasses
import functools
import json
import math
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sr2kit import baselines, cli, diagnostics, harness, problems, sr2
from sr2kit.errors import ParseError
from sr2kit.regularizers import L0, L1, L0Ball, Zero

from conftest import NONDETERMINISTIC_COLUMNS, read_trace_csv

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

#: a solver section is appended
EPOCHS_CONFIG = """\
problem:
  kind: logistic
  N: 500
  n: 5
  gen_seed: 4
regularizers:
  - kind: l1
    lam: 0.001
run:
  seeds: [0]
  batch_size: 50
  max_iter: 40
solvers:
"""


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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
        assert ("proxsgd", "l0_0.01") in spec.skipped
        cells = harness.plan_cells(spec)
        assert not any(s == "proxsgd" and str(r).startswith("l0(")
                       for s, r, _ in cells)

    def test_skipped_follows_from_the_grid(self, tmp_path):
        # a spec built in code skips what the parsed config skips, and
        # writes the same summary; skipped cannot be set
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
        parsed = harness.parse_config(cfg_path)
        built = harness.ExperimentSpec(
            problem={"kind": "logistic", "N": 60, "n": 6, "gen_seed": 2,
                     "separation": 1.0},
            regularizers=[L1(0.01), L0(0.01)],
            solvers={"sr2": {}, "proxgen": {}, "proxsgd": {}},
            seeds=[0, 1], batch_size=16, max_iter=None, epochs=3,
            prune_thresholds=diagnostics.DEFAULT_PRUNE_THRESHOLDS)
        assert built.skipped == parsed.skipped == [("proxsgd", "l0_0.01")]
        with pytest.raises(AttributeError):
            built.skipped = []
        written = []
        for spec, out in ((parsed, tmp_path / "parsed"),
                          (built, tmp_path / "built")):
            harness.run_experiments(spec, str(out))
            written.append((out / "summary.json").read_bytes())
        assert written[0] == written[1]

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

    @pytest.mark.parametrize("old,new,match", [
        ("kind: least_squares", "kind: logistic", "noise_sd"),
        ("  noise_sd: 0.1\n", "  separation: 2.0\n", "separation"),
        ("  noise_sd: 0.1\n", "  hidden: 4\n", "hidden"),
        ("  noise_sd: 0.1\n", "  task: regression\n", "task"),
        ("kind: least_squares", "kind: logistc", "logistc"),
        ("kind: least_squares\n  N: 40\n  n: 8\n  noise_sd: 0.1\n",
         "kind: logistic\n  n: 8\n", "missing .* N"),
        ("kind: least_squares\n  N: 40\n  n: 8\n  noise_sd: 0.1\n",
         "kind: mlp\n  hidden: 4\n", "missing .* data"),
        ("N: 40", "N: 50.9", "problem.N must be int"),
        ("    lam: 0.05\n", "    lam: -1\n", "lam must be nonnegative"),
        ("    lam: 0.05\n", "    lam: .nan\n", "lam must be nonnegative"),
        ("    lam: 0.05\n", "    lam: .inf\n", "lam must be nonnegative"),
        ("  - kind: l1\n    lam: 0.05\n", "  - kind: l0ball\n    k: 2.7\n",
         "k must be int"),
        ("  - kind: l1\n    lam: 0.05\n", "  - l1\n",
         r"regularizers\[0\] must be dict"),
        ("batch_size: 40", "batch_size: 64.7", "batch_size must be int"),
        ("sr2: {}", "sr2: {eta1: x}", "eta1 must be float"),
        ("sr2: {}", "sr2: {eta1: 0}", r"\[solvers.sr2\] need 0 < eta1"),
        ("sr2: {}", "sr2: {record_full_objective: 1}", "must be bool"),
        ("sr2: {}", "sr2: {seed: 4}", "seed"),
        ("sr2: {}", "sr2: [1]", "solvers.sr2 must be dict"),
        ("max_iter: 60", "max_iter: 7\n  epochs: 2",
         "run takes max_iter or epochs, not both"),
        ("seeds: [3]", "seeds: [3, 3]",
         "cell sr2_l1_0.05_s3 appears 2 times in the grid"),
        ("    lam: 0.05\n", "    lam: 0.05\n  - kind: l1\n    lam: 0.0500000001\n",
         "cell sr2_l1_0.05_s3 appears 2 times in the grid"),
        ("sr2: {}", "proxgen: {alpha: .nan}",
         r"\[solvers.proxgen\] alpha must be positive and finite, got nan"),
        ("sr2: {}", "proxgen: {alpha: .inf}",
         r"\[solvers.proxgen\] alpha must be positive and finite, got inf"),
        ("noise_sd: 0.1", "noise_sd: .nan",
         "problem.noise_sd must be finite, got nan"),
        ("noise_sd: 0.1", "noise_sd: .inf",
         "problem.noise_sd must be finite, got inf"),
        ("kind: least_squares\n  N: 40\n  n: 8\n  noise_sd: 0.1\n",
         "kind: logistic\n  N: 40\n  n: 8\n  separation: .nan\n",
         "problem.separation must be finite, got nan"),
        ("kind: least_squares\n  N: 40\n  n: 8\n  noise_sd: 0.1\n",
         "kind: logistic\n  N: 40\n  n: 8\n  separation: -.inf\n",
         "problem.separation must be finite, got -inf"),
        (BASIC_CONFIG, "- 1\n", r"\[config\] must be a mapping"),
        ("seeds: [3]", "seeds: []", "run.seeds must be nonempty"),
        ("max_iter: 60", "max_iter: 60\n  prune_thresholds: [-0.1, 0.01]",
         r"run.prune_thresholds\[0\] must be positive and finite, got -0.1"),
        ("max_iter: 60", "max_iter: 60\n  prune_thresholds: [0.01, 0]",
         r"run.prune_thresholds\[1\] must be positive and finite, got 0.0"),
        ("max_iter: 60", "max_iter: 60\n  prune_thresholds: [.nan, .inf]",
         r"run.prune_thresholds\[0\] must be positive and finite, got nan"),
        ("max_iter: 60", "max_iter: 60\n  prune_thresholds: [0.01, .inf]",
         r"run.prune_thresholds\[1\] must be positive and finite, got inf"),
    ], ids=["logistic_noise_sd", "least_squares_separation",
            "least_squares_hidden", "least_squares_task", "unknown_kind",
            "logistic_without_N", "mlp_without_data", "N_float",
            "lam_negative", "lam_nan", "lam_inf", "l0ball_k_float",
            "regularizer_not_mapping",
            "batch_size_float", "eta1_string", "eta1_zero", "bool_as_int",
            "solver_seed", "solver_not_mapping", "max_iter_and_epochs",
            "repeated_seed", "regularizers_with_one_tag", "alpha_nan",
            "alpha_inf", "noise_sd_nan", "noise_sd_inf", "separation_nan",
            "separation_inf", "config_not_mapping", "seeds_empty",
            "prune_threshold_negative", "prune_threshold_zero",
            "prune_threshold_nan", "prune_threshold_inf"])
    def test_config_error_is_parse_error_before_any_run(
            self, tmp_path, capsys, old, new, match):
        # every key is one that the code reads, and every value has its
        # type and range: the check is in parse_config, so --dry-run
        # already fails, with status 2 (1 is kept for a failing cell)
        assert old in BASIC_CONFIG
        cfg_path = write_config(tmp_path, BASIC_CONFIG.replace(old, new))
        with pytest.raises(ParseError, match=match):
            harness.parse_config(cfg_path)
        out_dir = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir),
                         "--dry-run"]) == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith("sr2kit: ") and err.count("\n") == 1

    @pytest.mark.parametrize("old,new,key", [
        ("sr2: {}", "sr2: {max_iter: -4, epsilon: 1e-4}", "max_iter"),
        ("sr2: {}", "sr2: {epsilon: .nan}", "epsilon"),
        ("sr2: {}", "sr2: {epsilon: nan}", "epsilon"),
        ("sr2: {}", "sr2: {sigma0: .inf}", "sigma0"),
        ("sr2: {}", "sr2: {gamma1: .inf}", "gamma1"),
        ("sr2: {}", "sr2: {kappa_m: .inf}", "kappa_m"),
        ("sr2: {}", "proxgen: {max_iter: -3}", "max_iter"),
        ("seeds: [3]", "seeds: [-1]", "run.seeds"),
        ("seeds: [3]", "seeds: [3, -2]", "run.seeds"),
    ], ids=["max_iter", "epsilon_nan", "epsilon_nan_string", "sigma0_inf",
            "gamma1_inf", "kappa_m_inf", "proxgen_max_iter", "seed",
            "second_seed"])
    def test_value_out_of_its_range_exits_2_with_one_line(
            self, tmp_path, capsys, old, new, key):
        # the config classes check their own ranges as they are made, and
        # parse_config turns their ValueError into a ParseError
        assert old in BASIC_CONFIG
        cfg_path = write_config(tmp_path, BASIC_CONFIG.replace(old, new))
        with pytest.raises(ParseError, match=key):
            harness.parse_config(cfg_path)
        out_dir = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir),
                         "--dry-run"]) == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith("sr2kit: ") and err.count("\n") == 1
        assert key in err

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        out_dir = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg_path, "--out", str(out_dir),
                      "--dry-run", "--seed-override", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "sr2kit run: error: argument --seed-override: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("problem,match", [
        ("kind: data_logistic\n  data: d.csv\n  format: xyz\n",
         "problem.format must be one of csv, libsvm, got 'xyz'"),
        ("kind: mlp\n  data: d.csv\n  task: classify\n",
         "problem.task must be one of regression, classification"),
        ("kind: mlp\n  data: d.csv\n  task: 1\n", "problem.task"),
    ], ids=["format", "task", "task_not_a_string"])
    def test_value_outside_its_choices_rejected_before_any_run(
            self, tmp_path, capsys, problem, match):
        cfg_path = write_config(tmp_path, f"problem:\n  {problem}")
        with pytest.raises(ParseError, match=match):
            harness.parse_config(cfg_path)
        out_dir = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir),
                         "--dry-run"]) == 2
        assert not out_dir.exists()
        assert capsys.readouterr().err.startswith("sr2kit: problem.")

    @pytest.mark.parametrize("text", ["problem:\n  N: [10\n", None],
                             ids=["yaml_syntax", "missing_file"])
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys,
                                                     text):
        cfg_path = str(tmp_path / "exp.yaml")
        if text is not None:
            write_config(tmp_path, text)
        with pytest.raises(ParseError, match="cannot read config"):
            harness.parse_config(cfg_path)
        out_dir = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir),
                         "--dry-run"]) == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith("sr2kit: cannot read config")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("problem,match", [
        ("kind: least_squares\n  N: 0\n  n: 8\n", "problem.N must be >= 1"),
        ("kind: logistic\n  N: 40\n  n: 0\n", "problem.n must be >= 1"),
        ("kind: mlp\n  data: d.csv\n  hidden: 0\n",
         "problem.hidden must be >= 1"),
        ("kind: least_squares\n  N: 40\n  n: 8\n  gen_seed: -1\n",
         "problem.gen_seed must be >= 0"),
        ("kind: sparse_recovery\n  N: 40\n  n: 8\n  support_size: 9\n",
         "problem.support_size must be <= n = 8, got 9"),
        ("kind: sparse_recovery\n  N: 40\n  n: 8\n  support_size: -1\n",
         "problem.support_size must be >= 0"),
    ], ids=["N", "n", "hidden", "gen_seed", "support_size_above_n",
            "support_size_negative"])
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "run"])
    def test_problem_value_out_of_range_exits_2_before_any_output(
            self, tmp_path, capsys, problem, match, dry_run):
        cfg_path = write_config(tmp_path, f"problem:\n  {problem}")
        with pytest.raises(ParseError, match=match):
            harness.parse_config(cfg_path)
        out_dir = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir)]
                        + ["--dry-run"] * dry_run) == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith("sr2kit: problem.") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["data_logistic", "mlp"])
    def test_unreadable_data_file_exits_2_before_any_output(
            self, tmp_path, capsys, kind):
        data = tmp_path / "missing.csv"
        cfg_path = write_config(tmp_path,
                                f"problem:\n  kind: {kind}\n  data: {data}\n")
        out_dir = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path,
                         "--out", str(out_dir)]) == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"sr2kit: cannot read data {data}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("problem,rows,error", [
        ("kind: data_logistic", "1.5,0\n-0.5,1\n", "labels must be in {-1, +1}"),
        ("kind: data_least_squares", "1.5,0.2\nnan,1\n",
         "dataset contains non-finite entries"),
        ("kind: mlp\n  task: classification", "1.5,0\n-0.5,1\n",
         "labels must be in {-1, +1}"),
        ("kind: data_least_squares", "1.5,0.2\n1,x\n",
         "line 2: not a number: 'x'"),
        ("kind: data_logistic", "", "no data rows"),
    ], ids=["logistic_labels_01", "nan_entry", "mlp_classification_labels_01",
            "malformed_line", "no_rows"])
    def test_bad_data_file_exits_2_before_any_output(
            self, tmp_path, capsys, problem, rows, error):
        # a file that reads but holds values the problem refuses is a data
        # error as much as one that cannot be read: one line naming the
        # file, status 2
        data = tmp_path / "d.csv"
        data.write_text(rows)
        cfg_path = write_config(tmp_path,
                                f"problem:\n  {problem}\n  data: {data}\n")
        out_dir = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path,
                         "--out", str(out_dir)]) == 2
        assert not out_dir.exists()
        assert capsys.readouterr().err == f"sr2kit: data {data}: {error}\n"

    def test_values_read_by_type(self, tmp_path):
        cfg = (BASIC_CONFIG.replace("lam: 0.05", "lam: 1e-4")
               .replace("sr2: {}", "sr2: {kappa_m: 1, sigma0: 2}"))
        spec = harness.parse_config(write_config(tmp_path, cfg))
        assert spec.regularizers == [L1(1e-4)]  # YAML reads 1e-4 as a string
        assert spec.solvers["sr2"] == {"kappa_m": 1.0, "sigma0": 2.0}
        assert spec.problem == {"kind": "least_squares", "N": 40, "n": 8,
                                "noise_sd": 0.1, "gen_seed": 1}

    def test_alpha_auto_resolved_per_problem(self, tmp_path, monkeypatch):
        seen = []

        def record_alpha(p, reg, x0, cfg):
            seen.append(cfg.alpha)
            raise RuntimeError("recorded")

        monkeypatch.setattr(baselines, "run_proxgen", record_alpha)
        cfg = BASIC_CONFIG.replace("sr2: {}", "proxgen: {alpha: auto}")
        spec = harness.parse_config(write_config(tmp_path, cfg))
        harness.run_experiments(spec, str(tmp_path / "o"))
        assert seen == [1.0 / harness.build_problem(spec).L_bound]


@pytest.mark.parametrize("reg,name,tag", [
    (L1(1e-05), "l1(lam=1e-05)", "l1_1e-05"),
    (L1(0.1 + 0.2), "l1(lam=0.3)", "l1_0.3"),
    (L0(0.5), "l0(lam=0.5)", "l0_0.5"),
    (Zero(), "zero", "zero"),
    (L0Ball(0), "l0ball(k=0)", "l0ball_0"),
    (L0Ball(10**6), "l0ball(k=1000000)", "l0ball_1e+06"),
], ids=["l1_small", "l1_rounded", "l0", "zero", "l0ball_0", "l0ball_large"])
def test_regularizer_name_and_cell_tag(reg, name, tag):
    # a name prints an int parameter in full; a tag gives every one as %g
    assert (str(reg), harness._reg_tag(reg)) == (name, tag)


def write_data(tmp_path):
    """A 12 x 3 regression csv, and the same features with +/-1 labels as
    csv and as libsvm; returns the three paths."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = np.where(X @ [1.0, -2.0, 0.5] >= 0, 1.0, -1.0)
    paths = [str(tmp_path / name) for name in ("reg.csv", "cls.csv", "cls.svm")]
    np.savetxt(paths[0], np.column_stack([X, X @ [0.3, 0.1, -1.0]]),
               delimiter=",", fmt="%.17g")
    np.savetxt(paths[1], np.column_stack([X, y]), delimiter=",", fmt="%.17g")
    with open(paths[2], "w") as fh:
        for row, label in zip(X, y):
            fh.write(f"{label:+g} " + " ".join(
                f"{j + 1}:{v:.17g}" for j, v in enumerate(row)) + "\n")
    return paths


def expected_problem(kind, data):
    """The problem of each kind from the problems constructors, with the
    documented defaults: gen_seed 0, noise_sd 0.0, separation 1.0,
    support_size 10, hidden 8, task regression, format csv."""
    rng = np.random.default_rng(0)
    reg_csv, cls_csv, cls_svm = data
    if kind == "least_squares":
        return problems.make_least_squares(rng, 30, 12, noise_sd=0.0)
    if kind == "logistic":
        return problems.make_logistic(rng, 30, 12, separation=1.0)
    if kind == "sparse_recovery":
        return problems.make_sparse_recovery(rng, 30, 12, 10,
                                             noise_sd=0.0).problem
    if kind == "mlp":
        return problems.make_tiny_mlp(rng, problems.load_csv(reg_csv), 8,
                                      task="regression")
    path, load, cls, fmt = {
        "data_least_squares": (reg_csv, problems.load_csv,
                               problems.LeastSquares, "csv"),
        "data_logistic": (cls_csv, problems.load_csv, problems.Logistic, "csv"),
        "data_logistic_libsvm": (cls_svm, problems.load_libsvm,
                                 problems.Logistic, "libsvm"),
    }[kind]
    ds = load(path)
    return cls(ds.features, ds.targets, name=f"{fmt}:{path}")


def assert_same_problem(a, b):
    assert type(a) is type(b)
    assert vars(a).keys() == vars(b).keys()
    for key, va in vars(a).items():
        vb = vars(b)[key]
        if isinstance(va, np.ndarray):
            assert (va.dtype, va.shape, va.tobytes()) == \
                (vb.dtype, vb.shape, vb.tobytes()), key
        else:
            assert va == vb, key


PROBLEM_KEYS = {
    "least_squares": "N: 30\n  n: 12\n",
    "logistic": "N: 30\n  n: 12\n",
    "sparse_recovery": "N: 30\n  n: 12\n",
    "mlp": "data: {reg_csv}\n",
    "data_least_squares": "data: {reg_csv}\n",
    "data_logistic": "data: {cls_csv}\n",
    "data_logistic_libsvm": "data: {cls_svm}\n  format: libsvm\n",
}


@pytest.mark.parametrize("kind", PROBLEM_KEYS)
def test_every_problem_kind_builds_with_its_defaults(tmp_path, kind):
    # parse_config fills in the defaults that build_problem used to hold
    data = write_data(tmp_path)
    keys = PROBLEM_KEYS[kind].format(
        **dict(zip(("reg_csv", "cls_csv", "cls_svm"), data)))
    cfg = f"problem:\n  kind: {kind.removesuffix('_libsvm')}\n  {keys}"
    spec = harness.parse_config(write_config(tmp_path, cfg))
    assert_same_problem(harness.build_problem(spec),
                        expected_problem(kind, data))


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
        # a regression problem has no accuracy curve
        assert sorted(os.listdir(out)) == sorted([
            "config.yaml", "summary.json", f"run_{cell}.json",
            f"trace_{cell}.csv", f"model_{cell}.txt",
            f"prune_sparsity_{cell}.dat"])
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
        cols, rows = read_trace_csv(
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
            cols, _ = read_trace_csv(
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
                for c in NONDETERMINISTIC_COLUMNS]
        for name in names1:
            p1, p2 = os.path.join(out1, name), os.path.join(out2, name)
            if name.startswith("trace_"):
                _, rows1 = read_trace_csv(p1)
                _, rows2 = read_trace_csv(p2)
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
            with open(acc_file) as fh:
                assert len(fh.read().splitlines()) == 8
        skipped = [r for r in summary if r.get("skipped")]
        assert len(skipped) == 1  # proxsgd x l0

    def test_every_row_names_its_regularizer_by_tag(self, tmp_path, capsys):
        # a skipped row names its regularizer as the cell names do
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg_path, "--out", out,
                         "--dry-run"]) == 0
        assert "skipped:   proxsgd x l0_0.01 " in capsys.readouterr().out
        spec = harness.parse_config(cfg_path)
        summary = harness.run_experiments(spec, out, config_path=cfg_path)
        assert {row["reg"] for row in summary} == {"l1_0.01", "l0_0.01"}
        assert [(r["solver"], r["reg"]) for r in summary
                if r.get("skipped")] == [("proxsgd", "l0_0.01")]
        for row in summary:
            if not row.get("skipped"):
                assert row["cell"].startswith(
                    f"{row['solver']}_{row['reg']}_s")

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
        summary_path = os.path.join(out, "summary.json")
        with open(summary_path, "rb") as fh:
            written = fh.read()
        assert harness.rebuild_summary(out) == original
        with open(summary_path, "rb") as fh:
            assert fh.read() == written

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

    @pytest.mark.parametrize("options,sizes", [
        ("{batch_size: 500}", [500]),
        ("{assumption_check: sampled-proxy, kappa_m: 1.0e-6}",
         [50, 100, 200, 400, 500])],
        ids=["solver_batch", "guard_doubling"])
    def test_epochs_follow_each_steps_batch(self, tmp_path, options, sizes):
        # the solver's own batch, or the one the guard doubles to, not the
        # run's batch_size sets how much of the data a step reads; run and
        # report count it alike
        cfg_path = write_config(tmp_path, EPOCHS_CONFIG + f"  sr2: {options}\n")
        out = str(tmp_path / "out")
        ran = harness.run_experiments(harness.parse_config(cfg_path), out,
                                      config_path=cfg_path)
        cols, rows = read_trace_csv(
            os.path.join(out, f"trace_{ran[0]['cell']}.csv"))
        batches = Counter(int(r[cols.index("batch_size")]) for r in rows)
        assert list(batches) == sizes
        assert ran[0]["epochs"] == pytest.approx(
            sum(k / math.ceil(500 / b) for b, k in batches.items()))
        assert harness.rebuild_summary(out)[0]["epochs"] == ran[0]["epochs"]

    def test_epochs_budget_follows_each_solvers_batch(self, tmp_path):
        # 500 samples: an epoch is 10 steps of the run's batch 50 but one
        # step of SR2's own batch 500
        cfg = (EPOCHS_CONFIG.replace("max_iter: 40", "epochs: 1")
               + "  sr2: {batch_size: 500}\n  proxgen: {}\n")
        cfg_path = write_config(tmp_path, cfg)
        ran = harness.run_experiments(harness.parse_config(cfg_path),
                                      str(tmp_path / "out"))
        assert [(r["solver"], r["iterations"], r["epochs"]) for r in ran] == [
            ("sr2", 1, 1.0), ("proxgen", 10, 1.0)]


def test_trace_columns_are_the_record_fields():
    # write_trace_csv writes a record's fields in their order
    fields = [f.name for f in dataclasses.fields(sr2.IterationRecord)]
    assert tuple("sigma" if name == "sigma_used" else name
                 for name in fields) == harness.TRACE_COLUMNS


EDGE_FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
     math.inf, -math.inf])


def parse_trace_field(field, text):
    """A trace CSV field back as the IterationRecord value written to it."""
    if field.type == "bool":
        return {"1": True, "0": False}[text]
    if field.type == "int":
        return int(text)
    return None if text == "" and field.type == "float | None" else float(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(
    sr2.IterationRecord, t=st.integers(0, 2**63), sigma_used=EDGE_FLOATS,
    rho=EDGE_FLOATS | st.just(math.nan), step_norm_sq=EDGE_FLOATS,
    accepted=st.booleans(), F_sampled_before=EDGE_FLOATS,
    F_sampled_after=EDGE_FLOATS, F_full=st.none() | EDGE_FLOATS,
    model_decrease=EDGE_FLOATS, batch_size=st.integers(1, 2**31),
    assumption_rejected=st.booleans(), nnz=st.integers(0, 2**31),
    wall_time=EDGE_FLOATS), max_size=5))
def test_trace_csv_round_trips_every_value_bitwise(tmp_path_factory, trace):
    # NaN rho (the baselines'), None F_full, infinities, -0.0, subnormals
    # and the float max come back from the file with their bits and types
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    harness.write_trace_csv(path, trace)
    cols, rows = read_trace_csv(path)
    assert tuple(cols) == harness.TRACE_COLUMNS
    assert len(rows) == len(trace)
    fields = dataclasses.fields(sr2.IterationRecord)
    for rec, row in zip(trace, rows):
        for field, text in zip(fields, row, strict=True):
            want = getattr(rec, field.name)
            got = parse_trace_field(field, text)
            assert type(got) is type(want), field.name
            if isinstance(want, float):
                assert (np.float64(got).tobytes()
                        == np.float64(want).tobytes()), field.name
            else:
                assert got == want, field.name


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["least_squares", "logistic", "mlp_regression",
                             "mlp_classification"]),
       seed=st.integers(0, 2**32 - 1),
       point=st.sampled_from(["normal", "zero", "negative_zero", "mixed"]))
def test_cell_score_is_full_value_and_accuracy_bitwise(kind, seed, point):
    # f(x) and the accuracy from one forward pass are the bits of
    # full_value and of accuracy through margins, signed zeros included
    rng = np.random.default_rng(seed)
    N, n = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    if kind == "least_squares":
        p = problems.make_least_squares(rng, N, n, 0.1)
    elif kind == "logistic":
        p = problems.make_logistic(rng, N, n)
    else:
        labels = np.where(rng.normal(size=N) >= 0.0, 1.0, -1.0)
        p = problems.TinyMLP(rng.normal(size=(N, n)), labels, hidden=3,
                             task=kind[4:])
    x = {"normal": rng.normal(size=p.n), "zero": np.zeros(p.n),
         "negative_zero": np.full(p.n, -0.0),
         "mixed": np.where(rng.random(p.n) < 0.5, -0.0, rng.normal(size=p.n))
         }[point]
    f, acc = harness._objective_and_accuracy(p, x)
    assert f == p.full_value(x)
    if p.labels is None:
        assert acc is None
    else:
        assert acc == diagnostics.accuracy(p, x)
        assert p.full.forward(x)[1].tobytes() == p.margins(x).tobytes()


def test_one_accuracy_pass_per_distinct_model(tmp_path, monkeypatch):
    # x is scored from the one full forward pass that also gives its final
    # objective; the prune sweep scores each distinct pruned model other
    # than x once, through its margins; report scores none
    scored = []  # per cell: (points of checked forward passes, margins)
    margins, forward = problems.Logistic.margins, problems.Sample.forward
    score = harness._objective_and_accuracy

    def counted_margins(self, x):
        scored[-1][1].append(np.asarray(x, dtype=float).tobytes())
        return margins(self, x)

    def counted_forward(self, x):
        scored[-1][0].append(np.asarray(x, dtype=float).tobytes())
        return forward(self, x)

    def counted_score(*args):
        scored.append(([], []))
        return score(*args)

    monkeypatch.setattr(problems.Logistic, "margins", counted_margins)
    monkeypatch.setattr(problems.Sample, "forward", counted_forward)
    monkeypatch.setattr(harness, "_objective_and_accuracy", counted_score)
    cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
    spec = harness.parse_config(cfg_path)
    out = str(tmp_path / "o")
    run_rows = harness.run_experiments(spec, out, config_path=cfg_path)
    run_scored = scored[:]
    scored.clear()
    # report reads the saved rows: it sweeps and scores no model
    assert harness.rebuild_summary(out) == run_rows
    assert scored == []
    cells = [row["cell"] for row in run_rows if "cell" in row]
    assert len(run_scored) == len(cells)
    saved = 0
    for cell, (passes, models) in zip(cells, run_scored):
        x = harness.load_model(os.path.join(out, f"model_{cell}.txt"))
        assert passes == [x.tobytes()]
        pruned = {diagnostics.prune(x, alpha)[0].tobytes()
                  for alpha in spec.prune_thresholds}
        assert len(models) == len(set(models))
        assert set(models) == pruned - {x.tobytes()}
        saved += len(spec.prune_thresholds) + 1 - len(models)
    assert saved > 0


class TestCli:
    def test_dry_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
        rc = cli.main(["run", "--config", cfg_path,
                       "--out", str(tmp_path / "o"), "--dry-run"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "would run" in out
        assert "skipped" in out

    def test_dry_run_names_cells_by_tag(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG)
        cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                  "--dry-run"])
        lines = capsys.readouterr().out.splitlines()
        assert "would run: sr2 x l1_0.01 x seed=0" in lines
        assert "skipped:   proxsgd x l0_0.01 (nonconvex regularizer)" in lines
        assert not any("lam=" in line for line in lines)

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
        assert read_json(os.path.join(out_dir, "summary.json"))[0]["seed"] == 11

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
        ran = read_json(os.path.join(out_dir, "summary.json"))
        assert harness.parse_config(
            os.path.join(out_dir, "config.yaml")).seeds == [11]
        assert cli.main(["report", "--out", out_dir]) == 0
        rebuilt = read_json(os.path.join(out_dir, "summary.json"))
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

    def test_report_without_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"sr2kit: no config.yaml in {tmp_path}; cannot rebuild\n"

    def test_prune_of_bad_model_file_exits_2(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text("3\n1.0\n2.0\n")
        assert cli.main(["prune", "--model", str(model),
                         "--alpha", "1e-3"]) == 2
        assert capsys.readouterr().err == \
            "sr2kit: model header says 3 params, file has 2\n"

    @pytest.mark.parametrize("text,error", [
        ("x\n1.0\n", "line 1: expected a parameter count, got 'x'"),
        ("2\n1.0\n\nabc\n", "line 4: not a number: 'abc'")],
        ids=["header", "value"])
    def test_prune_of_malformed_model_file_exits_2(self, tmp_path, capsys,
                                                   text, error):
        model = tmp_path / "m.txt"
        model.write_text(text)
        assert cli.main(["prune", "--model", str(model),
                         "--alpha", "1e-3"]) == 2
        assert capsys.readouterr().err == f"sr2kit: {error}\n"

    def test_prune_of_model_without_parameters_exits_2(self, tmp_path,
                                                       capsys):
        model = tmp_path / "m.txt"
        model.write_text("0\n")
        assert cli.main(["prune", "--model", str(model),
                         "--alpha", "1e-3"]) == 2
        assert capsys.readouterr().err == \
            "sr2kit: line 1: model has no parameters\n"

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf", "x"])
    def test_prune_alpha_must_be_positive_and_finite(self, tmp_path, capsys,
                                                     alpha):
        model = tmp_path / "m.txt"
        harness.save_model(model, np.array([0.5, 1e-4]))
        out = tmp_path / "pruned"
        with pytest.raises(SystemExit) as exc:
            cli.main(["prune", "--model", str(model), "--alpha", "1e-3",
                      alpha, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "sr2kit prune: error: argument --alpha: ")
        assert not out.exists()

    @pytest.mark.parametrize("alphas", [["-1e-3"], ["-inf"], ["1e-3", "-inf"]],
                             ids=["negative_exponent", "minus_inf",
                                  "minus_inf_after_a_threshold"])
    def test_prune_dash_led_alpha_gets_the_range_message(self, tmp_path, capsys,
                                                         alphas):
        # argparse alone reads these as options ("expected at least one
        # argument", "unrecognized arguments"), not as --alpha values
        model = tmp_path / "m.txt"
        harness.save_model(model, np.array([0.5, 1e-4]))
        with pytest.raises(SystemExit) as exc:
            cli.main(["prune", "--model", str(model), "--alpha", *alphas])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "sr2kit prune: error: argument --alpha: must be positive and "
            f"finite, got {alphas[-1]}")

    def test_prune_writes_one_file_per_threshold(self, tmp_path, capsys):
        # thresholds with the same leading digit get files of their own,
        # each named by the shortest form that reads back as it; --out is
        # made if it is missing
        x = np.array([1.1e-3, 1.3e-3, 1.5e-3, 2e-4, 0.5])
        model = tmp_path / "m.txt"
        harness.save_model(model, x)
        out = tmp_path / "new" / "pruned"
        alphas = ["1e-3", "1.2e-3", "1.4e-3", "2.5e-4"]
        assert cli.main(["prune", "--model", str(model), "--alpha", *alphas,
                         "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted(f"pruned_{a}.txt"
                                                 for a in alphas)
        for a in alphas:
            np.testing.assert_array_equal(
                harness.load_model(out / f"pruned_{a}.txt"),
                diagnostics.prune(x, float(a))[0])


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


def assert_same_outputs(out1, out2, names=None):
    """Same files with the same contents, trace wall_time aside; or, given
    names, out2 holds those files only, as out1 has them."""
    if names is None:
        names = os.listdir(out1)
    assert sorted(names) == sorted(os.listdir(out2))
    drop = [harness.TRACE_COLUMNS.index(c)
            for c in NONDETERMINISTIC_COLUMNS]
    for name in names:
        p1, p2 = os.path.join(out1, name), os.path.join(out2, name)
        if name.startswith("trace_"):
            cols1, rows1 = read_trace_csv(p1)
            cols2, rows2 = read_trace_csv(p2)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_alpha_auto_without_finite_L_names_alpha(self, tmp_path):
        # 1/L is not a step size when L is not finite: the cell's config
        # check names alpha, in a pool worker as in the parent
        cfg = (REPORT_CONFIG.format(data=write_overflowing_data(tmp_path))
               .replace("proxgen: {}", "proxgen: {alpha: auto}"))
        cfg_path = write_config(tmp_path, cfg)
        spec = harness.parse_config(cfg_path)
        outs = [str(tmp_path / f"jobs{j}") for j in (1, 2)]
        summaries = [harness.run_experiments(spec, out, jobs=j,
                                             config_path=cfg_path)
                     for j, out in zip((1, 2), outs)]
        assert summaries[0] == summaries[1]
        errors = [r for r in summaries[0] if "error" in r]
        assert [r["cell"] for r in errors] == [
            f"proxgen_{reg}_s{seed}" for reg in ("l1_0.01", "l0_0.01")
            for seed in (0, 1)] + ["proxsgd_l1_0.01_s0", "proxsgd_l1_0.01_s1"]
        assert all(r["error"].startswith("alpha must be positive and finite")
                   for r in errors)
        assert_same_outputs(*outs)

    def test_cell_failing_after_writing_leaves_only_its_row(self, tmp_path,
                                                            monkeypatch):
        # the trace and model are written before the prune sweep fails;
        # they go again, at --jobs 1 as at --jobs 2
        def fail(*args):
            raise OSError("no space left")

        monkeypatch.setattr(harness, "_prune_sweep", fail)
        cfg_path = write_config(tmp_path, BASIC_CONFIG)
        spec = harness.parse_config(cfg_path)
        outs = [str(tmp_path / f"jobs{j}") for j in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            [row] = harness.run_experiments(spec, out, jobs=jobs,
                                            config_path=cfg_path)
            assert row["error"] == "no space left"
            assert sorted(os.listdir(out)) == [
                "config.yaml", "run_sr2_l1_0.05_s3.json", "summary.json"]
        assert_same_outputs(*outs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_rerun_leaves_no_stale_files(self, tmp_path, jobs):
        # the proxsgd cells run, then fail on a rerun into the same
        # directory without the sr2 cells: the failed cells keep only their
        # error rows, and the sr2 cells' files are left as they were
        out = str(tmp_path / "o")
        cfg_path = write_config(
            tmp_path, FAILING_CELL_CONFIG.replace("alpha: 2.0", "alpha: 0.5"))
        assert cli.main(["run", "--config", cfg_path, "--out", out,
                         "--jobs", str(jobs)]) == 0
        before = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), "rb") as fh:
                before[name] = fh.read()
        assert sum(name.startswith("prune_accuracy_proxsgd") for name in before) == 2
        cfg_path = write_config(
            tmp_path, FAILING_CELL_CONFIG.replace("  sr2: {}\n", ""))
        assert cli.main(["run", "--config", cfg_path, "--out", out,
                         "--jobs", str(jobs)]) == 1
        after = sorted(os.listdir(out))
        assert [name for name in after if "proxsgd" in name] == [
            "run_proxsgd_l1_0.01_s0.json", "run_proxsgd_l1_0.01_s1.json"]
        for name in before:
            if "sr2" in name:
                with open(os.path.join(out, name), "rb") as fh:
                    assert fh.read() == before[name], name


#: a proxgen step 1e3 times the step 1/L of a lasso, which diverges, and
#: a proxsgd alpha out of its range, which fails
DIVERGING_CELL_CONFIG = """\
problem:
  kind: least_squares
  N: 40
  n: 6
  gen_seed: 1
regularizers:
  - kind: l1
    lam: 0.01
  - kind: l0
    lam: 0.01
solvers:
  sr2: {}
  proxgen: {alpha: 1000.0}
run:
  seeds: [0]
  batch_size: 8
  max_iter: 200
"""


def run_cli(config_path, out, jobs):
    """`sr2kit run` at --jobs jobs; returns its exit status."""
    return cli.main(["run", "--config", config_path, "--out", str(out),
                     "--jobs", str(jobs)])


class TestDivergingCell:
    def test_is_a_finished_cell(self, tmp_path):
        # the cell writes its trace, model and row, as any finished cell
        # does, at --jobs 1 as at --jobs 2, and run exits 0
        cfg_path = write_config(tmp_path, DIVERGING_CELL_CONFIG)
        outs = [str(tmp_path / f"jobs{j}") for j in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            assert run_cli(cfg_path, out, jobs) == 0
        assert_same_outputs(*outs)
        out, cell = outs[0], "proxgen_l1_0.01_s0"
        row = read_json(os.path.join(out, f"run_{cell}.json"))
        assert row["stop_reason"] == "non_finite"
        assert row["final_objective"] == math.inf
        cols, rows = read_trace_csv(os.path.join(out, f"trace_{cell}.csv"))
        assert len(rows) == row["iterations"] < 200
        last = dict(zip(cols, rows[-1]))
        assert last["accepted"] == "0"
        assert last["step_norm_sq"] in ("inf", "nan")
        x = harness.load_model(os.path.join(out, f"model_{cell}.txt"))
        assert np.isfinite(x).all()
        summary = os.path.join(out, "summary.json")
        with open(summary, "rb") as fh:
            written = fh.read()
        assert cli.main(["report", "--out", out]) == 0
        with open(summary, "rb") as fh:
            assert fh.read() == written


def test_jobs_2_writes_the_same_files_under_every_start_method(
        tmp_path, monkeypatch):
    # the problem reaches each worker pickled under spawn and forkserver,
    # not inherited as under fork; a failing and a diverging cell cross
    # the process boundary as the others do
    cfg_path = write_config(tmp_path, DIVERGING_CELL_CONFIG.replace(
        "run:", "  proxsgd: {alpha: 2.0}\nrun:"))
    assert run_cli(cfg_path, tmp_path / "jobs1", 1) == 1
    for method in ("spawn", "forkserver"):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))
        assert run_cli(cfg_path, tmp_path / method, 2) == 1
        assert_same_outputs(str(tmp_path / "jobs1"), str(tmp_path / method))
    rows = read_json(tmp_path / "jobs1" / "summary.json")
    assert [r["cell"] for r in rows if "error" in r] == ["proxsgd_l1_0.01_s0"]
    assert [r["stop_reason"] for r in rows if r.get("solver") == "proxgen"] \
        == ["non_finite", "non_finite"]


@st.composite
def small_grids(draw):
    """A config of a small least-squares or logistic grid: one to three
    regularizers, some of the three solvers, proxsgd's alpha sometimes
    out of range (a failing cell) and, on least squares, proxgen's alpha
    sometimes 1e3 (a diverging cell), one or two seeds."""
    kind = draw(st.sampled_from(["least_squares", "logistic"]))
    regs = draw(st.lists(st.sampled_from([
        {"kind": "l1", "lam": 0.01}, {"kind": "l0", "lam": 0.01},
        {"kind": "l0ball", "k": 2}]), min_size=1, max_size=3,
        unique_by=lambda reg: reg["kind"]))
    names = draw(st.lists(st.sampled_from(["sr2", "proxgen", "proxsgd"]),
                          min_size=1, max_size=3, unique=True))
    solvers = {name: {} for name in names}
    if "proxsgd" in solvers and draw(st.booleans()):
        solvers["proxsgd"]["alpha"] = 2.0
    if kind == "least_squares" and "proxgen" in solvers and draw(st.booleans()):
        solvers["proxgen"]["alpha"] = 1e3
    return {"problem": {"kind": kind, "N": draw(st.integers(1, 60)),
                        "n": draw(st.integers(1, 8)),
                        "gen_seed": draw(st.integers(0, 9))},
            "regularizers": regs, "solvers": solvers,
            "run": {"seeds": draw(st.sampled_from([[0], [0, 1]])),
                    "batch_size": draw(st.integers(1, 16)),
                    "max_iter": draw(st.integers(5, 200))}}


@settings(max_examples=10, deadline=None)
@given(small_grids())
def test_jobs_1_jobs_2_and_report_agree(tmp_path_factory, config):
    # the same files (wall_time aside) and exit status at --jobs 1 and 2,
    # failing and diverging cells included, and report rewrites
    # summary.json byte for byte
    tmp = tmp_path_factory.mktemp("grid")
    cfg_path = write_config(tmp, yaml.safe_dump(config, sort_keys=False))
    statuses = [run_cli(cfg_path, tmp / f"jobs{j}", j) for j in (1, 2)]
    assert statuses[0] == statuses[1]
    assert_same_outputs(str(tmp / "jobs1"), str(tmp / "jobs2"))
    summary = tmp / "jobs2" / "summary.json"
    written = summary.read_bytes()
    assert cli.main(["report", "--out", str(tmp / "jobs2")]) == 0
    assert summary.read_bytes() == written


def write_overflowing_data(tmp_path):
    """A 12 x 3 +/-1-labelled csv with one entry of 1e200: its L bound is
    not finite, so every proxgen cell (alpha 1/L) fails."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = np.where(X @ [1.0, -2.0, 0.5] >= 0, 1.0, -1.0)
    X[5, 1] = 1e200
    path = str(tmp_path / "big.csv")
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
    return path


REPORT_CONFIG = """\
problem:
  kind: data_logistic
  data: {data}
regularizers:
  - kind: l1
    lam: 0.01
  - kind: l0
    lam: 0.01
solvers:
  sr2: {{}}
  proxgen: {{}}
  proxsgd: {{}}
run:
  seeds: [0, 1]
  batch_size: 4
  max_iter: 20
"""

RERUN_CONFIG = """\
problem:
  kind: logistic
  N: 60
  n: 6
  gen_seed: 2
regularizers:
  - kind: l1
    lam: 0.01
solvers:
  sr2: {{}}
run:
  seeds: [0, 1]
  batch_size: 16
  max_iter: {max_iter}
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestReport:
    @pytest.fixture
    def ran(self, tmp_path, request):
        """An output directory of `sr2kit run` with failed and skipped
        cells, and its summary.json bytes."""
        cfg = REPORT_CONFIG.format(data=write_overflowing_data(tmp_path))
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o")
        assert cli.main(["run", "--config", cfg_path, "--out", out,
                         "--jobs", str(request.param)]) == 1
        with open(os.path.join(out, "summary.json"), "rb") as fh:
            return out, fh.read()

    @pytest.mark.parametrize("ran", [1, 2], indirect=True,
                             ids=["jobs1", "jobs2"])
    def test_report_rewrites_summary_byte_for_byte(self, ran, capsys):
        out, written = ran
        rows = json.loads(written)
        assert [r["cell"] for r in rows if "error" in r] == [
            "proxgen_l1_0.01_s0", "proxgen_l1_0.01_s1",
            "proxgen_l0_0.01_s0", "proxgen_l0_0.01_s1",
            "proxsgd_l1_0.01_s0", "proxsgd_l1_0.01_s1"]
        assert [(r["solver"], r["reg"]) for r in rows if r.get("skipped")] \
            == [("proxsgd", "l0_0.01")]
        assert {r["stop_reason"] for r in rows if "stop_reason" in r} \
            == {"budget"}
        assert cli.main(["report", "--out", out]) == 0
        assert capsys.readouterr().out.endswith(
            f"rebuilt {len(rows)} summary rows in {out}\n")
        with open(os.path.join(out, "summary.json"), "rb") as fh:
            assert fh.read() == written

    @pytest.mark.parametrize("ran", [1], indirect=True, ids=["jobs1"])
    def test_report_builds_no_problem_and_scores_no_model(
            self, ran, monkeypatch):
        def fail(*args):
            raise AssertionError("report must only read the saved rows")

        monkeypatch.setattr(harness, "build_problem", fail)
        monkeypatch.setattr(harness, "_prune_sweep", fail)
        out, written = ran
        assert cli.main(["report", "--out", out]) == 0
        with open(os.path.join(out, "summary.json"), "rb") as fh:
            assert fh.read() == written

    @pytest.mark.parametrize("ran", [1], indirect=True, ids=["jobs1"])
    @pytest.mark.parametrize("text,error", [
        (None, "no run_sr2_l0_0.01_s1.json in {out}; cannot rebuild"),
        ('{"cell": ', "{path}: Expecting value: line 1 column 10 (char 9)")],
        ids=["missing", "truncated"])
    def test_unreadable_row_exits_2_and_keeps_summary(self, ran, capsys,
                                                      text, error):
        # a directory written before rows were saved per cell is refused,
        # not summarised in part
        out, written = ran
        path = os.path.join(out, "run_sr2_l0_0.01_s1.json")
        os.remove(path)
        if text is not None:
            with open(path, "w") as fh:
                fh.write(text)
        capsys.readouterr()
        assert cli.main(["report", "--out", out]) == 2
        assert capsys.readouterr().err == \
            f"sr2kit: {error.format(out=out, path=path)}\n"
        with open(os.path.join(out, "summary.json"), "rb") as fh:
            assert fh.read() == written

    def test_interrupted_rerun_leaves_no_stale_row(self, tmp_path,
                                                   monkeypatch, capsys):
        # a rerun into the same directory that is interrupted in its second
        # cell must not leave that cell's row of the first run, which report
        # would mix with the rerun's rows of another config
        text = RERUN_CONFIG.format(max_iter=20)
        out = str(tmp_path / "o")
        assert cli.main(["run", "--config", write_config(tmp_path, text),
                         "--out", out]) == 0
        row = os.path.join(out, "run_sr2_l1_0.01_s1.json")
        assert read_json(row)["iterations"] == 20
        run_cell = harness._run_cell

        def interrupted(spec, p, solver, reg, seed):
            if seed == 1:
                raise KeyboardInterrupt
            return run_cell(spec, p, solver, reg, seed)

        monkeypatch.setattr(harness, "_run_cell", interrupted)
        rerun = write_config(tmp_path, RERUN_CONFIG.format(max_iter=40))
        with pytest.raises(KeyboardInterrupt):
            cli.main(["run", "--config", rerun, "--out", out])
        capsys.readouterr()
        assert cli.main(["report", "--out", out]) == 2
        assert capsys.readouterr().err == \
            f"sr2kit: no run_sr2_l1_0.01_s1.json in {out}; cannot rebuild\n"
        assert not os.path.exists(row)


    def test_interrupted_trace_write_leaves_no_partial_file(
            self, tmp_path, monkeypatch, capsys):
        # Ctrl-C while the second cell's trace is written, at its sixth
        # row: no file is left under that trace's name or a temporary one,
        # and every file there is whole, as an uninterrupted run writes it
        cfg = write_config(tmp_path, RERUN_CONFIG.format(max_iter=20))
        whole, out = str(tmp_path / "whole"), str(tmp_path / "o")
        assert cli.main(["run", "--config", cfg, "--out", whole]) == 0
        run_cell = harness._run_cell

        def interrupted(spec, p, solver, reg, seed):
            result = run_cell(spec, p, solver, reg, seed)
            if seed == 1:
                rows = result.trace

                def rows_then_interrupt():
                    yield from rows[:5]
                    raise KeyboardInterrupt

                result.trace = rows_then_interrupt()
            return result

        monkeypatch.setattr(harness, "_run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["run", "--config", cfg, "--out", out])
        capsys.readouterr()
        assert_same_outputs(whole, out, ["config.yaml"] + [
            name.format("sr2_l1_0.01_s0") for name in harness._CELL_FILES])


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


@pytest.fixture
def lipschitz_calls(monkeypatch):
    """The calls of problems._gram_lmax in this process; a call in any
    other process (a pool worker) raises."""
    calls = []
    gram_lmax, parent = problems._gram_lmax, os.getpid()

    def counted(A):
        if os.getpid() != parent:
            raise AssertionError("Lipschitz bound computed in a pool worker")
        calls.append(A.shape)
        return gram_lmax(A)

    monkeypatch.setattr(problems, "_gram_lmax", counted)
    return calls


class TestLipschitzOnlyWhenRead:
    @pytest.mark.parametrize("make", [problems.make_least_squares,
                                      problems.make_logistic])
    def test_problem_and_sr2_run_compute_none(self, lipschitz_calls, make):
        p = make(np.random.default_rng(0), 60, 5)
        sr2.run(p, L1(0.01), np.zeros(p.n),
                sr2.SolverConfig(batch_size=8, max_iter=50, seed=1))
        assert lipschitz_calls == []

    def test_sr2_grid_computes_none(self, tmp_path, lipschitz_calls):
        spec = harness.parse_config(write_config(tmp_path, BASIC_CONFIG))
        harness.run_experiments(spec, str(tmp_path / "o"))
        assert lipschitz_calls == []

    def test_alpha_auto_computed_once_in_the_parent(self, tmp_path,
                                                    lipschitz_calls):
        # proxgen and proxsgd both take 1/L; at --jobs 2 a worker that
        # computed L would fail its cell
        cfg_path = write_config(tmp_path, CLASSIFICATION_CONFIG.replace(
            "proxgen: {}", "proxgen: {alpha: auto}"))
        spec = harness.parse_config(cfg_path)
        outs = [str(tmp_path / f"jobs{j}") for j in (1, 2)]
        summary = harness.run_experiments(spec, outs[0], config_path=cfg_path)
        assert lipschitz_calls == [(60, 6)]
        assert harness.run_experiments(spec, outs[1], jobs=2,
                                       config_path=cfg_path) == summary
        assert not any("error" in row for row in summary)
        assert_same_outputs(*outs)

    def test_mlp_guard_estimates_once_in_the_parent(self, tmp_path,
                                                    monkeypatch):
        # SR2's kappa_m: auto under the guard reads L; at --jobs 2 a worker
        # that estimated it would fail its cell
        calls, parent = [], os.getpid()
        estimate = problems.TinyMLP.L_bound.func

        def counted(p):
            if os.getpid() != parent:
                raise AssertionError("Lipschitz bound estimated in a pool worker")
            calls.append(p.n)
            return estimate(p)

        monkeypatch.setattr(problems.TinyMLP.L_bound, "func", counted)
        cfg_path = write_config(tmp_path, MLP_GUARD_CONFIG.format(
            data=write_data(tmp_path)[0]))
        spec = harness.parse_config(cfg_path)
        outs = [str(tmp_path / f"jobs{j}") for j in (1, 2)]
        summaries = [harness.run_experiments(spec, out, jobs=j,
                                             config_path=cfg_path)
                     for j, out in zip((1, 2), outs)]
        assert calls == [3 * 3 + 2 * 3 + 1] * 2  # once per run
        assert summaries[0] == summaries[1]
        assert not any("error" in row for row in summaries[0])
        assert_same_outputs(*outs)


MLP_GUARD_CONFIG = """\
problem:
  kind: mlp
  data: {data}
  hidden: 3
regularizers:
  - kind: l1
    lam: 0.01
solvers:
  sr2: {{assumption_check: full}}
run:
  seeds: [0, 1]
  batch_size: 4
  max_iter: 10
"""


class TestLipschitzEdgeDesigns:
    def test_zero_design_gives_zero_and_the_fallback_alpha(self, tmp_path):
        # L = 0 gives no step size 1/L: alpha: auto falls back to 1e-3
        p = problems.LeastSquares(np.zeros((40, 8)), np.ones(40))
        assert p.L_bound == 0.0
        assert problems.Logistic(np.zeros((3, 5)), np.ones(3)).L_bound == 0.0
        cfg = BASIC_CONFIG.replace("sr2: {}", "proxgen: {alpha: auto}")
        spec = harness.parse_config(write_config(tmp_path, cfg))
        assert harness._resolve_alpha(spec, p).solvers["proxgen"] == {
            "alpha": 1e-3}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_gram_gives_nan(self, tmp_path):
        # A^T A overflows on the 1e200 entry; an eigensolve of the
        # non-finite Gram would raise LinAlgError
        cfg = REPORT_CONFIG.format(data=write_overflowing_data(tmp_path))
        p = harness.build_problem(
            harness.parse_config(write_config(tmp_path, cfg)))
        assert np.isnan(p.L_bound)
