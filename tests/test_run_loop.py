"""The run loop that SR2, ProxGEN and ProxSGD share, and their configs."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import sr2kit
from sr2kit import baselines, harness, problems, sr2
from sr2kit.baselines import BaselineConfig, run_proxgen, run_proxsgd
from sr2kit.errors import InfeasibleAnchorError
from sr2kit.problems import make_least_squares, make_logistic
from sr2kit.regularizers import L1, L0Ball, Zero
from sr2kit.sr2 import SolverConfig, run

SOLVERS = [
    pytest.param(run, SolverConfig, {}, id="sr2"),
    pytest.param(run_proxgen, BaselineConfig, {"alpha": 0.05}, id="proxgen"),
    pytest.param(run_proxsgd, BaselineConfig, {"alpha": 0.5}, id="proxsgd"),
]


@pytest.fixture
def problem():
    return make_least_squares(np.random.default_rng(9), 40, 6, 0.2)


def config(config_class, options, **kw):
    return config_class(batch_size=8, seed=2, **options, **kw)


@pytest.mark.parametrize("solver,config_class,options", SOLVERS)
class TestBoundary:
    def test_infeasible_start_raises_before_any_step(
            self, problem, monkeypatch, solver, config_class, options):
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        for module, name in ((sr2, "sr2_step"), (baselines, "proxgen_step"),
                             (baselines, "proxsgd_step")):
            monkeypatch.setattr(module, name, no_step)
        x0 = np.array([1.0, 1.0, 0, 0, 0, 0])
        with pytest.raises(InfeasibleAnchorError):
            solver(problem, L0Ball(1), x0, config(config_class, options))

    @pytest.mark.parametrize("x0", [[0, 0, np.nan, 0, 0, 0],
                                    [0, np.inf, 0, 0, 0, 0],
                                    [0.0] * 5, [[0.0]] * 6],
                             ids=["nan", "inf", "short", "column"])
    @pytest.mark.parametrize("reg", [Zero(), L1(0.1)], ids=str)
    def test_bad_start_raises_before_any_step(
            self, problem, solver, config_class, options, x0, reg):
        # x0 is checked by the run loop itself, not by the first step's
        # evaluation: so also with R(x0) = 0 and with no step at all
        with pytest.raises(ValueError):
            solver(problem, reg, np.array(x0),
                   config(config_class, options, max_iter=0))

    def test_start_is_checked_before_its_regularizer(
            self, problem, solver, config_class, options):
        # R(NaN x0) is NaN, but the error names the point, not R
        with pytest.raises(ValueError, match="non-finite point"):
            solver(problem, L1(0.1), np.full(problem.n, np.nan),
                   config(config_class, options, max_iter=0))

    def test_non_finite_trial_point_raises(self, problem, solver,
                                           config_class, options):
        # x0 is finite, but A x0 overflows, so the gradient and the step
        # do: the point the step makes fails its check
        x0 = np.full(problem.n, 1e307)
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="non-finite"):
            solver(problem, L1(0.1), x0, config(config_class, options))

    def test_zero_budget(self, problem, solver, config_class, options):
        x0 = np.ones(problem.n)
        res = solver(problem, L1(0.1), x0,
                     config(config_class, options, max_iter=0))
        assert res.trace == []
        assert res.stop_reason == "budget"
        assert res.state.t == 0
        assert res.state.x is res.x
        assert res.x is not x0
        np.testing.assert_array_equal(res.x, x0)

    def test_state_matches_result(self, problem, solver, config_class,
                                  options):
        x0 = np.zeros(problem.n)
        res = solver(problem, L1(0.1), x0,
                     config(config_class, options, max_iter=40))
        assert 0 < len(res.trace) <= 40
        assert res.state.t == len(res.trace)
        assert [r.t for r in res.trace] == list(range(1, res.state.t + 1))
        assert res.state.x is res.x
        assert not x0.any()


@pytest.mark.parametrize("solver,config_class,options", SOLVERS)
def test_regularizer_evaluations_per_step(monkeypatch, solver, config_class,
                                          options):
    # the prox step takes R(x) from the iterate's _Point, which keeps it
    # across steps; only R(x + s) and R at a new iterate are computed
    calls = []
    value = L1.value
    monkeypatch.setattr(L1, "value",
                        lambda self, x: calls.append(1) or value(self, x))
    p = make_logistic(np.random.default_rng(7), 2000, 50)
    cfg = config_class(batch_size=128, max_iter=150, seed=3, **options)
    res = solver(p, L1(1e-4), np.zeros(p.n), cfg)
    steps = len(res.trace)
    if solver is run:
        # R at an accepted point is computed when the next step starts there
        new_iterates = sum(r.accepted for r in res.trace[:-1])
        assert new_iterates > 0
        assert len(calls) == 1 + steps + new_iterates
    else:
        # R(x') for the trace, which the next step reuses as its R(x)
        assert len(calls) == 1 + 2 * steps


@pytest.fixture
def point_checks(monkeypatch):
    """Counts the point checks, under every name the package calls them."""
    calls = []
    check = problems._check_point

    def counted(x, n):
        calls.append(1)
        return check(x, n)

    for module in (problems, sr2):
        monkeypatch.setattr(module, "_check_point", counted)
    return calls


@pytest.mark.parametrize("options", [
    {}, {"rho_mode": "full", "record_full_objective": True},
    {"assumption_check": "sampled-proxy", "kappa_m": 0.5},
    {"assumption_check": "full", "kappa_m": 0.5}, {"batch_size": 500}],
    ids=["sampled", "full_rho", "sampled_proxy", "full_guard", "full_batch"])
def test_sr2_checks_each_point_once(point_checks, options):
    # x0 in the run loop, and each trial point x + s when it is made; no
    # evaluation at either checks it again
    p = make_logistic(np.random.default_rng(7), 500, 20)
    cfg = SolverConfig(**{"batch_size": 32, "max_iter": 200, "seed": 3,
                          **options})
    res = run(p, L1(1e-4), np.zeros(p.n), cfg)
    trials = sum(r.step_norm_sq > 0.0 or r.assumption_rejected
                 for r in res.trace)
    assert 0 < trials and any(r.accepted for r in res.trace)
    assert len(point_checks) == 1 + trials


@pytest.mark.parametrize("solver", [run_proxgen, run_proxsgd])
@pytest.mark.parametrize("record", [False, True])
def test_baseline_checks_each_point_once(point_checks, solver, record):
    # x0 in the run loop, and x' once per step
    p = make_logistic(np.random.default_rng(7), 500, 20)
    cfg = BaselineConfig(alpha=0.5, batch_size=32, max_iter=50, seed=3,
                         record_full_objective=record)
    solver(p, L1(1e-4), np.zeros(p.n), cfg)
    assert len(point_checks) == 1 + 50


def test_nan_step_raises_value_error(problem, monkeypatch):
    # a NaN in s makes ||s||^2 NaN; the trial point is still made, and
    # fails its check
    monkeypatch.setattr(L1, "prox_target", lambda self, u, sigma: u * np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        run(problem, L1(0.1), np.zeros(problem.n),
            config(SolverConfig, {}, max_iter=5))


def test_baseline_state_sigma_is_next_inverse_step_size(problem):
    cfg = BaselineConfig(alpha=0.05, schedule="inverse-sqrt", batch_size=8,
                         max_iter=7, seed=2)
    res = run_proxgen(problem, L1(0.1), np.zeros(problem.n), cfg)
    assert [r.sigma_used for r in res.trace] == [
        1.0 / cfg.step_size(t) for t in range(1, 8)]
    assert res.state.sigma == 1.0 / cfg.step_size(8)


def attribute_reads(tree, skip):
    """Names read as attributes anywhere in tree except in the methods
    skip names as (class name, method name)."""
    names = set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.FunctionDef) and (cls, child.name) in skip:
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx,
                                                               ast.Load):
                names.add(child.attr)
            visit(child, cls)

    visit(tree, None)
    return names


@pytest.mark.parametrize("config_class", [SolverConfig, BaselineConfig],
                         ids=lambda c: c.__name__)
def test_every_config_field_is_read(config_class):
    # a field that only its own check of values reads changes no run: it
    # is an option the code ignores
    skip = {(config_class.__name__, "validated")}
    read = set()
    for path in sorted(Path(sr2kit.__file__).parent.glob("*.py")):
        read |= attribute_reads(ast.parse(path.read_text()), skip)
    fields = {f.name for f in dataclasses.fields(config_class)}
    assert sorted(fields - read) == []


def test_every_problem_key_is_read():
    # a key that parse_config accepts for a problem kind but that no code
    # reads is an option the code ignores
    tree = ast.parse(Path(harness.__file__).read_text())
    read = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in (
                "build_problem", "_load_dataset"):
            read |= {sub.slice.value for sub in ast.walk(node)
                     if isinstance(sub, ast.Subscript)
                     and isinstance(sub.value, ast.Name)
                     and sub.value.id == "prob"
                     and isinstance(sub.slice, ast.Constant)}
    accepted = {(kind, key) for kind, keys in harness._PROBLEMS.items()
                for key in keys}
    assert sorted((kind, key) for kind, key in accepted
                  if key not in read) == []


def loaded_names(tree, strings=False):
    """Names read anywhere in tree, as plain names or as attributes, and
    with strings also as string constants (the bench's tracer looks up
    what it wraps by name); a definition, an import and a string in
    __all__ read none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif strings and isinstance(node, ast.Constant) and isinstance(
                node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            names.add(node.attr)
    return names


def public_names(tree):
    """Names a module defines at its top level without a leading
    underscore: functions, classes and assigned constants, and the methods
    and properties of its classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        if isinstance(node, ast.ClassDef):
            names |= {item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)}
    return {name for name in names if not name.startswith("_")}


def test_no_exported_name_is_test_only():
    # a public module-level name, in __all__ or not, or a public method or
    # property of a class, that only the tests use is test code shipped in
    # src/; ROADMAP item 1 (the sigma cap and the scaled stationarity
    # measure) decides whether these two stay
    pending = {"sigma_succ_bound", "stationarity_surrogate"}
    package = Path(sr2kit.__file__).parent
    root = Path(__file__).parent.parent
    exported, read = set(), set()
    for path in sorted(package.glob("*.py")):
        exported |= public_names(ast.parse(path.read_text()))
    for path in sorted([*package.glob("*.py"), *(root / "bench").glob("*.py"),
                        *(root / "demos").glob("*.py")]):
        read |= loaded_names(ast.parse(path.read_text()),
                             strings=path.parent != package)
    assert sorted(exported - read - pending) == []
