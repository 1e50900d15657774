"""The run loop that SR2, ProxGEN and ProxSGD share, and their configs."""

import ast
import dataclasses
import math
import re
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sr2kit
from sr2kit import baselines, harness, problems, sr2
from sr2kit.baselines import BaselineConfig, run_proxgen, run_proxsgd
from sr2kit.errors import InfeasibleAnchorError
from sr2kit.problems import LeastSquares, make_least_squares, make_logistic
from sr2kit.regularizers import L1, L0Ball, Zero
from sr2kit.sr2 import SolverConfig, run, stationarity_estimate

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
        # x0 is finite, but a_i x0 overflows on every row, whichever rows
        # the step draws, so the gradient and the step do: the point the
        # step makes fails its check
        problem = LeastSquares(10.0 + np.abs(problem.A), problem.y)
        x0 = np.full(problem.n, 1e307)
        with np.errstate(all="ignore"):
            assert np.isposinf(problem.A @ x0).all()
            with pytest.raises(ValueError, match="non-finite"):
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
    """Records each point check in order: "full" for a _check_point pass,
    under every name the package calls it; for each point that a step
    makes, "norm" when its finite step norm checks it, or "fallback" when
    the norm is not finite and the full check follows."""
    calls = []
    check = problems._check_point
    init = sr2._Point.__init__

    def counted_check(x, n):
        calls.append("full")
        return check(x, n)

    def counted_init(self, x, n, step_norm_sq=None):
        if step_norm_sq is not None:
            calls.append("norm" if math.isfinite(step_norm_sq) else "fallback")
        init(self, x, n, step_norm_sq)

    for module in (problems, sr2):
        monkeypatch.setattr(module, "_check_point", counted_check)
    monkeypatch.setattr(sr2._Point, "__init__", counted_init)
    return calls


def assert_each_point_checked_once(calls, made):
    """x0 by the full check in the run loop, then each of the made new
    points once, as it is made: by its step norm, or by the full check
    right after the fallback."""
    code = "".join({"full": "F", "norm": "N", "fallback": "B"}[c]
                   for c in calls)
    assert re.fullmatch(r"F(N|BF)*", code), code
    assert code.count("N") + code.count("B") == made


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
    assert_each_point_checked_once(point_checks, trials)


@pytest.mark.parametrize("solver", [run_proxgen, run_proxsgd])
@pytest.mark.parametrize("record", [False, True])
def test_baseline_checks_each_point_once(point_checks, solver, record):
    # x0 in the run loop, and x' once per step
    p = make_logistic(np.random.default_rng(7), 500, 20)
    cfg = BaselineConfig(alpha=0.5, batch_size=32, max_iter=50, seed=3,
                         record_full_objective=record)
    solver(p, L1(1e-4), np.zeros(p.n), cfg)
    assert_each_point_checked_once(point_checks, 50)


@pytest.mark.parametrize("solver,config_class,options", SOLVERS)
def test_point_whose_step_norm_overflows_is_made(
        problem, monkeypatch, point_checks, solver, config_class, options):
    # every entry of the first step is 1e200 (or half that for ProxSGD):
    # finite, but its square overflows, so ||s||^2 is inf and the new
    # point, finite, gets the full check and passes it
    monkeypatch.setattr(Zero, "prox_target",
                        lambda self, u, sigma: np.full_like(u, 1e200))
    with np.errstate(over="ignore"):
        res = solver(problem, Zero(), np.zeros(problem.n),
                     config(config_class, options, max_iter=3))
    assert res.trace[0].step_norm_sq == np.inf
    assert point_checks[:3] == ["full", "fallback", "full"]
    assert_each_point_checked_once(point_checks, 3)
    assert np.isfinite(res.x).all()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solver,config_class,options", SOLVERS)
def test_non_finite_new_point_raises(problem, monkeypatch, point_checks,
                                     solver, config_class, options, value):
    # ||s||^2 is NaN or inf, so the new point gets the full check, which
    # it fails
    monkeypatch.setattr(Zero, "prox_target",
                        lambda self, u, sigma: np.full_like(u, value))
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="non-finite point"):
        solver(problem, Zero(), np.zeros(problem.n),
               config(config_class, options, max_iter=3))
    assert point_checks == ["full", "fallback", "full"]


@st.composite
def window_runs(draw):
    """epsilon, a window length and a strategy for window entries: any
    nonnegative float up to 1e150 (subnormals included), or one within a
    few window lengths of epsilon^2, where the mean can fall either way."""
    epsilon = draw(st.floats(1e-160, 1e150))
    length = draw(st.integers(1, 30))
    near = st.floats(0.0, 3.0 * length).map(lambda c: c * epsilon**2)
    return epsilon, length, st.one_of(st.floats(0.0, 1e150), near)


@settings(max_examples=300, deadline=None)
@given(window_runs(), st.data())
def test_skipped_window_mean_is_above_epsilon_squared(args, data):
    # SR2's step does not take the mean after a step whose entry over
    # the window length is above epsilon^2: then the mean is too
    epsilon, length, entries = args
    window = deque(data.draw(st.lists(entries, min_size=length,
                                      max_size=length)), maxlen=length)
    if window[-1] / length > epsilon**2:
        assert stationarity_estimate(window) > epsilon**2


@settings(max_examples=200, deadline=None)
@given(window_runs(), st.data())
def test_drive_stops_where_the_mean_after_every_accepted_step_stops(args,
                                                                     data):
    # a stand-in step appends its entry to the window when it is accepted
    # and tests it, as sr2_step does; the reference takes the mean after
    # every accepted step
    epsilon, length, entries = args
    steps = data.draw(st.lists(st.tuples(st.booleans(), entries),
                               min_size=1, max_size=60))
    stop, reason = len(steps), "budget"
    window = deque(maxlen=length)
    for k, (accepted, entry) in enumerate(steps, start=1):
        if accepted:
            window.append(entry)
            est = stationarity_estimate(window)
            if est is not None and est <= epsilon**2:
                stop, reason = k, "stationarity"
                break
    taken = iter(steps)

    def step(p, reg, state, cfg):
        accepted, entry = next(taken)
        if accepted:
            state.window.append(entry)
            if sr2._window_stops(state.window, epsilon):
                state.stop = "stationarity"
        state.t += 1
        return SimpleNamespace(accepted=accepted, step_norm_sq=entry)

    p = SimpleNamespace(n=1, N=1)
    cfg = SolverConfig(batch_size=1, max_iter=len(steps))
    res = sr2._drive(p, Zero(), np.zeros(1), cfg, step, 1.0, length)
    assert (len(res.trace), res.stop_reason) == (stop, reason)


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
    skip = {(config_class.__name__, "__post_init__")}
    read = set()
    for path in sorted(Path(sr2kit.__file__).parent.glob("*.py")):
        read |= attribute_reads(ast.parse(path.read_text()), skip)
    fields = {f.name for f in dataclasses.fields(config_class)}
    assert sorted(fields - read) == []


@pytest.mark.parametrize("config_class,key,value", [
    (SolverConfig, "epsilon", math.nan), (SolverConfig, "epsilon", math.inf),
    (SolverConfig, "sigma0", math.inf), (SolverConfig, "gamma1", math.inf),
    (SolverConfig, "kappa_m", math.inf), (SolverConfig, "kappa_m", math.nan),
    (SolverConfig, "max_iter", -3), (SolverConfig, "seed", -1),
    (BaselineConfig, "max_iter", -3), (BaselineConfig, "seed", -1)],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_config_rejects_a_value_out_of_range_when_made(config_class, key,
                                                       value):
    # every config that exists is valid wherever it is read, a direct
    # step call included; a NaN epsilon compares false with everything
    with pytest.raises(ValueError, match=key):
        config_class(**{key: value})


@pytest.mark.parametrize("config_class", [SolverConfig, BaselineConfig],
                         ids=lambda c: c.__name__)
def test_config_cannot_leave_its_range_after_it_is_made(config_class):
    cfg = config_class(max_iter=0)  # a zero budget is valid
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_iter = -3


def test_every_problem_key_is_read():
    # a key that parse_config accepts for a problem kind but that no code
    # reads is an option the code ignores
    tree = ast.parse(Path(harness.__file__).read_text())
    read = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in (
                "build_problem", "_data_problem"):
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
    # src/; ROADMAP item 1 (the sigma cap) gives sigma_succ_bound a reader
    pending = {"sigma_succ_bound"}
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
