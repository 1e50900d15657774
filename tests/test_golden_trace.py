"""Golden traces: sr2.run and the baselines against plain reference steppers.

The references below are the iterations written without any shortcut: they
draw a sample every step (SR2 also at full batch) through the package's own
random-reshuffling sampler (a Sampler per run and draw_sample, which
test_problems checks on its own), evaluate every quantity
through the public, checked oracles (sampled_grad, sampled_value,
full_value) and keep nothing from one step to the next.  The SR2 reference
stops where the package does: on the window, at a full-batch zero step
that is not a guard rejection, or at the budget.  The solvers'
lean paths (one sample whose drawn indices are not checked, one forward
pass per point, each point checked once when it is made, no draw at full
batch, values reused across rejected steps) must give bitwise the same
trace and iterate.
"""

from collections import Counter, deque
from datetime import timedelta
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sr2kit import problems, sr2
from sr2kit.baselines import BaselineConfig, run_proxgen, run_proxsgd
from sr2kit.errors import NumericalFailureError
from sr2kit.problems import (
    ALL,
    LeastSquares,
    Logistic,
    Sampler,
    TinyMLP,
    draw_sample,
    make_least_squares,
    make_logistic,
)
from sr2kit.regularizers import L0, L1, L0Ball, Zero, reg_value, shifted_prox
from sr2kit.sr2 import (
    SolverConfig,
    SolverState,
    _resolve_kappa,
    run,
    sr2_step,
    stationarity_estimate,
    update_sigma,
)

COLUMNS = ("sigma_used", "rho", "step_norm_sq", "accepted", "F_sampled_before",
           "F_sampled_after", "F_full", "model_decrease", "batch_size",
           "assumption_rejected", "nnz")


def reference_step(p, reg, state, cfg):
    """One SR2 iteration with no sampling shortcut and no cache; returns the
    record as a dict of the compared columns."""
    x = state.x
    sigma = state.sigma
    batch = min(state.batch_size, p.N)
    idx = draw_sample(state.sampler, p.N, batch)

    g = p.sampled_grad(x, idx)
    r_x = reg_value(reg, x)
    F_before = p.sampled_value(x, idx) + r_x
    step = shifted_prox(reg, x, g, sigma)
    s = step.s
    step_norm_sq = float(s @ s)

    assumption_rejected = False
    if cfg.assumption_check != "off" and step_norm_sq > 0.0:
        kappa = _resolve_kappa(cfg, p)
        if cfg.assumption_check == "full":
            f_ref0 = p.full_value(x)
            f_ref1 = p.full_value(x + s)
        else:
            f_ref0 = p.sampled_value(x, idx)
            f_ref1 = p.sampled_value(x + s, idx)
        if abs(f_ref1 - f_ref0 - float(g @ s)) > kappa * step_norm_sq:
            assumption_rejected = True
            s = np.zeros_like(s)
            step_norm_sq = 0.0
            state.batch_size = min(2 * state.batch_size, p.N)

    if assumption_rejected or step_norm_sq == 0.0:
        rho, accepted, F_after, delta_psi = 0.0, False, F_before, 0.0
    else:
        F_after = p.sampled_value(x + s, idx) + step.reg_at_target
        delta_psi = step.model_decrease
        if cfg.rho_mode == "full":
            delta_F = (p.full_value(x) + r_x) - (
                p.full_value(x + s) + step.reg_at_target)
        else:
            delta_F = F_before - F_after
        if np.isnan(delta_F):
            raise NumericalFailureError("non-finite sampled objective")
        if (not np.isfinite(delta_F) or delta_psi == 0.0
                or not np.isfinite(delta_psi)):
            rho = 0.0
        else:
            rho = delta_F / delta_psi
        accepted = rho >= cfg.eta1

    F_full = None
    if cfg.rho_mode == "full" or cfg.record_full_objective:
        F_full = p.full_value(x) + r_x

    if accepted:
        state.x = x + s
        state.window.append(step_norm_sq)
    state.sigma = update_sigma(sigma, rho, cfg)
    state.t += 1
    return dict(sigma_used=sigma, rho=rho, step_norm_sq=step_norm_sq,
                accepted=accepted, F_sampled_before=F_before,
                F_sampled_after=F_after, F_full=F_full,
                model_decrease=delta_psi, batch_size=batch,
                assumption_rejected=assumption_rejected,
                nnz=int(np.count_nonzero(state.x)))


def is_zero_step(p, rec):
    """A full-batch step rejected with s = 0, not by the guard: x, f, g
    and R(x) stay as they are and only sigma grows."""
    return (not rec["accepted"] and rec["step_norm_sq"] == 0.0
            and rec["batch_size"] == p.N and not rec["assumption_rejected"])


def reference_run(p, reg, x0, cfg, zero_step_stop=True):
    """The SR2 loop; with zero_step_stop=False it runs on through the zero
    steps, as the package did before it stopped at the first."""
    state = SimpleNamespace(x=np.array(x0, dtype=float), sigma=cfg.sigma0,
                            t=0,
                            sampler=Sampler(np.random.default_rng(cfg.seed)),
                            batch_size=min(cfg.batch_size, p.N),
                            window=deque(maxlen=cfg.window))
    trace = []
    for _ in range(cfg.max_iter):
        trace.append(reference_step(p, reg, state, cfg))
        if zero_step_stop and is_zero_step(p, trace[-1]):
            break
        est = stationarity_estimate(state.window)
        if est is not None and est <= cfg.epsilon**2:
            break
    return state.x, trace


def column(records, name):
    values = [r[name] if isinstance(r, dict) else getattr(r, name)
              for r in records]
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def reference_baseline_run(p, reg, x0, cfg, interpolate):
    """ProxGEN (interpolate=False) or ProxSGD (True) as the plain loop."""
    x = np.array(x0, dtype=float)
    sampler = Sampler(np.random.default_rng(cfg.seed))
    batch = min(cfg.batch_size, p.N)
    trace = []
    for t in range(1, cfg.max_iter + 1):
        alpha = cfg.step_size(t)
        idx = draw_sample(sampler, p.N, batch)
        g = p.sampled_grad(x, idx)
        if interpolate:
            step = shifted_prox(reg, x, g, 1.0)
            x_new = x + alpha * step.s
        else:
            step = shifted_prox(reg, x, g, 1.0 / alpha)
            x_new = x + step.s
        r_x = reg_value(reg, x)
        F_before = p.sampled_value(x, idx) + r_x
        F_after = p.sampled_value(x_new, idx) + reg_value(reg, x_new)
        s_eff = x_new - x
        F_full = p.full_value(x) + r_x if cfg.record_full_objective else None
        x = x_new
        trace.append(dict(sigma_used=1.0 / alpha, rho=float("nan"),
                          step_norm_sq=float(s_eff @ s_eff), accepted=True,
                          F_sampled_before=F_before, F_sampled_after=F_after,
                          F_full=F_full, model_decrease=step.model_decrease,
                          batch_size=batch, assumption_rejected=False,
                          nnz=int(np.count_nonzero(x))))
    return x, trace


reference_proxgen = partial(reference_baseline_run, interpolate=False)
reference_proxsgd = partial(reference_baseline_run, interpolate=True)


def assert_same_trace(p, reg, x0, cfg, reference=reference_run, solver=run):
    """Run both steppers and compare bitwise (NaN equal to NaN); returns
    the package result."""
    x_ref, ref = reference(p, reg, x0, cfg)
    res = solver(p, reg, x0, cfg)
    assert len(res.trace) == len(ref)
    assert res.x.tobytes() == x_ref.tobytes()
    for name in COLUMNS:
        got, want = column(res.trace, name), column(ref, name)
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert got.tobytes() == want.tobytes(), name
    return res


def lasso_c5(lasso_instance):
    return LeastSquares(lasso_instance["A"], lasso_instance["b"])


def test_full_batch_lasso_with_dead_state(lasso_instance):
    # criterion-5 instance: without the zero-step stop sigma overflows to
    # inf within a few hundred iterations, after which every step is a
    # zero-step rejection; the package stops at the first zero step, on
    # the x that the loop without the stop still holds after 2000
    p = lasso_c5(lasso_instance)
    reg = L1(lasso_instance["lam"])
    cfg = SolverConfig(batch_size=p.N, max_iter=2000, epsilon=1e-6, seed=0)
    res = assert_same_trace(p, reg, np.zeros(p.n), cfg)
    assert res.stop_reason == "zero_step"
    assert len(res.trace) < 100
    assert not any(np.isinf(r.sigma_used) for r in res.trace)
    x_on, on = reference_run(p, reg, np.zeros(p.n), cfg, zero_step_stop=False)
    assert len(on) == cfg.max_iter
    assert sum(np.isinf(r["sigma_used"]) for r in on) >= 1000
    assert x_on.tobytes() == res.x.tobytes()
    for name in COLUMNS:
        got, want = column(res.trace, name), column(on[:len(res.trace)], name)
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("epsilon,stop_reason", [(1e-12, "stationarity"),
                                                (1e-14, "zero_step")])
def test_full_batch_lasso_full_window(lasso_instance, epsilon, stop_reason):
    # a window of 5 is full after the fifth accepted step, so rejections
    # with a full window, after which the package skips the stop test,
    # occur: at epsilon 1e-12 until the run stops on the window, at 1e-14
    # until the first zero step
    p = lasso_c5(lasso_instance)
    cfg = SolverConfig(batch_size=p.N, max_iter=2000, epsilon=epsilon, seed=0,
                       window=5)
    res = assert_same_trace(p, L1(lasso_instance["lam"]), np.zeros(p.n), cfg)
    assert res.stop_reason == stop_reason
    full = [i for i, r in enumerate(res.trace) if r.accepted][4]
    assert any(not r.accepted for r in res.trace[full + 1:])


@pytest.mark.parametrize("rho_mode", ["sampled", "full"])
@pytest.mark.parametrize("record", [False, True])
def test_full_batch_lasso_full_objective(lasso_instance, rho_mode, record):
    p = lasso_c5(lasso_instance)
    cfg = SolverConfig(batch_size=p.N, max_iter=600, epsilon=1e-6, seed=0,
                       rho_mode=rho_mode, record_full_objective=record)
    assert_same_trace(p, L1(lasso_instance["lam"]), np.zeros(p.n), cfg)


@pytest.mark.parametrize("rho_mode,record", [("sampled", False),
                                             ("sampled", True),
                                             ("full", False)])
def test_logistic_batch_128(rho_mode, record):
    p = make_logistic(np.random.default_rng(7), 2000, 50)
    cfg = SolverConfig(batch_size=128, max_iter=300, seed=3,
                       rho_mode=rho_mode, record_full_objective=record)
    assert_same_trace(p, L1(1e-4), np.zeros(p.n), cfg)


def guard_problem():
    # the setup of test_sr2's test_assumption_guard_doubles_batch
    rng = np.random.default_rng(12)
    A = rng.normal(size=(64, 6)) * np.array([10, 1, 1, 1, 1, 0.1])
    return LeastSquares(A, rng.normal(size=64))


@pytest.mark.parametrize("check", ["full", "sampled-proxy"])
def test_guard_switches_to_full_batch_mid_run(check):
    p = guard_problem()
    cfg = SolverConfig(batch_size=1, max_iter=200, seed=3,
                       assumption_check=check, kappa_m=1e-4,
                       record_full_objective=True)
    res = assert_same_trace(p, Zero(), np.zeros(6), cfg)
    sizes = [r.batch_size for r in res.trace]
    assert sizes[0] < p.N and sizes[-1] == p.N
    if check == "full":
        assert sizes.index(p.N) == 6


def test_sampled_proxy_guard_on_a_tiny_step():
    # at t=34 the step is ||s||^2 ~ 6.5e-18, so f(x + s) - f(x) is at the
    # roundoff of f: a reference that took f(x) as (f(x) + R(x)) - R(x)
    # let the step through where the solver's guard, on f(x) itself,
    # rejects it
    p = LeastSquares(np.array([[0.345584192064786], [0.8216181435011584]]),
                     np.array([-0.016121893159350115, 0.36202868374505714]))
    cfg = SolverConfig(batch_size=2, max_iter=300, seed=0, epsilon=1e-8,
                       window=5, assumption_check="sampled-proxy",
                       kappa_m=1.0)
    res = assert_same_trace(p, L1(0.1), np.zeros(1), cfg)
    assert res.trace[33].assumption_rejected
    assert res.trace[33].step_norm_sq == 0.0


@st.composite
def small_runs(draw, full_batch):
    """A small least-squares or logistic problem, a regularizer, x0 = 0 and
    an SR2 config at batch N (full_batch) or below it with the guard off."""
    N = draw(st.integers(2, 24))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        p = make_least_squares(rng, N, n, draw(st.sampled_from([0.0, 0.1, 1.0])))
    else:
        p = make_logistic(rng, N, n)
    lam = draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    reg = draw(st.sampled_from([Zero(), L1(lam), L0(lam),
                                L0Ball(draw(st.integers(0, n)))]))
    if full_batch:
        guard = draw(st.sampled_from([dict(), dict(assumption_check="full"),
                                      dict(assumption_check="sampled-proxy")]))
        if guard:
            guard["kappa_m"] = draw(st.sampled_from([1e-6, 1e-2, 1.0]))
        batch = N
    else:
        guard, batch = {}, draw(st.integers(1, N - 1))
    cfg = SolverConfig(batch_size=batch,
                       max_iter=draw(st.sampled_from([10, 300])),
                       rho_mode=draw(st.sampled_from(["sampled", "full"])),
                       sigma0=draw(st.sampled_from([1e-3, 1.0, 1e3])),
                       epsilon=draw(st.sampled_from([1e-8, 1e-4, 1e-1])),
                       window=draw(st.sampled_from([1, 5, 25])),
                       seed=draw(st.integers(0, 7)), **guard)
    return p, reg, cfg


def check_zero_step_stop(p, res):
    """A zero_step stop is the run's first zero step and its last record;
    a run that stops otherwise has none."""
    zero = [i for i, r in enumerate(res.trace) if is_zero_step(p, vars(r))]
    if res.stop_reason == "zero_step":
        assert zero == [len(res.trace) - 1]
    else:
        assert zero == []


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(small_runs(full_batch=True))
def test_full_batch_runs_stop_at_first_zero_step(run_args):
    p, reg, cfg = run_args
    res = assert_same_trace(p, reg, np.zeros(p.n), cfg)
    event(res.stop_reason)
    check_zero_step_stop(p, res)
    assert all(np.isfinite(r.sigma_used) for r in res.trace)


@settings(max_examples=40, deadline=timedelta(seconds=5))
@given(small_runs(full_batch=False))
def test_minibatch_runs_never_stop_on_zero_step(run_args):
    p, reg, cfg = run_args
    res = assert_same_trace(p, reg, np.zeros(p.n), cfg)
    event(res.stop_reason)
    assert res.stop_reason in ("stationarity", "budget")
    check_zero_step_stop(p, res)


class Counting:
    """Counts the evaluation path: gathers of sampled rows, forward and
    backward passes on a sample or on the whole data set (read in place)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = Counter()

    def _where(self, rows):
        return "full" if np.shares_memory(rows[0], self.A) else "sample"

    def _rows(self, idx):
        self.calls["full_rows" if idx is ALL else "gather"] += 1
        return super()._rows(idx)

    def _forward(self, x, rows):
        self.calls[self._where(rows) + "_forward"] += 1
        return super()._forward(x, rows)

    def _backward(self, fwd, rows):
        self.calls[self._where(rows) + "_backward"] += 1
        return super()._backward(fwd, rows)


class CountingLeastSquares(Counting, LeastSquares):
    pass


class CountingLogistic(Counting, Logistic):
    pass


@pytest.fixture
def index_checks(monkeypatch):
    """Counts the index-set checks."""
    calls = Counter()
    check = problems._check_indices

    def counted(idx, N):
        calls["check"] += 1
        return check(idx, N)

    monkeypatch.setattr(problems, "_check_indices", counted)
    return calls


def test_full_batch_gradient_once_per_iterate(lasso_instance, index_checks):
    p = CountingLeastSquares(lasso_instance["A"], lasso_instance["b"])
    cfg = SolverConfig(batch_size=p.N, max_iter=1500, epsilon=1e-6, seed=0)
    res = run(p, L1(lasso_instance["lam"]), np.zeros(p.n), cfg)
    accepted = sum(r.accepted for r in res.trace)
    trials = sum(r.step_norm_sq > 0.0 for r in res.trace)
    assert res.stop_reason == "zero_step"
    assert not res.trace[-1].accepted
    # one forward pass (A x) at x0 and one per trial point x + s, which an
    # accepted step keeps for its gradient
    assert p.calls["full_forward"] == 1 + trials
    assert p.calls["full_backward"] == accepted + 1
    assert p.calls["gather"] == p.calls["sample_forward"] == 0
    assert index_checks["check"] == 0
    fresh = np.random.default_rng(cfg.seed).bit_generator.state
    assert res.state.rng.bit_generator.state == fresh


def counted(monkeypatch, module, name):
    """Replaces module.name by a wrapper that counts its calls."""
    calls = Counter()
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_full_batch_prox_once_per_iterate_and_sigma(lasso_instance,
                                                    monkeypatch):
    # at full batch the prox step depends on sigma alone while x is
    # unchanged; the run stops at its first zero step, before sigma could
    # repeat at one x, so every step takes one prox step of its own
    calls = counted(monkeypatch, sr2, "shifted_prox")
    p = lasso_c5(lasso_instance)
    cfg = SolverConfig(batch_size=p.N, max_iter=2000, epsilon=1e-6, seed=0)
    res = run(p, L1(lasso_instance["lam"]), np.zeros(p.n), cfg)
    pairs, iterate = set(), 0
    for r in res.trace:
        pairs.add((iterate, r.sigma_used))
        iterate += r.accepted
    assert res.stop_reason == "zero_step"
    assert calls["shifted_prox"] == len(pairs) == len(res.trace)


@pytest.mark.parametrize("window", [25, 5])
def test_window_tested_once_per_accepted_step(lasso_instance, monkeypatch,
                                              window):
    # the window mean is taken at most once per accepted step and never
    # after a rejected one (nor after a step whose newest entry alone keeps
    # it above epsilon^2), and the run stops where the reference, which
    # takes it after every step, stops
    events = []
    step, estimate = sr2.sr2_step, sr2.stationarity_estimate

    def logged_step(*args):
        record = step(*args)
        events.append("accepted" if record.accepted else "rejected")
        return record

    def logged_estimate(w):
        events.append("estimate")
        return estimate(w)

    monkeypatch.setattr(sr2, "sr2_step", logged_step)
    monkeypatch.setattr(sr2, "stationarity_estimate", logged_estimate)
    p = lasso_c5(lasso_instance)
    cfg = SolverConfig(batch_size=p.N, max_iter=2000, epsilon=1e-14, seed=0,
                       window=window)
    res = assert_same_trace(p, L1(lasso_instance["lam"]), np.zeros(p.n), cfg)
    assert res.stop_reason == "zero_step"
    assert len(events) - events.count("estimate") == len(res.trace)
    assert all(before == "accepted"
               for before, event in zip(events, events[1:])
               if event == "estimate")


@pytest.mark.parametrize("options", [dict(assumption_check="sampled-proxy",
                                          kappa_m=0.5),
                                     dict(rho_mode="full")])
def test_minibatch_one_sample_per_iteration(index_checks, monkeypatch,
                                            options):
    draws = counted(monkeypatch, problems, "draw_sample")
    base = make_logistic(np.random.default_rng(7), 500, 20)
    p = CountingLogistic(base.A, base.y)
    cfg = SolverConfig(batch_size=32, max_iter=200, seed=3, **options)
    res = run(p, L1(1e-4), np.zeros(p.n), cfg)
    iters = len(res.trace)
    trials = sum(r.step_norm_sq > 0.0 or r.assumption_rejected
                 for r in res.trace)
    assert trials > 0
    if cfg.assumption_check != "off":
        assert any(r.assumption_rejected for r in res.trace)
        assert res.trace[-1].batch_size < p.N
    # one draw and one gather per iteration, and no check of the drawn
    # indices; f and g at x from one forward pass; f(x + s) is one more
    # forward pass on the same rows
    assert draws["draw_sample"] == p.calls["gather"] == iters
    assert index_checks["check"] == 0
    assert p.calls["sample_backward"] == iters
    assert p.calls["sample_forward"] == iters + trials
    assert p.calls["full_backward"] == 0
    if cfg.rho_mode == "full":
        # f(x0), then f(x + s) once per trial point, kept if it is accepted
        assert p.calls["full_forward"] == 1 + trials
    else:
        assert p.calls["full_forward"] == 0


@pytest.mark.parametrize("solver", [run_proxgen, run_proxsgd])
def test_baseline_one_sample_per_iteration(index_checks, monkeypatch, solver):
    draws = counted(monkeypatch, problems, "draw_sample")
    base = make_logistic(np.random.default_rng(7), 500, 20)
    p = CountingLogistic(base.A, base.y)
    cfg = BaselineConfig(alpha=0.5, batch_size=32, max_iter=50, seed=3)
    solver(p, L1(1e-4), np.zeros(p.n), cfg)
    assert draws["draw_sample"] == p.calls["gather"] == 50
    assert index_checks["check"] == 0
    assert p.calls["sample_backward"] == 50
    assert p.calls["sample_forward"] == 2 * 50  # at x, and at x' for the trace
    assert p.calls["full_forward"] == 0


@pytest.mark.parametrize("solver,reference", [
    (run_proxgen, reference_proxgen), (run_proxsgd, reference_proxsgd)])
def test_full_batch_baseline_reads_the_data_in_place(lasso_instance, solver,
                                                     reference):
    # at batch_size >= N every step's sample is the whole data set, read in
    # place with no row gathered, and the run is bitwise the reference's,
    # which gathers the rows {0..N-1} at every step
    A, b, lam = lasso_instance["A"], lasso_instance["b"], lasso_instance["lam"]
    cfg = BaselineConfig(alpha=0.01, batch_size=len(b) + 1, max_iter=100,
                         seed=0, record_full_objective=True)
    assert_same_trace(LeastSquares(A, b), L1(lam), np.zeros(A.shape[1]), cfg,
                      reference, solver)
    p = CountingLeastSquares(A, b)
    solver(p, L1(lam), np.zeros(p.n), cfg)
    assert p.calls["gather"] == p.calls["sample_forward"] == 0
    assert p.calls["full_backward"] == 100


def test_rng_untouched_after_batch_reaches_n():
    p = guard_problem()
    cfg = SolverConfig(batch_size=1, max_iter=200, seed=3,
                       assumption_check="full", kappa_m=1e-4).validated()
    state = SolverState(point=sr2._Point(np.zeros(6), p.n),
                        sigma=cfg.sigma0, t=0,
                        rng=np.random.default_rng(cfg.seed), batch_size=1,
                        window=deque(maxlen=cfg.window))
    while state.batch_size < p.N:
        sr2_step(p, Zero(), state, cfg)
    snapshot = state.rng.bit_generator.state
    for _ in range(50):
        rec = sr2_step(p, Zero(), state, cfg)
        assert rec.batch_size == p.N
    assert state.rng.bit_generator.state == snapshot


def logistic_problem():
    return make_logistic(np.random.default_rng(7), 2000, 50)


@pytest.mark.parametrize("reg", [L1(1e-4), L0(1e-4)], ids=str)
@pytest.mark.parametrize("schedule", ["constant", "inverse-sqrt"])
@pytest.mark.parametrize("record", [False, True])
def test_proxgen_logistic_batch_128(reg, schedule, record):
    p = logistic_problem()
    cfg = BaselineConfig(alpha=0.5, schedule=schedule, batch_size=128,
                         max_iter=150, seed=3, record_full_objective=record)
    assert_same_trace(p, reg, np.zeros(p.n), cfg, reference_proxgen, run_proxgen)


@pytest.mark.parametrize("schedule", ["constant", "inverse-sqrt"])
@pytest.mark.parametrize("record", [False, True])
def test_proxsgd_logistic_batch_128(schedule, record):
    p = logistic_problem()
    cfg = BaselineConfig(alpha=0.5, schedule=schedule, batch_size=128,
                         max_iter=150, seed=3, record_full_objective=record)
    assert_same_trace(p, L1(1e-4), np.zeros(p.n), cfg, reference_proxsgd,
                      run_proxsgd)


def mlp_problem():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(120, 4))
    labels = np.where(features[:, 0] * features[:, 1] >= 0.0, 1.0, -1.0)
    p = TinyMLP(features, labels, hidden=5, task="classification")
    return p, 0.3 * rng.normal(size=p.n)


def test_sr2_tiny_mlp_minibatch():
    p, x0 = mlp_problem()
    cfg = SolverConfig(batch_size=32, max_iter=200, seed=4,
                       record_full_objective=True)
    res = assert_same_trace(p, L1(1e-3), x0, cfg)
    assert any(r.accepted for r in res.trace)


def test_proxgen_tiny_mlp_minibatch():
    p, x0 = mlp_problem()
    cfg = BaselineConfig(alpha=0.2, batch_size=32, max_iter=150, seed=4,
                         record_full_objective=True)
    assert_same_trace(p, L1(1e-3), x0, cfg, reference_proxgen, run_proxgen)
