"""SR2 state machine: acceptance, sigma control, stopping, invariants."""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sr2kit.baselines import BaselineConfig
from sr2kit.problems import (
    LeastSquares,
    Sampler,
    TinyMLP,
    make_least_squares,
    make_logistic,
)
from sr2kit.regularizers import L0, L1, L0Ball, Zero
from sr2kit.sr2 import (
    SolverConfig,
    SolverState,
    _Point,
    run,
    sigma_succ_bound,
    sr2_step,
    stationarity_estimate,
    update_sigma,
)

from conftest import lasso_objective


def quadratic_1d():
    # f(x) = 1/2 x^2 as a single-row least squares with a = 1, b = 0
    return LeastSquares(np.ones((1, 1)), np.zeros(1), name="half_x_sq")


def full_batch_cfg(**kw):
    kw.setdefault("batch_size", 10_000)
    kw.setdefault("rho_mode", "full")
    return SolverConfig(**kw)


class TestConfigValidation:
    def test_defaults_pass(self):
        SolverConfig()

    def test_stock_values(self):
        cfg = SolverConfig()
        assert cfg.eta1 == pytest.approx(7.5e-4)
        assert cfg.eta2 == pytest.approx(0.99)
        assert cfg.gamma1 == pytest.approx(5.56)
        assert cfg.gamma3 == pytest.approx(0.8)

    def test_eta_order(self):
        with pytest.raises(ValueError, match="eta1"):
            SolverConfig(eta1=0.0)
        with pytest.raises(ValueError):
            SolverConfig(eta1=0.5, eta2=0.4)

    def test_sigma_order(self):
        with pytest.raises(ValueError):
            SolverConfig(sigma0=1e-8, sigma_min=1e-6)

    def test_bad_modes(self):
        with pytest.raises(ValueError):
            SolverConfig(rho_mode="other")
        with pytest.raises(ValueError):
            SolverConfig(assumption_check="maybe")

    @pytest.mark.parametrize("config, key", [
        *((SolverConfig, key) for key in ("max_iter", "batch_size", "window",
                                          "seed")),
        *((BaselineConfig, key) for key in ("max_iter", "batch_size", "seed"))])
    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), "3"])
    def test_integer_fields_take_integers_only(self, config, key, value):
        # a float or a bool is rejected when the config is made, not by
        # range, slicing, deque or SeedSequence inside the run
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            config(**{key: value})
        assert getattr(config(**{key: np.int64(3)}), key) == 3


class TestUpdateSigma:
    def test_very_successful_shrinks(self):
        cfg = SolverConfig(sigma_min=1e-6)
        assert update_sigma(1.0, 0.999, cfg) == pytest.approx(0.8)

    def test_middle_branch_holds(self):
        cfg = SolverConfig()
        assert update_sigma(1.0, 0.5, cfg) == 1.0

    def test_failure_inflates(self):
        cfg = SolverConfig()
        assert update_sigma(1.0, -2.0, cfg) == pytest.approx(5.56)

    def test_sigma_min_floor(self):
        cfg = SolverConfig(sigma0=1e-6, sigma_min=1e-6)
        assert update_sigma(1e-6, 1.0, cfg) == pytest.approx(1e-6)


class TestSigmaSuccBound:
    def test_arithmetic(self):
        assert sigma_succ_bound(0.5, 0.99) == pytest.approx(100.0)
        assert sigma_succ_bound(0.5, 0.5) == pytest.approx(2.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sigma_succ_bound(0.5, 1.0)
        with pytest.raises(ValueError):
            sigma_succ_bound(-1.0, 0.5)


class TestStationarityEstimate:
    def test_window_mean(self):
        window = deque([0.04, 0.01, 0.01], maxlen=3)
        assert stationarity_estimate(window) == pytest.approx(0.02)

    def test_not_ready_while_filling(self):
        assert stationarity_estimate(deque([0.04], maxlen=3)) is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_infinity=True), min_size=1,
                max_size=300))
def test_window_mean_is_np_mean_bitwise(values):
    # stationarity_estimate adds the window up with np.add.reduce and
    # divides by its length, which is what np.mean does with the deque
    window = deque(values, maxlen=len(values))
    with np.errstate(all="ignore"):  # sums near the float max overflow
        got, expected = stationarity_estimate(window), float(np.mean(window))
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def mlp_maker(task):
    """A maker of small TinyMLPs of the task, as make_least_squares is of
    least-squares problems."""
    def make(rng, N, d):
        y = rng.normal(size=N)
        return TinyMLP(rng.normal(size=(N, d)),
                       np.where(y >= 0.0, 1.0, -1.0) if task == "classification"
                       else y, hidden=2, task=task)
    return make


@settings(max_examples=200, deadline=None)
@given(make=st.sampled_from([make_least_squares, make_logistic,
                             mlp_maker("regression"),
                             mlp_maker("classification")]),
       reg=st.sampled_from([Zero(), L1(0.05), L0(0.01), L0Ball(2)]),
       N=st.integers(1, 24), batch_draw=st.integers(1, 24),
       epsilon=st.sampled_from([1e-1, 1e-3, 1e-8]),
       sigma0=st.sampled_from([1e-2, 1.0]), seed=st.integers(0, 99))
def test_trace_holds_each_verdict(make, reg, N, batch_draw, epsilon, sigma0,
                                  seed):
    # the counts of accepted and rejected steps are read off the trace, so
    # each row must carry its own verdict: rho from its sampled columns,
    # and acceptance from rho alone (sigma0 = 1e-2 makes rejections common);
    # a network starts from a small random point, since 0 is a saddle, with
    # two nonzeros, which L0Ball(2) admits
    rng = np.random.default_rng(seed)
    p = make(rng, N, 4)
    x0 = np.zeros(p.n)
    if isinstance(p, TinyMLP):
        x0[rng.choice(p.n, size=2, replace=False)] = 0.1 * rng.normal(size=2)
    cfg = SolverConfig(batch_size=1 + (batch_draw - 1) % N, max_iter=40,
                       epsilon=epsilon, window=3, sigma0=sigma0, seed=seed)
    res = run(p, reg, x0, cfg)
    assert res.stop_reason in ("stationarity", "zero_step", "budget")
    assert res.state.t == len(res.trace) <= cfg.max_iter
    for r in res.trace:
        expected = 0.0
        if r.model_decrease != 0.0:
            ratio = (r.F_sampled_before - r.F_sampled_after) / r.model_decrease
            if math.isfinite(ratio):
                expected = ratio
        assert float(r.rho).hex() == float(expected).hex()
        assert r.accepted == (r.rho >= cfg.eta1)
        assert not r.assumption_rejected


@settings(max_examples=200, deadline=None)
@given(N=st.integers(20, 200), n=st.integers(5, 60), quarter=st.booleans(),
       reg=st.sampled_from([L1, L0]), lam=st.sampled_from([1e-3, 0.05]),
       k=st.sampled_from([-3, 2, 5]), seed=st.integers(0, 2**32 - 1))
def test_least_squares_scale_covariance(N, n, quarter, reg, lam, k, seed):
    # SR2 needs no Lipschitz constant: with c = 2^k, A -> cA and b -> cb
    # scale f, g and every model term by c^2 exactly, as lam, sigma0 and
    # sigma_min -> c^2 times theirs do R and sigma, so the run is the same
    # bit for bit with sigma times c^2 (the stop compares ||s||^2, which does
    # not change, with an unchanged epsilon^2), at full and at quarter batch
    rng = np.random.default_rng(seed)
    A, b = rng.normal(size=(N, n)), rng.normal(size=N)
    c2 = 2.0 ** (2 * k)
    cfg = dict(batch_size=N // 4 if quarter else N, max_iter=150, seed=seed)
    res = run(LeastSquares(A, b), reg(lam), np.zeros(n), SolverConfig(**cfg))
    scaled = run(LeastSquares(2.0**k * A, 2.0**k * b), reg(c2 * lam),
                 np.zeros(n), SolverConfig(sigma0=c2 * SolverConfig.sigma0,
                                           sigma_min=c2 * SolverConfig.sigma_min,
                                           **cfg))
    assert scaled.stop_reason == res.stop_reason
    assert scaled.x.tobytes() == res.x.tobytes()
    assert len(scaled.trace) == len(res.trace)
    for got, want in zip(scaled.trace, res.trace):
        assert (got.t, got.accepted) == (want.t, want.accepted)
        assert float(got.rho).hex() == float(want.rho).hex()
        assert float(got.sigma_used).hex() == float(c2 * want.sigma_used).hex()


@pytest.mark.parametrize("c", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0,
                               1e3])
def test_sigma0_sweep_reaches_the_ista_gap(lasso_instance, c):
    # SR2 needs no Lipschitz constant: from sigma0 = c L, three decades
    # either side of L, the full-batch run reaches a relative gap of 1e-6
    # to the ISTA reference within its budget (first reached after 20, 34,
    # 9, 7, 16, 36, 193, 292 and 316 steps; see the README)
    inst = lasso_instance
    p = LeastSquares(inst["A"], inst["b"])
    cfg = SolverConfig(batch_size=p.N, max_iter=20_000, epsilon=1e-12,
                       sigma_min=1e-12, sigma0=c * p.L_bound)
    res = run(p, L1(inst["lam"]), np.zeros(p.n), cfg)
    F = lasso_objective(inst["A"], inst["b"], inst["lam"], res.x)
    assert res.stop_reason != "budget"
    assert (F - inst["F_ref"]) / abs(inst["F_ref"]) <= 1e-6


def test_state_holds_the_iterate_once():
    p = quadratic_1d()
    res = run(p, Zero(), np.array([1.0]), full_batch_cfg(max_iter=1))
    state = res.state
    assert [f.name for f in dataclasses.fields(state)] == [
        "point", "sigma", "t", "sampler", "batch_size", "window", "stop"]
    assert state.x is state.point.x is res.x
    with pytest.raises(AttributeError):
        state.x = np.zeros(1)


class TestSingleStep:
    def test_quadratic_closed_form(self):
        # f = 1/2 x^2 at x=1, sigma=1: s = -g/sigma = -1, x+s = 0,
        # DeltaF = 0.5, Deltapsi = -g*s = 1, rho = 0.5 -> accept, sigma holds
        p = quadratic_1d()
        cfg = full_batch_cfg(max_iter=1)
        state = SolverState(point=_Point(np.array([1.0]), p.n), sigma=1.0,
                            t=0, sampler=Sampler(np.random.default_rng(0)),
                            batch_size=1,
                            window=deque(maxlen=cfg.window))
        rec = sr2_step(p, Zero(), state, cfg)
        assert rec.step_norm_sq == pytest.approx(1.0)
        assert rec.rho == pytest.approx(0.5)
        assert rec.accepted
        assert rec.model_decrease == pytest.approx(1.0)
        np.testing.assert_allclose(state.x, [0.0])
        # eta1 <= rho < eta2: middle branch leaves sigma unchanged
        assert state.sigma == pytest.approx(1.0)

    def test_zero_step_counts_as_failure(self):
        # lasso stationary point: x = 0 with ||grad||_inf < lam gives s = 0
        rng = np.random.default_rng(8)
        p = make_least_squares(rng, 20, 5, 0.1)
        g0 = p.full_grad(np.zeros(5))
        lam = 2.0 * np.max(np.abs(g0))
        # KKT check: at x=0, |g|_i <= lam means 0 is prox-stationary
        assert np.max(np.abs(g0)) < lam
        cfg = full_batch_cfg(max_iter=1)
        state = SolverState(point=_Point(np.zeros(5), p.n), sigma=1.0,
                            t=0, sampler=Sampler(np.random.default_rng(0)),
                            batch_size=20,
                            window=deque(maxlen=cfg.window))
        rec = sr2_step(p, L1(lam), state, cfg)
        assert rec.step_norm_sq == 0.0
        assert rec.rho == 0.0
        assert not rec.accepted and not rec.assumption_rejected
        assert state.sigma == pytest.approx(cfg.gamma1)
        np.testing.assert_array_equal(state.x, 0.0)


class TestRun:
    def test_quadratic_converges(self):
        rng = np.random.default_rng(0)
        p = LeastSquares(np.eye(2), np.zeros(2))
        cfg = full_batch_cfg(max_iter=500, epsilon=1e-6, window=5)
        res = run(p, Zero(), np.array([1.0, 1.0]), cfg)
        assert res.stop_reason == "stationarity"
        assert np.linalg.norm(res.x) <= 1e-5
        F = [r.F_full for r in res.trace]
        assert all(F[i + 1] <= F[i] + 1e-15 for i in range(len(F) - 1))

    def test_infeasible_start_rejected(self):
        p = LeastSquares(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            run(p, L0Ball(1), np.array([1.0, 1.0]), SolverConfig())

    def test_budget_stop(self):
        # at sigma0 = 2 each step halves x (sigma = 1 would land on the
        # minimizer at once and stop on the zero step after it)
        p = quadratic_1d()
        cfg = full_batch_cfg(max_iter=3, epsilon=1e-300, sigma0=2.0)
        res = run(p, Zero(), np.array([5.0]), cfg)
        assert res.stop_reason == "budget"
        assert len(res.trace) == 3
        np.testing.assert_array_equal(res.x, [0.625])

    def test_acceptance_soundness_and_sigma_floor(self):
        rng = np.random.default_rng(2)
        p = make_least_squares(rng, 50, 8, 0.3)
        cfg = SolverConfig(batch_size=10, max_iter=300, epsilon=1e-12,
                           seed=9, sigma_min=1e-4, sigma0=1.0)
        res = run(p, L1(0.05), np.zeros(8), cfg)
        sigmas = [r.sigma_used for r in res.trace]
        assert min(sigmas) >= cfg.sigma_min
        for r in res.trace:
            if r.accepted:
                assert r.rho >= cfg.eta1
            if r.step_norm_sq > 0:
                assert r.model_decrease >= 0.5 * r.sigma_used * r.step_norm_sq - 1e-12

    def test_infinite_objective_increase_rejects_with_rho_zero(self):
        # at sigma = 1e-300 the step s = 1/sigma overflows f(x + s) to inf:
        # Delta F = -inf against a finite model decrease, so rho is 0 (not
        # -inf or NaN), the step is rejected and sigma grows by gamma1
        p = LeastSquares(np.ones((1, 1)), np.ones(1))
        cfg = SolverConfig(batch_size=1, sigma0=1e-300, sigma_min=1e-300,
                           max_iter=3)
        with np.errstate(over="ignore"):  # ||s||^2 and f(x + s) overflow
            res = run(p, Zero(), np.zeros(1), cfg)
        assert len(res.trace) == 3
        for rec in res.trace:
            assert rec.F_sampled_after == math.inf
            assert math.isfinite(rec.model_decrease) and rec.model_decrease > 0
            assert rec.rho == 0.0
            assert rec.accepted is False
        sigmas = [rec.sigma_used for rec in res.trace]
        assert sigmas == [1e-300, cfg.gamma1 * 1e-300,
                          cfg.gamma1 * (cfg.gamma1 * 1e-300)]
        np.testing.assert_array_equal(res.x, [0.0])

    def test_rejection_leaves_x_bitwise_unchanged(self):
        rng = np.random.default_rng(3)
        p = make_least_squares(rng, 40, 6, 0.2)
        cfg = SolverConfig(batch_size=40, max_iter=1, rho_mode="full",
                           sigma0=1e-4, sigma_min=1e-6)
        # tiny sigma forces a huge step that overshoots and gets rejected
        x0 = 0.01 * np.ones(6)
        res = run(p, Zero(), x0, cfg)
        rec = res.trace[0]
        if not rec.accepted:
            np.testing.assert_array_equal(res.x, x0)

    def test_sigma_update_telescoping(self):
        # every transition is exactly one of {*gamma1, *gamma3 (floored),
        # unchanged}
        rng = np.random.default_rng(4)
        p = make_least_squares(rng, 50, 8, 0.3)
        cfg = SolverConfig(batch_size=10, max_iter=300, epsilon=1e-12, seed=2)
        res = run(p, L1(0.05), np.zeros(8), cfg)
        sig = [r.sigma_used for r in res.trace] + [res.state.sigma]
        for r, s_now, s_next in zip(res.trace, sig, sig[1:]):
            if r.rho >= cfg.eta2:
                assert s_next == pytest.approx(
                    max(cfg.sigma_min, cfg.gamma3 * s_now))
            elif r.rho >= cfg.eta1:
                assert s_next == s_now
            else:
                assert s_next == pytest.approx(cfg.gamma1 * s_now)

    def test_monotone_descent_full_mode(self):
        rng = np.random.default_rng(5)
        p = make_least_squares(rng, 60, 10, 0.2)
        cfg = full_batch_cfg(max_iter=300, epsilon=1e-10)
        res = run(p, L1(0.05), np.zeros(10), cfg)
        F = [r.F_full for r in res.trace]
        for i, r in enumerate(res.trace[:-1]):
            assert F[i + 1] <= F[i] + 1e-12
            if r.accepted:
                drop = F[i] - F[i + 1]
                assert drop >= cfg.eta1 * r.model_decrease - 1e-12

    def test_reproducible_bitwise(self):
        rng = np.random.default_rng(6)
        p = make_least_squares(rng, 50, 8, 0.3)
        cfg = SolverConfig(batch_size=10, max_iter=100, seed=5)
        r1 = run(p, L1(0.05), np.zeros(8), cfg)
        r2 = run(p, L1(0.05), np.zeros(8), cfg)
        np.testing.assert_array_equal(r1.x, r2.x)
        for a, b in zip(r1.trace, r2.trace):
            assert a.rho == b.rho
            assert a.step_norm_sq == b.step_norm_sq
            assert a.sigma_used == b.sigma_used
            assert a.accepted == b.accepted

    def test_no_rejection_above_sigma_bound(self):
        # full batch, kappa_m = L/2: iterations with sigma above the
        # provable-acceptance bound and a nonzero step are never rejected
        for gen_seed in range(5):
            rng = np.random.default_rng(gen_seed)
            p = make_least_squares(rng, 40, 8, 0.2)
            bound = sigma_succ_bound(0.5 * p.L_bound, 0.99)
            cfg = SolverConfig(batch_size=40, rho_mode="full",
                               sigma0=2.0 * bound, max_iter=200,
                               epsilon=1e-14, seed=0)
            res = run(p, L1(0.05), np.zeros(8), cfg)
            for r in res.trace:
                if r.sigma_used >= bound and r.step_norm_sq > 0:
                    assert r.accepted

    def test_assumption_guard_doubles_batch(self):
        # tiny batches on a badly conditioned quadratic violate the model
        # error bound with a strict kappa_m, forcing batch escalation
        rng = np.random.default_rng(12)
        A = rng.normal(size=(64, 6)) * np.array([10, 1, 1, 1, 1, 0.1])
        p = LeastSquares(A, rng.normal(size=64))
        cfg = SolverConfig(batch_size=1, max_iter=200, seed=3,
                           assumption_check="full", kappa_m=1e-4)
        res = run(p, Zero(), np.zeros(6), cfg)
        rejected = [r for r in res.trace if r.assumption_rejected]
        assert rejected
        assert res.state.batch_size > 1
        for r in rejected:
            assert r.step_norm_sq == 0.0
            assert not r.accepted

    def test_guard_case_stops_on_zero_step(self):
        # a kappa_m far below the model error: the guard rejects every
        # step and doubles the batch up to N, sigma grows by gamma1 each
        # time until ||s||^2 underflows to 0, and the run stops there
        p = make_least_squares(np.random.default_rng(0), 300, 20, 0.1)
        cfg = SolverConfig(batch_size=16, max_iter=3000, seed=0,
                           assumption_check="full", kappa_m=1e-9)
        res = run(p, L1(0.05), np.zeros(20), cfg)
        assert res.stop_reason == "zero_step"
        assert len(res.trace) <= 300
        assert all(np.isfinite(r.sigma_used) for r in res.trace)
        assert not any(r.accepted for r in res.trace)
        *rejected, last = res.trace
        assert all(r.assumption_rejected for r in rejected)
        assert not last.assumption_rejected
        assert last.step_norm_sq == 0.0 and last.batch_size == p.N
        np.testing.assert_array_equal(res.x, 0.0)

    def test_kappa_auto_requires_l_bound(self):
        p = quadratic_1d()
        p.L_bound = None
        cfg = SolverConfig(batch_size=1, max_iter=5,
                           assumption_check="full", kappa_m="auto")
        with pytest.raises(ValueError, match="L_bound"):
            run(p, Zero(), np.array([1.0]), cfg)

    def test_rejected_steps_not_in_window(self):
        rng = np.random.default_rng(13)
        p = make_least_squares(rng, 50, 8, 0.3)
        cfg = SolverConfig(batch_size=10, max_iter=150, seed=7, window=10)
        res = run(p, L1(0.05), np.zeros(8), cfg)
        accepted_norms = [r.step_norm_sq for r in res.trace if r.accepted]
        assert list(res.state.window) == accepted_norms[-10:]
