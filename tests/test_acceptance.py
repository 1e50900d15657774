"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts.
"""

import math
import os
import time

import numpy as np
import pytest

from sr2kit.baselines import BaselineConfig, run_proxgen, run_proxsgd
from sr2kit.diagnostics import accuracy, sparsity_report
from sr2kit.problems import (
    LeastSquares,
    make_least_squares,
    make_logistic,
    make_sparse_recovery,
    make_tiny_mlp,
    Dataset,
)
from sr2kit import harness
from sr2kit.regularizers import (
    L0,
    L1,
    L0Ball,
    Zero,
    shifted_prox,
)
from sr2kit.sr2 import SolverConfig, run, sigma_succ_bound

from conftest import (
    NONDETERMINISTIC_COLUMNS,
    check_gradient,
    l0ball_enumeration_oracle,
    lasso_objective,
    prox_grid_oracle,
    read_trace_csv,
    scalar_value,
)


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def check_model_decrease(trace, label):
    for rec in trace:
        if rec.step_norm_sq > 0:
            assert rec.model_decrease >= (
                0.5 * rec.sigma_used * rec.step_norm_sq - 1e-12
            ), f"model-decrease violation in {label} at t={rec.t}"


@pytest.fixture(scope="module")
def lasso_problem(lasso_instance):
    return LeastSquares(lasso_instance["A"], lasso_instance["b"])


@pytest.fixture(scope="module")
def lasso_sr2_run(lasso_problem, lasso_instance):
    cfg = SolverConfig(batch_size=lasso_problem.N, max_iter=20_000,
                       epsilon=1e-6, seed=0)
    return run(lasso_problem, L1(lasso_instance["lam"]),
               np.zeros(lasso_problem.n), cfg)


@pytest.fixture(scope="module")
def recovery_runs():
    rng = np.random.default_rng(2024)
    inst = make_sparse_recovery(rng, 800, 200, 10, noise_sd=0.0)
    p = inst.problem
    cfg = SolverConfig(batch_size=p.N, max_iter=5000, epsilon=1e-4,
                       sigma0=p.L_bound, sigma_min=p.L_bound)
    sr2_res = run(p, L0(inst.l0_lambda), np.zeros(p.n), cfg)
    gen_res = run_proxgen(
        p, L0(inst.l0_lambda), np.zeros(p.n),
        BaselineConfig(alpha=1.0 / p.L_bound, batch_size=p.N,
                       max_iter=2000, seed=0))
    return inst, sr2_res, gen_res


@pytest.fixture(scope="module")
def stochastic_trio():
    rng = np.random.default_rng(7)
    p = make_logistic(rng, 2000, 50, separation=1.0)
    lam = 1e-4
    iters = 20 * math.ceil(p.N / 128)
    sr2_res = run(p, L1(lam), np.zeros(p.n),
                  SolverConfig(batch_size=128, max_iter=iters,
                               epsilon=1e-8, seed=1))
    gen_res = run_proxgen(p, L1(lam), np.zeros(p.n),
                          BaselineConfig(alpha=1.0 / p.L_bound,
                                         batch_size=128, max_iter=iters,
                                         seed=1))
    sgd_res = run_proxsgd(p, L1(lam), np.zeros(p.n),
                          BaselineConfig(alpha=min(1.0, 1.0 / p.L_bound),
                                         batch_size=128, max_iter=iters,
                                         seed=1))
    return p, sr2_res, gen_res, sgd_res


def test_criterion_1_prox_oracle_equivalence():
    t0 = time.time()
    for variant in ("zero", "l1", "l0"):
        rng = np.random.default_rng({"zero": 11, "l1": 12, "l0": 13}[variant])
        for _ in range(10_000):
            lam = float(rng.uniform(0.0, 2.0))
            x = float(rng.uniform(-3.0, 3.0))
            g = float(rng.uniform(-3.0, 3.0))
            sigma = float(rng.uniform(0.1, 10.0))
            reg = {"zero": Zero(), "l1": L1(lam), "l0": L0(lam)}[variant]
            st = shifted_prox(reg, [x], [g], sigma)
            s_grid = prox_grid_oracle(reg, x, g, sigma, -5, 5, 1e-3)

            def obj(s):
                return g * s + 0.5 * sigma * s**2 + scalar_value(reg, x + s)

            assert obj(st.s[0]) <= obj(s_grid) + 1e-6
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(0, min(n, 6) + 1))
        g = rng.normal(size=n)
        sigma = float(rng.uniform(0.1, 10.0))
        st = shifted_prox(L0Ball(k), np.zeros(n), g, sigma)
        _, best = l0ball_enumeration_oracle(k, np.zeros(n), g, sigma)
        got = float(g @ st.s) + 0.5 * sigma * float(st.s @ st.s)
        assert got <= best + 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 1 min"
    report(1, f"prox matches grid/enumeration oracles ({elapsed:.1f}s)")


def test_criterion_2_model_decrease_everywhere(lasso_sr2_run, recovery_runs,
                                               stochastic_trio):
    check_model_decrease(lasso_sr2_run.trace, "lasso sr2")
    _, sr2_res, gen_res = recovery_runs
    check_model_decrease(sr2_res.trace, "l0 recovery sr2")
    check_model_decrease(gen_res.trace, "l0 recovery proxgen")
    _, s_res, g_res, d_res = stochastic_trio
    for res, label in ((s_res, "logistic sr2"), (g_res, "logistic proxgen"),
                       (d_res, "logistic proxsgd")):
        check_model_decrease(res.trace, label)
    report(2, "model decrease >= (sigma/2)||s||^2 on every iteration")


def test_criterion_3_acceptance_threshold():
    t0 = time.time()
    checked = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = make_least_squares(rng, 200, 50, 0.2)
        bound = sigma_succ_bound(0.5 * p.L_bound, 0.99)
        cfg = SolverConfig(batch_size=p.N, rho_mode="full",
                           sigma0=4.0 * bound, max_iter=500,
                           epsilon=1e-300, seed=seed, kappa_m=0.5 * p.L_bound)
        res = run(p, L1(0.05), np.zeros(p.n), cfg)
        for rec in res.trace:
            if rec.sigma_used >= bound and rec.step_norm_sq > 0:
                checked += 1
                assert rec.accepted, (
                    f"rejection above sigma_succ at seed={seed}, t={rec.t}"
                )
    elapsed = time.time() - t0
    assert checked > 0
    assert elapsed < 30.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 30s"
    report(3, f"no rejection above the provable threshold "
              f"({checked} iterations checked, {elapsed:.1f}s)")


def test_criterion_4_descent_property():
    runs = []
    rng = np.random.default_rng(10)
    lp = make_least_squares(rng, 200, 40, 0.2)
    runs.append((lp, L1(0.05)))
    lg = make_logistic(rng, 200, 40)
    runs.append((lg, L1(0.01)))
    for p, reg in runs:
        cfg = SolverConfig(batch_size=p.N, rho_mode="full", max_iter=400,
                           epsilon=1e-10, seed=0)
        res = run(p, reg, np.zeros(p.n), cfg)
        F = [r.F_full for r in res.trace]
        for i, rec in enumerate(res.trace[:-1]):
            assert F[i + 1] <= F[i] + 1e-12, f"F increased at t={rec.t}"
            if rec.accepted:
                assert F[i] - F[i + 1] >= cfg.eta1 * rec.model_decrease - 1e-12
    report(4, "full-mode runs are monotone with DeltaF >= eta1 * Deltapsi")


def test_criterion_5_lasso_convergence(lasso_problem, lasso_instance,
                                       lasso_sr2_run):
    t0 = time.time()
    F = lasso_objective(lasso_instance["A"], lasso_instance["b"],
                        lasso_instance["lam"], lasso_sr2_run.x)
    gap = F - lasso_instance["F_ref"]
    assert gap <= 1e-6, f"objective gap {gap:g} vs ISTA reference"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(5, f"lasso objective within {gap:.2e} of the ISTA reference")


def test_criterion_6_l0_support_recovery(recovery_runs):
    inst, sr2_res, gen_res = recovery_runs
    sup = inst.true_support
    assert np.array_equal(np.flatnonzero(sr2_res.x), sup), "SR2 support"
    assert np.array_equal(np.flatnonzero(gen_res.x), sup), "ProxGEN support"
    assert sr2_res.stop_reason == "stationarity"
    est = float(np.mean(sr2_res.state.window))
    assert est <= 1e-4**2, f"stationarity estimate {est:g} above eps^2"
    report(6, f"planted support recovered by SR2 and ProxGEN "
              f"(estimate {est:.2e})")


def test_criterion_7_stochastic_sanity(stochastic_trio):
    p, sr2_res, gen_res, sgd_res = stochastic_trio
    acc_sr2 = accuracy(p, sr2_res.x)
    acc_gen = accuracy(p, gen_res.x)
    acc_sgd = accuracy(p, sgd_res.x)
    # ties within 1 percentage point count as >=
    assert acc_sr2 >= acc_gen - 1.0, f"{acc_sr2} vs proxgen {acc_gen}"
    assert acc_sr2 >= acc_sgd - 1.0, f"{acc_sr2} vs proxsgd {acc_sgd}"
    sp_sr2 = sparsity_report(sr2_res.x, thresholds=(1e-3,)).pct_below[1e-3]
    sp_sgd = sparsity_report(sgd_res.x, thresholds=(1e-3,)).pct_below[1e-3]
    assert sp_sr2 > sp_sgd, f"sparsity {sp_sr2} not above proxsgd {sp_sgd}"
    report(7, f"acc sr2/gen/sgd = {acc_sr2:.1f}/{acc_gen:.1f}/{acc_sgd:.1f}%, "
              f"%|w|<=1e-3 sr2 {sp_sr2:.1f} > proxsgd {sp_sgd:.1f}")


def test_criterion_8_complexity_trend(lasso_problem, lasso_instance):
    stops = []
    for eps in (1e-1, 1e-2, 1e-3):
        cfg = SolverConfig(batch_size=lasso_problem.N, max_iter=20_000,
                           epsilon=eps, seed=0)
        res = run(lasso_problem, L1(lasso_instance["lam"]),
                  np.zeros(lasso_problem.n), cfg)
        assert res.stop_reason == "stationarity", f"no stop at eps={eps}"
        stops.append(len(res.trace))
    assert stops == sorted(stops), f"t(eps) not monotone: {stops}"
    report(8, f"t(eps) over eps=1e-1,1e-2,1e-3: {stops} (non-decreasing)")


def test_criterion_9_gradient_certification():
    rng = np.random.default_rng(30)
    shipped = [
        make_least_squares(rng, 40, 10, 0.2),
        make_logistic(rng, 40, 10),
        make_sparse_recovery(rng, 60, 15, 4, 0.1).problem,
        make_tiny_mlp(rng, Dataset(rng.normal(size=(30, 4)),
                                   rng.normal(size=30)), hidden=5),
        make_tiny_mlp(rng, Dataset(rng.normal(size=(30, 4)),
                                   rng.choice([-1.0, 1.0], size=30)),
                      hidden=5, task="classification"),
    ]
    for p in shipped:
        for _ in range(20):
            ok, err = check_gradient(p, 0.5 * rng.normal(size=p.n))
            assert ok, f"{p.name}: finite-difference error {err:g}"
    report(9, f"{len(shipped)} problem kinds pass finite-difference checks")


MATRIX_CONFIG = """\
problem:
  kind: logistic
  N: 120
  n: 10
  gen_seed: 5
regularizers:
  - kind: l1
    lam: 0.001
  - kind: l0
    lam: 0.001
solvers:
  sr2: {}
  proxgen: {}
  proxsgd: {}
run:
  seeds: [0, 1]
  batch_size: 32
  epochs: 4
"""


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "m.yaml"
    cfg_path.write_text(MATRIX_CONFIG)
    spec = harness.parse_config(str(cfg_path))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    harness.run_experiments(spec, out1, config_path=str(cfg_path))
    harness.run_experiments(spec, out2, config_path=str(cfg_path))
    traces = sorted(f for f in os.listdir(out1) if f.startswith("trace_"))
    assert traces, "matrix produced no traces"
    drop = [harness.TRACE_COLUMNS.index(c)
            for c in NONDETERMINISTIC_COLUMNS]
    for name in traces:
        _, rows1 = read_trace_csv(os.path.join(out1, name))
        _, rows2 = read_trace_csv(os.path.join(out2, name))
        assert len(rows1) == len(rows2)
        for a, b in zip(rows1, rows2):
            for j, (va, vb) in enumerate(zip(a, b)):
                if j not in drop:
                    assert va == vb, f"{name}: column {j} differs"
    report(10, f"{len(traces)} trace files identical across reruns "
               "(wall-time excluded)")
