"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, sets up the
program's problem objects (timed as ``setup_s``), runs an untimed audit
that fixes the reference answers and k_eps, and then offers named parts
that a pass runs and times:

* ``lasso-fullbatch``: full-batch SR2 on two lasso instances, each run to
  its own stop (part ``solve``) and to k_eps (part ``tte``).
* ``logistic-minibatch``: SR2, ProxGEN and ProxSGD at batch 128 over
  several solver seeds (``solve``), SR2 to k_eps (``tte``).
* ``harness-grid``: the YAML matrix through ``sr2kit run`` with
  ``--jobs 1`` (``jobs1``) and ``--jobs 2`` (``jobs2``), and the grid's SR2
  l1 cells to k_eps (``tte``).

An operation is one solver run or one harness cell. It fails if it raises,
returns a non-finite x, or fails its output check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import pickle
import shutil
import time

import numpy as np

import reference
from sr2kit import baselines, cli, harness, problems, sr2
from sr2kit.regularizers import L1

LASSO_EPS = 1e-6       # relative objective gap
LOGISTIC_EPS = 1e-3    # absolute objective gap, SR2 only
#: the correlated lasso design is drawn once from this seed; the workload
#: seed then picks its row order, column order and column signs
CORRELATED_BASE_SEED = 2206


class Ops:
    """Counts attempted and failed operations and keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}")

    def run(self, label, call, check):
        """Time one operation, then check its result outside the timing."""
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation, not a benchmark error
            self.record(label, False, f"raised {exc!r}")
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        if not np.all(np.isfinite(result.x)):
            self.record(label, False, "non-finite x")
        else:
            ok, detail = check(result)
            self.record(label, ok, detail)
        return elapsed, result


def run_stats(trace):
    """Dead-state and acceptance counts of one returned trace."""
    return {
        "iterations": len(trace),
        "accepted": sum(1 for rec in trace if rec.accepted),
        "zero_step_iters": sum(1 for rec in trace if rec.step_norm_sq == 0.0),
        "sigma_nonfinite_iters": sum(
            1 for rec in trace if not math.isfinite(rec.sigma_used)),
    }


def first_within(gaps, eps):
    """Smallest k with gaps[k] <= eps, or None."""
    hits = np.flatnonzero(np.asarray(gaps) <= eps)
    return int(hits[0]) if hits.size else None


def same_x(expected):
    def check(result):
        return np.array_equal(result.x, expected), "x differs from the audit run"
    return check


class Workload:
    name = ""
    #: parts whose times add up to solve_s; traced parts make up a traced pass
    solve_parts = ("solve",)
    traced_parts = ("solve", "tte")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.info = []      # human-readable lines about the inputs and audit
        self.checks = []    # (label, ok, detail) workload-level checks
        self.k_eps = []     # per SR2 run: (k_eps, epochs_to_eps)

    def check(self, label, ok, detail=""):
        self.checks.append((label, bool(ok), detail))

    def parts(self):
        """Part name -> callable(ops) returning (seconds, results)."""
        raise NotImplementedError

    def sr2_results(self, part_results):
        raise NotImplementedError

    def sr2_stats(self, part_results):
        """Totals of run_stats over the SR2 runs a traced pass returned."""
        total = dict.fromkeys(
            ("iterations", "accepted", "zero_step_iters", "sigma_nonfinite_iters"), 0)
        for result in self.sr2_results(part_results):
            for key, value in run_stats(result.trace).items():
                total[key] += value
        return total

    def close(self):
        pass


@dataclasses.dataclass
class LassoInstance:
    label: str
    A: np.ndarray
    b: np.ndarray
    lam: float
    problem: object = None
    F_ref: float = math.nan
    x_stop: np.ndarray = None
    k_eps: int = 0

    def gap(self, x):
        F = reference.lasso_objective(self.A, self.b, self.lam, x)
        return (F - self.F_ref) / abs(self.F_ref)


def criterion5_lasso(seed):
    """400x100 Gaussian design with a 15-sparse truth (seed 42 gives the
    acceptance suite's criterion-5 instance)."""
    rng = np.random.default_rng(seed)
    N, n = 400, 100
    A = rng.normal(size=(N, n))
    x_true = np.zeros(n)
    idx = rng.choice(n, size=15, replace=False)
    x_true[idx] = rng.normal(size=15)
    b = A @ x_true + 0.1 * rng.normal(size=N)
    return A, b, 0.1


def correlated_lasso(seed, N=1000, n=400, rho=0.95):
    """AR(1) design (corr(a_j, a_k) = rho^|j-k|) with a 20-sparse truth.

    A fresh design per seed moves the iteration count by tens of percent
    (measured 297 to 708 iterations to eps over 12 seeds), which would
    drown any change in the program. So the design is drawn once and the
    seed picks a row permutation, a column permutation and column signs:
    every seed gives an equivalent problem with different input bits.
    """
    base = np.random.default_rng(CORRELATED_BASE_SEED)
    E = base.normal(size=(N, n))
    A = np.empty((N, n))
    A[:, 0] = E[:, 0]
    c = math.sqrt(1.0 - rho * rho)
    for j in range(1, n):
        A[:, j] = rho * A[:, j - 1] + c * E[:, j]
    x_true = np.zeros(n)
    idx = base.choice(n, size=20, replace=False)
    x_true[idx] = base.normal(size=20)
    b = A @ x_true + 0.1 * base.normal(size=N)
    rng = np.random.default_rng([seed, 1])
    rows = rng.permutation(N)
    cols = rng.permutation(n)
    signs = rng.choice((-1.0, 1.0), size=n)
    return np.ascontiguousarray(A[rows][:, cols] * signs), b[rows], 0.05


class LassoFullBatch(Workload):
    name = "lasso-fullbatch"
    max_iter = 20_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.instances = [LassoInstance("a", *criterion5_lasso(seed)),
                          LassoInstance("b", *correlated_lasso(seed))]

    def setup(self):
        for inst in self.instances:
            inst.problem = problems.LeastSquares(inst.A, inst.b)

    def _run(self, inst, max_iter):
        cfg = sr2.SolverConfig(batch_size=inst.problem.N, max_iter=max_iter,
                               epsilon=1e-6, seed=0)
        return sr2.run(inst.problem, L1(inst.lam), np.zeros(inst.problem.n), cfg)

    def audit(self, ops):
        for inst in self.instances:
            _, inst.F_ref, converged = reference.lasso_reference(
                inst.A, inst.b, inst.lam)
            self.check(f"{inst.label}: FISTA reference converged", converged)

    def _audit_trace(self, inst, res):
        """Find k_eps from the first run to the stop. In full batch the
        sample is all of [0, N), so F_sampled_before is exactly F(x_k) and
        this timed run doubles as the audit run."""
        inst.x_stop = res.x
        F = [rec.F_sampled_before for rec in res.trace]
        F.append(reference.lasso_objective(inst.A, inst.b, inst.lam, res.x))
        gaps = (np.array(F) - inst.F_ref) / abs(inst.F_ref)
        k = first_within(gaps, LASSO_EPS)
        self.check(f"{inst.label}: reaches relative gap {LASSO_EPS:g}",
                   k is not None)
        inst.k_eps = k if k is not None else len(res.trace)
        epochs = sum(rec.batch_size for rec in res.trace[:inst.k_eps])
        self.k_eps.append((inst.k_eps, epochs / inst.problem.N))
        stats = run_stats(res.trace)
        self.info.append(
            f"instance {inst.label}: {inst.problem.N}x{inst.problem.n} "
            f"lam={inst.lam:g} stop={res.stop_reason} "
            f"iterations={stats['iterations']} accepted={stats['accepted']} "
            f"zero_step_iters={stats['zero_step_iters']} "
            f"sigma_nonfinite_iters={stats['sigma_nonfinite_iters']} "
            f"k_eps={inst.k_eps} gap_at_stop={gaps[-1]:.2e}")

    def _solve(self, ops):
        total, results = 0.0, []
        for inst in self.instances:
            if inst.x_stop is None:
                check = lambda r: (inst.gap(r.x) <= LASSO_EPS,  # noqa: E731
                                   f"relative gap {inst.gap(r.x):.3e} at stop")
            else:
                check = same_x(inst.x_stop)
            dt, res = ops.run(f"{inst.label}: run to stop",
                              lambda: self._run(inst, self.max_iter), check)
            if res is not None and inst.x_stop is None:
                self._audit_trace(inst, res)
            total += dt
            results.append(res)
        return total, results

    def _tte(self, ops):
        total, results = 0.0, []
        for inst in self.instances:
            dt, res = ops.run(
                f"{inst.label}: run to k_eps", lambda: self._run(inst, inst.k_eps),
                lambda r: (len(r.trace) == inst.k_eps
                           and inst.gap(r.x) <= LASSO_EPS,
                           f"{len(r.trace)} iterations, gap {inst.gap(r.x):.3e}"))
            total += dt
            results.append(res)
        return total, results

    def parts(self):
        return {"solve": self._solve, "tte": self._tte}

    def sr2_results(self, part_results):
        return [r for part in ("solve", "tte") for r in part_results.get(part, [])
                if r is not None]


class LogisticMinibatch(Workload):
    name = "logistic-minibatch"
    N, n, lam, batch, epochs = 2000, 50, 1e-4, 128, 20
    solver_seeds = (0, 1, 2, 3, 4)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.max_iter = self.epochs * math.ceil(self.N / self.batch)

    def setup(self):
        self.problem = problems.make_logistic(
            np.random.default_rng(self.seed), self.N, self.n)

    def _sr2(self, s, max_iter, audit=False):
        cfg = sr2.SolverConfig(batch_size=self.batch, max_iter=max_iter,
                               epsilon=1e-8, seed=s, record_full_objective=audit)
        return sr2.run(self.problem, L1(self.lam), np.zeros(self.n), cfg)

    def _baseline(self, solver, s):
        p = self.problem
        alpha = 1.0 / p.L_bound
        run = baselines.run_proxgen
        if solver == "proxsgd":
            alpha, run = min(1.0, alpha), baselines.run_proxsgd
        cfg = baselines.BaselineConfig(alpha=alpha, batch_size=self.batch,
                                       max_iter=self.max_iter, seed=s)
        return run(p, L1(self.lam), np.zeros(self.n), cfg)

    def _gap(self, x):
        p = self.problem
        return reference.logistic_objective(p.A, p.y, self.lam, x) - self.F_ref

    def audit(self, ops):
        p = self.problem
        _, self.F_ref, converged = reference.logistic_reference(p.A, p.y, self.lam)
        self.check("FISTA reference converged", converged)
        self.x_audit = {}
        self.k_by_seed = {}
        for s in self.solver_seeds:
            _, res = ops.run(f"sr2 seed {s}: audit run",
                             lambda: self._sr2(s, self.max_iter, audit=True),
                             lambda r: (True, ""))
            if res is None:
                raise RuntimeError(f"logistic: SR2 audit run {s} failed")
            self.x_audit["sr2", s] = res.x
            F = [rec.F_full for rec in res.trace]
            F.append(reference.logistic_objective(p.A, p.y, self.lam, res.x))
            k = first_within(np.array(F) - self.F_ref, LOGISTIC_EPS)
            self.check(f"sr2 seed {s}: reaches gap {LOGISTIC_EPS:g} in "
                       f"{self.epochs} epochs", k is not None)
            k = k if k is not None else len(res.trace)
            self.k_by_seed[s] = k
            epochs = sum(rec.batch_size for rec in res.trace[:k]) / p.N
            self.k_eps.append((k, epochs))
            acc = {"sr2": reference.accuracy(p.A, p.y, res.x)}
            for solver in ("proxgen", "proxsgd"):
                _, base = ops.run(f"{solver} seed {s}: audit run",
                                  lambda: self._baseline(solver, s),
                                  lambda r: (True, ""))
                if base is None:
                    raise RuntimeError(f"logistic: {solver} audit run failed")
                self.x_audit[solver, s] = base.x
                acc[solver] = reference.accuracy(p.A, p.y, base.x)
                self.check(f"seed {s}: sr2 accuracy >= {solver} - 1 point",
                           acc["sr2"] >= acc[solver] - 1.0,
                           f"{acc['sr2']:.2f} vs {acc[solver]:.2f}")
            self.info.append(
                f"solver seed {s}: k_eps={k} sr2 gap at budget "
                f"{self._gap(res.x):.2e}; accuracy sr2/proxgen/proxsgd = "
                f"{acc['sr2']:.2f}/{acc['proxgen']:.2f}/{acc['proxsgd']:.2f}%")

    def _solve(self, ops):
        total, results = 0.0, {"sr2": [], "baselines": []}
        for s in self.solver_seeds:
            dt, res = ops.run(f"sr2 seed {s}", lambda: self._sr2(s, self.max_iter),
                              same_x(self.x_audit["sr2", s]))
            total += dt
            results["sr2"].append(res)
            for solver in ("proxgen", "proxsgd"):
                dt, res = ops.run(f"{solver} seed {s}",
                                  lambda: self._baseline(solver, s),
                                  same_x(self.x_audit[solver, s]))
                total += dt
                results["baselines"].append(res)
        return total, results

    def _tte(self, ops):
        total, results = 0.0, {"sr2": []}
        for s in self.solver_seeds:
            k = self.k_by_seed[s]
            dt, res = ops.run(
                f"sr2 seed {s} to k_eps", lambda: self._sr2(s, k),
                lambda r: (len(r.trace) == k and self._gap(r.x) <= LOGISTIC_EPS,
                           f"{len(r.trace)} iterations, gap {self._gap(r.x):.3e}"))
            total += dt
            results["sr2"].append(res)
        return total, results

    def parts(self):
        return {"solve": self._solve, "tte": self._tte}

    def sr2_results(self, part_results):
        return [r for part in ("solve", "tte")
                for r in part_results.get(part, {}).get("sr2", []) if r is not None]


HARNESS_CONFIG = """\
problem:
  kind: logistic
  N: 20000
  n: 100
  gen_seed: {seed}
regularizers:
  - kind: l1
    lam: 0.0001
  - kind: l1
    lam: 0.001
  - kind: l0
    lam: 0.0001
solvers:
  sr2: {{}}
  proxgen: {{alpha: auto}}
  proxsgd: {{}}
run:
  seeds: [{seeds}]
  batch_size: 128
  epochs: 1
"""
GRID_SEEDS = (0, 1)
HARNESS_CELLS = tuple(
    f"{solver}_{reg}_s{s}"
    for solver, regs in (("sr2", ("l1_0.0001", "l1_0.001", "l0_0.0001")),
                         ("proxgen", ("l1_0.0001", "l1_0.001", "l0_0.0001")),
                         ("proxsgd", ("l1_0.0001", "l1_0.001")))
    for reg in regs for s in GRID_SEEDS)


def read_trace_rows(path):
    """Trace CSV rows without the wall_time column (the only column that
    may differ between reruns)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    keep = [j for j, col in enumerate(header) if col != "wall_time"]
    rows = [line.split(",") for line in lines[2:] if line]
    return header, [[row[j] for j in keep] for row in rows]


def read_outputs(out_dir):
    """summary.json bytes and, per cell, trace rows and model bytes."""
    with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
        summary_bytes = fh.read()
    cells = {}
    for cell in HARNESS_CELLS:
        trace_path = os.path.join(out_dir, f"trace_{cell}.csv")
        model_path = os.path.join(out_dir, f"model_{cell}.txt")
        if not (os.path.exists(trace_path) and os.path.exists(model_path)):
            continue
        with open(model_path, "rb") as fh:
            model = fh.read()
        cells[cell] = (read_trace_rows(trace_path)[1], model)
    return summary_bytes, json.loads(summary_bytes), cells


class HarnessGrid(Workload):
    name = "harness-grid"
    solve_parts = ("jobs1", "jobs2")
    traced_parts = ("jobs1",)
    epoch_cap = 20          # k_eps is searched for within 20 epochs

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dir = os.path.join(workdir, "harness-grid")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.yaml")
        with open(self.config_path, "w") as fh:
            fh.write(HARNESS_CONFIG.format(
                seed=seed, seeds=", ".join(map(str, GRID_SEEDS))))

    def setup(self):
        self.spec = harness.parse_config(self.config_path)
        self.problem = harness.build_problem(self.spec)
        self.reg = self.spec.regularizers[0]  # l1(1e-4): its SR2 cells go to eps

    def _grid(self, out_dir, jobs):
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["run", "--config", self.config_path, "--out", out_dir,
                "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            cli.main(argv)
            return time.perf_counter() - start

    def _check_cells(self, ops, label, out_dir):
        """One operation per cell: present, no error, finite, and equal to
        the audit run's trace (wall_time aside) and model."""
        try:
            summary_bytes, rows, cells = read_outputs(out_dir)
        except (OSError, ValueError, IndexError) as exc:
            for cell in HARNESS_CELLS:
                ops.record(f"{label} {cell}", False, f"no outputs: {exc!r}")
            return None, None
        by_cell = {row["cell"]: row for row in rows if "cell" in row}
        for cell in HARNESS_CELLS:
            row = by_cell.get(cell)
            if row is None or "error" in row:
                ops.record(f"{label} {cell}", False,
                           row.get("error", "") if row else "missing row")
            elif not math.isfinite(row["final_objective"]):
                ops.record(f"{label} {cell}", False, "non-finite objective")
            elif (self.audit_cells is not None
                  and cells.get(cell) != self.audit_cells.get(cell)):
                ops.record(f"{label} {cell}", False,
                           "trace or model differs from the audit run")
            else:
                ops.record(f"{label} {cell}", True)
        skipped = [row for row in rows if row.get("skipped")]
        self.check(f"{label}: one skipped row (proxsgd x l0, 2 planned cells)",
                   len(skipped) == 1 and len(rows) == len(HARNESS_CELLS) + 1,
                   f"{len(rows)} rows, {len(skipped)} skipped")
        if self.audit_summary is not None:
            self.check(f"{label}: summary.json identical to the --jobs 1 audit",
                       summary_bytes == self.audit_summary)
        return summary_bytes, cells

    def _sr2(self, s, max_iter, audit=False):
        # the configuration the harness gives an sr2 cell, budget aside
        cfg = sr2.SolverConfig(batch_size=self.spec.batch_size, max_iter=max_iter,
                               seed=s, record_full_objective=audit)
        return sr2.run(self.problem, self.reg, np.zeros(self.problem.n), cfg)

    def _gap(self, x):
        p = self.problem
        return reference.logistic_objective(p.A, p.y, self.reg.lam, x) - self.F_ref

    def audit(self, ops):
        p = self.problem
        _, self.F_ref, converged = reference.logistic_reference(p.A, p.y,
                                                                self.reg.lam)
        self.check("FISTA reference converged", converged)
        cap = self.epoch_cap * math.ceil(p.N / self.spec.batch_size)
        self.k_by_seed = {}
        for s in GRID_SEEDS:
            # runs are deterministic, so a longer budget replays the same
            # iterates; double it until the audited gap reaches eps
            max_iter, k = 256, None
            while True:
                max_iter = min(max_iter, cap)
                _, res = ops.run(f"sr2 seed {s}: audit run",
                                 lambda: self._sr2(s, max_iter, audit=True),
                                 lambda r: (True, ""))
                if res is None:
                    raise RuntimeError(f"harness: SR2 audit run {s} failed")
                F = [rec.F_full for rec in res.trace]
                F.append(self.F_ref + self._gap(res.x))
                k = first_within(np.array(F) - self.F_ref, LOGISTIC_EPS)
                if k is not None or max_iter >= cap or res.stop_reason != "budget":
                    break
                max_iter *= 2
            self.check(f"sr2 l1 seed {s}: reaches gap {LOGISTIC_EPS:g} in "
                       f"{self.epoch_cap} epochs", k is not None)
            k = k if k is not None else len(res.trace)
            self.k_by_seed[s] = k
            self.k_eps.append(
                (k, sum(rec.batch_size for rec in res.trace[:k]) / p.N))
            self.info.append(f"sr2 {self.reg} seed {s}: k_eps={k}")

        self.audit_cells = self.audit_summary = None
        out = os.path.join(self.dir, "audit")
        self._grid(out, 1)
        self.audit_summary, self.audit_cells = self._check_cells(ops, "audit", out)
        # mirrors the per-cell argument tuple run_experiments ships to a worker
        max_iter = int(self.spec.epochs) * math.ceil(p.N / self.spec.batch_size)
        sizes = [len(pickle.dumps((self.spec, p, solver, reg, seed, max_iter, out)))
                 for solver, reg, seed in harness.plan_cells(self.spec)]
        self.cell_payload_bytes = sum(sizes) / len(sizes)
        self.info.append(f"grid: {len(HARNESS_CELLS)} cells + 1 skipped row, "
                         f"pickled payload {self.cell_payload_bytes / 1e6:.1f} MB "
                         "per cell")

    def _jobs(self, jobs):
        def part(ops):
            out = os.path.join(self.dir, f"jobs{jobs}")
            start = time.perf_counter()
            try:
                elapsed = self._grid(out, jobs)
            except Exception as exc:  # the whole run failed: every cell fails
                for cell in HARNESS_CELLS:
                    ops.record(f"jobs{jobs} {cell}", False, f"raised {exc!r}")
                return time.perf_counter() - start, {}
            self._check_cells(ops, f"jobs{jobs}", out)
            return elapsed, {"out_dir": out}
        return part

    def _tte(self, ops):
        total = 0.0
        for s in GRID_SEEDS:
            k = self.k_by_seed[s]
            dt, _ = ops.run(
                f"sr2 l1 seed {s} to k_eps", lambda: self._sr2(s, k),
                lambda r: (len(r.trace) == k and self._gap(r.x) <= LOGISTIC_EPS,
                           f"{len(r.trace)} iterations, gap {self._gap(r.x):.3e}"))
            total += dt
        return total, {}

    def parts(self):
        return {"jobs1": self._jobs(1), "jobs2": self._jobs(2), "tte": self._tte}

    def sr2_stats(self, part_results):
        """Counts from the traced --jobs 1 run's SR2 trace files."""
        total = dict.fromkeys(
            ("iterations", "accepted", "zero_step_iters", "sigma_nonfinite_iters"), 0)
        out = part_results.get("jobs1", {}).get("out_dir")
        if out is None:
            return total
        for cell in HARNESS_CELLS:
            if not cell.startswith("sr2_"):
                continue
            header, rows = read_trace_rows(os.path.join(out, f"trace_{cell}.csv"))
            col = {name: j for j, name in enumerate(
                c for c in header if c != "wall_time")}
            for row in rows:
                total["iterations"] += 1
                total["accepted"] += row[col["accepted"]] == "1"
                total["zero_step_iters"] += float(row[col["step_norm_sq"]]) == 0.0
                total["sigma_nonfinite_iters"] += not math.isfinite(
                    float(row[col["sigma"]]))
        return total

    def output_bytes(self):
        out = os.path.join(self.dir, "jobs1")
        return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LassoFullBatch, LogisticMinibatch, HarnessGrid)}
