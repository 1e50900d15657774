"""Shared fixtures and independent reference oracles.

The reference solvers here deliberately avoid the package's prox kernels:
ISTA uses its own inline soft threshold and a spectral-norm step size so
that package results are certified against an independent code path.  The
prox kernels are certified against brute force (a dense 1-D grid for the
separable penalties, every support for L0Ball) and the analytic gradients
against central finite differences.
"""

import itertools

import numpy as np
import pytest

from sr2kit.harness import TRACE_SCHEMA
from sr2kit.regularizers import L0, L1, Zero

#: trace columns that may differ between reruns of a config (wall-clock
#: time); every other output is a function of (config, seeds)
NONDETERMINISTIC_COLUMNS = ("wall_time",)


def read_trace_csv(path):
    """A trace CSV as harness.write_trace_csv writes it: (columns, rows)
    with rows as lists of strings."""
    with open(path) as fh:
        assert fh.readline() == f"# {TRACE_SCHEMA}\n", path
        cols = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return cols, rows


def ista_reference(A, b, lam, tol=1e-10, max_iter=500_000):
    """Fixed-step proximal gradient for (1/2N)||Ax-b||^2 + lam||x||_1.

    Independent of the package: own soft threshold, exact spectral norm
    for the step size.  Runs until the gradient-map norm drops below tol.
    Returns (x, iterations).
    """
    N, n = A.shape
    L = np.linalg.norm(A, 2) ** 2 / N
    step = 1.0 / L
    x = np.zeros(n)
    for k in range(max_iter):
        g = A.T @ (A @ x - b) / N
        u = x - step * g
        x_new = np.sign(u) * np.maximum(np.abs(u) - lam * step, 0.0)
        if np.linalg.norm((x - x_new) / step) <= tol:
            return x_new, k + 1
        x = x_new
    return x, max_iter


def lasso_objective(A, b, lam, x):
    N = A.shape[0]
    r = A @ x - b
    return 0.5 * float(r @ r) / N + lam * float(np.sum(np.abs(x)))


@pytest.fixture(scope="session")
def lasso_instance():
    """Seeded (A, b, lam) lasso test instance with its ISTA reference
    solution; shared across test modules."""
    rng = np.random.default_rng(42)
    N, n = 400, 100
    A = rng.normal(size=(N, n))
    x_true = np.zeros(n)
    idx = rng.choice(n, size=15, replace=False)
    x_true[idx] = rng.normal(size=15)
    b = A @ x_true + 0.1 * rng.normal(size=N)
    lam = 0.1
    x_ref, _ = ista_reference(A, b, lam)
    return {"A": A, "b": b, "lam": lam, "x_ref": x_ref,
            "F_ref": lasso_objective(A, b, lam, x_ref)}


def scalar_value(reg, xi):
    """R at the scalar xi for the coordinate-separable penalties."""
    if isinstance(reg, L1):
        return reg.lam * abs(xi)
    if isinstance(reg, L0):
        return reg.lam if xi != 0.0 else 0.0
    return 0.0


def prox_grid_oracle(reg, x, g, sigma, lo, hi, step):
    """Brute-force 1-D minimizer of g*s + (sigma/2)s^2 + R_scalar(x+s).

    Certifies the separable variants; L0Ball is covered by
    l0ball_enumeration_oracle instead.
    """
    if not isinstance(reg, (Zero, L1, L0)):
        raise ValueError(f"{reg} is not coordinate-separable")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    grid = np.arange(lo, hi + step, step)
    if lo <= -x <= hi:
        # the floating grid never lands on x + s == 0 exactly, so the L0
        # breakpoint must be scanned explicitly
        grid = np.append(grid, -x)
    vals = g * grid + 0.5 * sigma * grid**2
    if isinstance(reg, L1):
        vals = vals + reg.lam * np.abs(x + grid)
    elif isinstance(reg, L0):
        vals = vals + np.where(x + grid != 0.0, reg.lam, 0.0)
    return float(grid[np.argmin(vals)])


def l0ball_enumeration_oracle(k, x, g, sigma):
    """Exhaustive minimization of the L0Ball subproblem over all supports
    of size <= k.  Exponential in n; keep n <= 12 or so."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    n = x.size
    u = x - g / sigma
    best_obj = np.inf
    best_w = np.zeros(n)
    for size in range(min(k, n) + 1):
        for support in itertools.combinations(range(n), size):
            w = np.zeros(n)
            idx = list(support)
            w[idx] = u[idx]
            s = w - x
            obj = float(g @ s) + 0.5 * sigma * float(s @ s)
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_w = w
    return best_w, best_obj


def check_gradient(p, x, h=1e-6, rtol=1e-5, atol=1e-8):
    """Central finite-difference certification of full_grad at x.

    Returns (ok, max_rel_err); each coordinate of the analytic gradient
    must match the difference quotient within rtol (plus atol for near-zero
    components).
    """
    x = np.asarray(x, dtype=float)
    g = p.full_grad(x)
    worst = 0.0
    for i in range(p.n):
        e = np.zeros_like(x)
        e[i] = h
        fd = (p.full_value(x + e) - p.full_value(x - e)) / (2.0 * h)
        err = abs(fd - g[i]) / (abs(fd) + atol / rtol)
        worst = max(worst, err)
    return worst <= rtol, worst
