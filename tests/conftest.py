"""Shared fixtures and independent reference oracles.

The reference solvers here deliberately avoid the package's prox kernels:
ISTA uses its own inline soft threshold and a spectral-norm step size so
that package results are certified against an independent code path.
"""

import numpy as np
import pytest


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
