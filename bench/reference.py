"""Independent reference solutions and objectives for the output checks.

Nothing here calls sr2kit: the objectives, the soft threshold and the
FISTA solver are written out again so that a defect in the package's
oracles or prox kernels cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np


def soft_threshold(u, tau):
    return np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)


def lasso_objective(A, b, lam, x):
    """(1/2N)||Ax - b||^2 + lam ||x||_1."""
    r = A @ x - b
    return 0.5 * float(r @ r) / A.shape[0] + lam * float(np.sum(np.abs(x)))


def logistic_objective(A, y, lam, x):
    """(1/N) sum log(1 + exp(-y_i a_i^T x)) + lam ||x||_1."""
    m = y * (A @ x)
    return float(np.mean(np.logaddexp(0.0, -m))) + lam * float(np.sum(np.abs(x)))


def accuracy(A, y, x):
    """Percentage of labels matched by sign(A x), with sign(0) = +1."""
    pred = np.where(A @ x >= 0.0, 1.0, -1.0)
    return 100.0 * float(np.mean(pred == y))


def fista(objective, grad, L, n, lam, tol, max_iter, window=50):
    """FISTA with function-value restart for f + lam ||x||_1.

    Stops once the objective has dropped by at most `tol` over the last
    `window` iterations. Returns (x, F(x), converged).
    """
    x = np.zeros(n)
    z = x.copy()
    t = 1.0
    F_x = objective(x)
    history = [F_x]
    for _ in range(max_iter):
        x_new = soft_threshold(z - grad(z) / L, lam / L)
        F_new = objective(x_new)
        if F_new > F_x:
            # momentum overshot: restart from the last accepted point
            t = 1.0
            z = x.copy()
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_new) * (x_new - x)
            x, t, F_x = x_new, t_new, F_new
        history.append(F_x)
        if len(history) > window and history[-window - 1] - F_x <= tol:
            return x, F_x, True
    return x, F_x, False


def lasso_reference(A, b, lam, tol=1e-14, max_iter=50_000):
    """Lasso minimizer by FISTA on the Gram form; L is the exact top
    eigenvalue of A^T A / N."""
    N, n = A.shape
    G = A.T @ A / N
    c = A.T @ b / N
    half_bb = 0.5 * float(b @ b) / N
    L = float(np.linalg.eigvalsh(G)[-1])

    def objective(x):
        return 0.5 * float(x @ (G @ x)) - float(c @ x) + half_bb + lam * float(
            np.sum(np.abs(x)))

    x, _, converged = fista(objective, lambda x: G @ x - c, L, n, lam, tol,
                            max_iter)
    return x, lasso_objective(A, b, lam, x), converged


def logistic_reference(A, y, lam, tol=1e-13, max_iter=20_000):
    """L1-regularized logistic minimizer by FISTA; L = ||A||_2^2 / (4N)."""
    N, n = A.shape
    B = -(y[:, None] * A)  # row i is -y_i a_i, so the margin is -(B x)_i
    L = float(np.linalg.norm(A, 2)) ** 2 / (4.0 * N)

    def objective(x):
        return float(np.mean(np.logaddexp(0.0, B @ x))) + lam * float(
            np.sum(np.abs(x)))

    def grad(x):
        return B.T @ (1.0 / (1.0 + np.exp(-(B @ x)))) / N

    x, _, converged = fista(objective, grad, L, n, lam, tol, max_iter)
    return x, logistic_objective(A, y, lam, x), converged
