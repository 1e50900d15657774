"""Sparsity-promoting regularizers and their exact shifted proximal maps.

Each regularizer R is proper, lower semi-continuous and bounded below by 0,
so the quadratic subproblem

    min_s  g^T s + (sigma/2) ||s||^2 + R(x + s)

has a global minimizer for every sigma > 0, and it is available in closed
form for every variant shipped here.  Substituting u = x - g/sigma, the
subproblem is equivalent to min_w (sigma/2)||w - u||^2 + R(w) over the
target point w = x + s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleAnchorError, UnsupportedOracleError

__all__ = [
    "Zero",
    "L1",
    "L0",
    "L0Ball",
    "Regularizer",
    "StepVector",
    "reg_value",
    "shifted_prox",
    "prox_grid_oracle",
    "l0ball_enumeration_oracle",
]


@dataclass(frozen=True)
class Zero:
    """R(x) = 0."""

    def value(self, x):
        return 0.0

    def scalar_value(self, xi):
        return 0.0

    def prox_target(self, u, sigma):
        return np.array(u, dtype=float, copy=True)

    @property
    def convex(self):
        return True

    @property
    def separable(self):
        return True

    def __str__(self):
        return "zero"


@dataclass(frozen=True)
class L1:
    """R(x) = lam * ||x||_1 (soft thresholding)."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")

    def value(self, x):
        return self.lam * float(np.sum(np.abs(x)))

    def scalar_value(self, xi):
        return self.lam * abs(xi)

    def prox_target(self, u, sigma):
        u = np.asarray(u, dtype=float)
        tau = self.lam / sigma
        return np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)

    @property
    def convex(self):
        return True

    @property
    def separable(self):
        return True

    def __str__(self):
        return f"l1(lam={self.lam:g})"


@dataclass(frozen=True)
class L0:
    """R(x) = lam * ||x||_0 (hard thresholding)."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")

    def value(self, x):
        return self.lam * float(np.count_nonzero(x))

    def scalar_value(self, xi):
        return self.lam if xi != 0.0 else 0.0

    def prox_target(self, u, sigma):
        # Keeping u_i costs (sigma/2)u_i^2 less than zeroing it but adds lam;
        # the break-even magnitude is sqrt(2 lam / sigma).  At the tie we
        # zero, preferring the sparser minimizer.
        u = np.asarray(u, dtype=float)
        thr = np.sqrt(2.0 * self.lam / sigma)
        w = u.copy()
        w[np.abs(u) <= thr] = 0.0
        return w

    @property
    def convex(self):
        return self.lam == 0.0

    @property
    def separable(self):
        return True

    def __str__(self):
        return f"l0(lam={self.lam:g})"


@dataclass(frozen=True)
class L0Ball:
    """Indicator of {x : ||x||_0 <= k} (projection keeps the k largest
    magnitudes, ties broken by lowest index)."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k}")

    def value(self, x):
        return 0.0 if np.count_nonzero(x) <= self.k else np.inf

    def prox_target(self, u, sigma):
        u = np.asarray(u, dtype=float)
        w = np.zeros_like(u)
        if self.k >= u.size:
            return u.copy()
        if self.k > 0:
            # stable argsort on -|u| resolves magnitude ties by lowest index
            keep = np.argsort(-np.abs(u), kind="stable")[: self.k]
            w[keep] = u[keep]
        return w

    @property
    def convex(self):
        return False

    @property
    def separable(self):
        return False

    def __str__(self):
        return f"l0ball(k={self.k})"


Regularizer = Zero | L1 | L0 | L0Ball


@dataclass(frozen=True)
class StepVector:
    """Solution of the shifted prox subproblem.

    model_decrease is R(x) - g^T s - R(x+s), which is >= (sigma/2)||s||^2
    at any global minimizer (compare the subproblem objective at s and 0).
    """

    s: np.ndarray
    model_decrease: float
    reg_at_target: float


def reg_value(reg: Regularizer, x) -> float:
    """Extended-real value R(x); +inf outside the domain of an indicator."""
    return reg.value(np.asarray(x, dtype=float))


def shifted_prox(reg: Regularizer, x, g, sigma: float, r_x=None) -> StepVector:
    """Global minimizer of g^T s + (sigma/2)||s||^2 + R(x+s).

    Requires sigma > 0 and a feasible anchor (R(x) finite).  r_x is R(x)
    when the caller already holds it; by default it is computed here.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if r_x is None:
        r_x = reg.value(x)
    if not np.isfinite(r_x):
        raise InfeasibleAnchorError(
            f"anchor has infinite regularizer value under {reg}"
        )
    u = x - g / sigma
    w = reg.prox_target(u, sigma)
    s = w - x
    r_w = reg.value(w)
    model_decrease = r_x - float(g @ s) - r_w
    return StepVector(s=s, model_decrease=model_decrease, reg_at_target=r_w)


def prox_grid_oracle(reg, x, g, sigma, lo, hi, step):
    """Brute-force 1-D minimizer of g*s + (sigma/2)s^2 + R_scalar(x+s).

    Test-only certificate for the separable variants; L0Ball is covered by
    l0ball_enumeration_oracle instead.
    """
    if not reg.separable:
        raise UnsupportedOracleError(f"{reg} is not coordinate-separable")
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
    of size <= k.  Exponential in n; test-only (n <= 12 or so)."""
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
