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

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InfeasibleAnchorError

__all__ = [
    "Zero",
    "L1",
    "L0",
    "L0Ball",
    "Regularizer",
    "StepVector",
    "reg_value",
    "shifted_prox",
]


class Regularizer:
    """Base of the regularizers, frozen dataclasses of finite parameters
    >= 0 (an int one an integer, not a bool) with R's value and
    prox_target, argmin_w (sigma/2)||w - u||^2 + R(w).  A kind, the name
    in a config, is the class name in lower case."""

    convex = True

    def __init_subclass__(cls):
        cls.kind = cls.__name__.lower()

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int" and (  # a string: annotations are postponed
                    isinstance(v, bool) or not isinstance(v, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer, got {v}")
            if not 0 <= v < math.inf:  # NaN fails both
                raise ValueError(f"{f.name} must be nonnegative and finite, got {v}")

    def __str__(self):
        params = [(f.name, getattr(self, f.name)) for f in fields(self)]
        args = ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in params)  # an int such as k in full
        return f"{self.kind}({args})" if params else self.kind


@dataclass(frozen=True)
class Zero(Regularizer):
    """R(x) = 0."""

    def value(self, x):
        return 0.0

    def prox_target(self, u, sigma):
        return np.array(u, dtype=float, copy=True)


@dataclass(frozen=True)
class L1(Regularizer):
    """R(x) = lam * ||x||_1 (soft thresholding)."""

    lam: float

    def value(self, x):
        # np.add.reduce is np.sum without its Python wrapper: the same bits
        return self.lam * float(np.add.reduce(np.abs(x), axis=None))

    def prox_target(self, u, sigma):
        u = np.asarray(u, dtype=float)
        tau = self.lam / sigma
        return np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)


@dataclass(frozen=True)
class L0(Regularizer):
    """R(x) = lam * ||x||_0 (hard thresholding)."""

    lam: float

    def value(self, x):
        return self.lam * float(np.count_nonzero(x))

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


@dataclass(frozen=True)
class L0Ball(Regularizer):
    """Indicator of {x : ||x||_0 <= k} (projection keeps the k largest
    magnitudes, ties broken by lowest index)."""

    k: int
    convex = False

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
    if not math.isfinite(r_x):
        raise InfeasibleAnchorError(
            f"anchor has infinite regularizer value under {reg}"
        )
    u = x - g / sigma
    w = reg.prox_target(u, sigma)
    s = w - x
    r_w = reg.value(w)
    model_decrease = r_x - float(g @ s) - r_w
    return StepVector(s=s, model_decrease=model_decrease, reg_at_target=r_w)

