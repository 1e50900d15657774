"""Comparison solvers: ProxGEN-style proximal SG and ProxSGD-style
interpolated proximal SG, with momentum and preconditioning disabled
(identity metric, v_t = g_t).

proxgen_step and proxsgd_step are the two update rules alone: they take x
and a sampled gradient g and draw and evaluate nothing.  run_proxgen and
run_proxsgd call one of them at alpha = step_size(t) in SR2's run loop and
step (sr2._drive, sr2._step, which lists how the traces differ).  No step
sets a stop or adds to the window, and the batch size is fixed, so a run
takes every step and uses its whole budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import UnsupportedRegularizerError
from .regularizers import Regularizer, shifted_prox
from .problems import _check_count
from .sr2 import RunResult, _drive, _Point, _step

__all__ = [
    "BaselineConfig",
    "proxgen_step",
    "proxsgd_step",
    "run_proxgen",
    "run_proxsgd",
]


@dataclass(frozen=True)
class BaselineConfig:
    alpha: float = 1e-3
    schedule: str = "constant"   # "constant" | "inverse-sqrt"
    batch_size: int = 128
    max_iter: int = 1000
    seed: int = 0
    record_full_objective: bool = False

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha}")
        if self.schedule not in ("constant", "inverse-sqrt"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        for key, low in (("batch_size", 1), ("max_iter", 0), ("seed", 0)):
            _check_count(key, getattr(self, key), low)

    def step_size(self, t):
        """Step size at iteration t (1-based)."""
        if self.schedule == "inverse-sqrt":
            return self.alpha / np.sqrt(t)
        return self.alpha


def proxgen_step(reg: Regularizer, x, g, alpha, r_x=None):
    """ProxGEN's update with the identity metric:
    x' = x + argmin_s g^T s + (1/(2 alpha))||s||^2 + R(x+s).

    x is a finite point of shape (n,) and g a sampled gradient at it, which
    are not checked here.  r_x is R(x) if the caller holds it (see
    shifted_prox).  Returns x' and the prox step."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    step = shifted_prox(reg, x, g, 1.0 / alpha, r_x)
    return x + step.s, step


def proxsgd_step(reg: Regularizer, x, g, alpha, r_x=None):
    """ProxSGD's update: a unit-quadratic subproblem followed by
    interpolation, s = argmin_s g^T s + (1/2)||s||^2 + R(x+s);
    x' = x + alpha * s.  Only defined for convex regularizers.  Takes and
    returns as proxgen_step."""
    if not reg.convex:
        raise UnsupportedRegularizerError(
            f"proxsgd requires a convex regularizer, got {reg}"
        )
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    step = shifted_prox(reg, x, g, 1.0, r_x)
    return x + alpha * step.s, step


def _update(stepper, p, reg, state, cfg, sample, f, g, r_x):
    """A baseline's part of sr2._step: stepper (proxgen_step or
    proxsgd_step) at cfg.step_size(t + 1), always taken."""
    x = state.x
    x_new, step = stepper(reg, x, g, cfg.step_size(state.t + 1), r_x)
    s = x_new - x
    step_norm_sq = float(s.dot(s))
    new = _Point(x_new, p.n, step_norm_sq)
    F_full = (state.point.value(p.full) + r_x
              if cfg.record_full_objective else None)
    state.sigma = 1.0 / cfg.step_size(state.t + 2)
    return (new, np.nan, step_norm_sq, new.value(sample) + new.reg_value(reg),
            F_full, step.model_decrease, False)


def run_proxgen(p, reg: Regularizer, x0, cfg: BaselineConfig) -> RunResult:
    return _drive(p, reg, x0, cfg, partial(_step, partial(_update, proxgen_step)),
                  1.0 / cfg.step_size(1))


def run_proxsgd(p, reg: Regularizer, x0, cfg: BaselineConfig) -> RunResult:
    return _drive(p, reg, x0, cfg, partial(_step, partial(_update, proxsgd_step)),
                  1.0 / cfg.step_size(1))
