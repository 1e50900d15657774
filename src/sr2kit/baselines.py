"""Stripped-down comparison solvers: ProxGEN-style proximal SG and
ProxSGD-style interpolated proximal SG, both with momentum and
preconditioning disabled (identity metric, v_t = g_t).

Neither method tests step quality: every step is taken, the batch size is
fixed, and the step size follows the configured schedule.  proxgen_step
and proxsgd_step are the two update rules alone: they take x and a
sampled gradient g and draw and evaluate nothing.

run_proxgen and run_proxsgd are SR2's run loop (sr2._drive) around _step,
which evaluates as sr2_step does: it draws one sample from the run's
Sampler (Problem.draw: random reshuffling as in SR2; a batch of N is the
problem's full sample and draws nothing from the RNG), asks the iterate's
_Point for f(x) and the gradient on it, calls the update rule once, and
evaluates the trace's f(x') on the same sample through the new point's
_Point.  So at full batch the forward pass of x' made for the trace is
the one the next step's gradient reads.  Each point is checked once, as
its _Point is made: x0 in full, each x' by the step norm ||x' - x||^2
that the trace records, and a BaselineConfig once, as it is made.  No
step adds to the window, so a run uses its whole budget; state.sigma is
1/alpha of the next step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import UnsupportedRegularizerError
from .regularizers import Regularizer, shifted_prox
from .sr2 import IterationRecord, RunResult, _check_count, _drive, _Point

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


def _step(stepper, p, reg: Regularizer, state, cfg: BaselineConfig):
    """One iteration through stepper (proxgen_step or proxsgd_step);
    mutates state and returns the IterationRecord."""
    t0 = time.perf_counter()
    x, at_x = state.x, state.point
    alpha = cfg.step_size(state.t + 1)
    r_x = at_x.reg_value(reg)
    sample = p.draw(state.sampler, state.batch_size)
    f, g = at_x.value_and_grad(sample)
    x_new, step = stepper(reg, x, g, alpha, r_x)
    s = x_new - x
    step_norm_sq = float(s.dot(s))
    at_new = _Point(x_new, p.n, step_norm_sq)
    F_full = at_x.value(p.full) + r_x if cfg.record_full_objective else None
    state.point = at_new
    state.t += 1
    state.sigma = 1.0 / cfg.step_size(state.t + 1)
    return IterationRecord(
        t=state.t,
        sigma_used=1.0 / alpha,
        rho=float("nan"),
        step_norm_sq=step_norm_sq,
        accepted=True,
        F_sampled_before=f + r_x,
        F_sampled_after=at_new.value(sample) + at_new.reg_value(reg),
        F_full=F_full,
        model_decrease=step.model_decrease,
        batch_size=state.batch_size,
        assumption_rejected=False,
        nnz=int(np.count_nonzero(x_new)),
        wall_time=time.perf_counter() - t0,
    )


def run_proxgen(p, reg: Regularizer, x0, cfg: BaselineConfig) -> RunResult:
    return _drive(p, reg, x0, cfg, partial(_step, proxgen_step),
                  1.0 / cfg.step_size(1))


def run_proxsgd(p, reg: Regularizer, x0, cfg: BaselineConfig) -> RunResult:
    return _drive(p, reg, x0, cfg, partial(_step, proxsgd_step),
                  1.0 / cfg.step_size(1))
