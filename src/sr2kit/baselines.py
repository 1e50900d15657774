"""Stripped-down comparison solvers: ProxGEN-style proximal SG and
ProxSGD-style interpolated proximal SG, both with momentum and
preconditioning disabled (identity metric, v_t = g_t).

Neither method tests step quality: every step is taken, the batch size is
fixed, and the step size follows the configured schedule.  Each step
draws one sample (Problem.draw: one gather, no check of the drawn
indices) and gets f(x) and the gradient on it from one forward pass; the
trace's f(x') is evaluated on that same sample.  x is not checked by the
steps: each point's _Point checks it as it is made (x0, then each x').

run_proxgen and run_proxsgd are SR2's run loop (sr2._drive) around _step,
which calls proxgen_step or proxsgd_step once and keeps R(x) and f(x) on
the iterate's _Point as SR2 does.  No step adds to the window, so a run
uses its whole budget; state.sigma is 1/alpha of the next step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import UnsupportedRegularizerError
from .regularizers import Regularizer, shifted_prox
from .sr2 import IterationRecord, RunResult, _drive, _Point

__all__ = [
    "BaselineConfig",
    "proxgen_step",
    "proxsgd_step",
    "run_proxgen",
    "run_proxsgd",
]


@dataclass
class BaselineConfig:
    alpha: float = 1e-3
    schedule: str = "constant"   # "constant" | "inverse-sqrt"
    batch_size: int = 128
    max_iter: int = 1000
    seed: int = 0
    record_full_objective: bool = False

    def validated(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha}")
        if self.schedule not in ("constant", "inverse-sqrt"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self

    def step_size(self, t):
        """Step size at iteration t (1-based)."""
        if self.schedule == "inverse-sqrt":
            return self.alpha / np.sqrt(t)
        return self.alpha


def _draw(p, x, rng, batch):
    """A fresh sample, with f(x) and the gradient on it; x is a checked
    point."""
    sample = p.draw(rng, batch)
    return sample, *sample._value_and_grad(x)


def proxgen_step(p, reg: Regularizer, x, alpha, rng, batch, r_x=None):
    """x' = x + argmin_s g^T s + (1/(2 alpha))||s||^2 + R(x+s).

    x is a finite point of shape (n,), which is not checked here.  r_x is
    R(x) if the caller holds it (see shifted_prox).  Returns x', the prox
    step and (sample, f(x) on the sample)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sample, f, g = _draw(p, x, rng, batch)
    step = shifted_prox(reg, x, g, 1.0 / alpha, r_x)
    return x + step.s, step, (sample, f)


def proxsgd_step(p, reg: Regularizer, x, alpha, rng, batch, r_x=None):
    """Unit-quadratic subproblem followed by interpolation:
    s = argmin_s g^T s + (1/2)||s||^2 + R(x+s);  x' = x + alpha * s.
    Only defined for convex regularizers.  Returns as proxgen_step."""
    if not reg.convex:
        raise UnsupportedRegularizerError(
            f"proxsgd requires a convex regularizer, got {reg}"
        )
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    sample, f, g = _draw(p, x, rng, batch)
    step = shifted_prox(reg, x, g, 1.0, r_x)
    return x + alpha * step.s, step, (sample, f)


def _step(stepper, p, reg: Regularizer, state, cfg: BaselineConfig):
    """One iteration through stepper (proxgen_step or proxsgd_step);
    mutates state and returns the IterationRecord."""
    t0 = time.perf_counter()
    x, at_x = state.x, state.point
    alpha = cfg.step_size(state.t + 1)
    r_x = at_x.reg_value(reg)
    x_new, step, (sample, f) = stepper(p, reg, x, alpha, state.rng,
                                       state.batch_size, r_x)
    at_new = _Point(x_new, p.n)
    s = x_new - x
    F_full = at_x.full_value(p) + r_x if cfg.record_full_objective else None
    state.x, state.point = at_new.x, at_new
    state.t += 1
    state.sigma = 1.0 / cfg.step_size(state.t + 1)
    return IterationRecord(
        t=state.t,
        sigma_used=1.0 / alpha,
        rho=float("nan"),
        step_norm_sq=float(s @ s),
        accepted=True,
        F_sampled_before=f + r_x,
        F_sampled_after=at_new.value_on(p, sample) + at_new.reg_value(reg),
        F_full=F_full,
        model_decrease=step.model_decrease,
        batch_size=state.batch_size,
        assumption_rejected=False,
        nnz=int(np.count_nonzero(x_new)),
        wall_time=time.perf_counter() - t0,
    )


def run_proxgen(p, reg: Regularizer, x0, cfg: BaselineConfig) -> RunResult:
    cfg = cfg.validated()
    return _drive(p, reg, x0, cfg, partial(_step, proxgen_step),
                  1.0 / cfg.step_size(1))


def run_proxsgd(p, reg: Regularizer, x0, cfg: BaselineConfig) -> RunResult:
    cfg = cfg.validated()
    return _drive(p, reg, x0, cfg, partial(_step, proxsgd_step),
                  1.0 / cfg.step_size(1))
