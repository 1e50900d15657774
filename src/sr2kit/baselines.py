"""Stripped-down comparison solvers: ProxGEN-style proximal SG and
ProxSGD-style interpolated proximal SG, both with momentum and
preconditioning disabled (identity metric, v_t = g_t).

Neither method tests step quality: every step is taken, the batch size is
fixed, and the step size follows the configured schedule.  Each step
builds one checked sample and gets f(x) and the gradient on it from one
forward pass; the trace's f(x') is evaluated on that same sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRegularizerError
from .problems import draw_sample
from .regularizers import Regularizer, reg_value, shifted_prox
from .sr2 import IterationRecord, RunResult, SolverState

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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
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
    """A fresh sample, with f(x) and the gradient on it."""
    sample = p.sample(draw_sample(rng, p.N, batch))
    f, g = sample.value_and_grad(x)
    return sample, f, g


def proxgen_step(p, reg: Regularizer, x, alpha, rng, batch):
    """x' = x + argmin_s g^T s + (1/(2 alpha))||s||^2 + R(x+s).

    Returns x', the prox step and (sample, f(x) on the sample)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sample, f, g = _draw(p, x, rng, batch)
    step = shifted_prox(reg, x, g, 1.0 / alpha)
    return x + step.s, step, (sample, f)


def proxsgd_step(p, reg: Regularizer, x, alpha, rng, batch):
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
    step = shifted_prox(reg, x, g, 1.0)
    return x + alpha * step.s, step, (sample, f)


def _run_baseline(p, reg, x0, cfg, stepper):
    cfg = cfg.validated()
    x = np.asarray(x0, dtype=float).copy()
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, p.N)
    trace = []
    r_x = reg_value(reg, x)
    for t in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        alpha = cfg.step_size(t)
        x_new, step, (sample, f) = stepper(p, reg, x, alpha, rng, batch)
        r_new = reg_value(reg, x_new)
        F_before = f + r_x
        F_after = sample.value(x_new) + r_new
        s_eff = x_new - x
        F_full = p.full_value(x) + r_x if cfg.record_full_objective else None
        x, r_x = x_new, r_new
        trace.append(IterationRecord(
            t=t,
            sigma_used=1.0 / alpha,
            rho=float("nan"),
            step_norm_sq=float(s_eff @ s_eff),
            accepted=True,
            F_sampled_before=F_before,
            F_sampled_after=F_after,
            F_full=F_full,
            model_decrease=step.model_decrease,
            batch_size=batch,
            assumption_rejected=False,
            nnz=int(np.count_nonzero(x)),
            wall_time=time.perf_counter() - t0,
        ))
    state = SolverState(x=x, sigma=float("nan"), t=cfg.max_iter, rng=rng,
                        batch_size=batch)
    return RunResult(x=x, trace=trace, stop_reason="budget", state=state)


def run_proxgen(p, reg: Regularizer, x0, cfg: BaselineConfig) -> RunResult:
    return _run_baseline(p, reg, x0, cfg, proxgen_step)


def run_proxsgd(p, reg: Regularizer, x0, cfg: BaselineConfig) -> RunResult:
    if not reg.convex:
        raise UnsupportedRegularizerError(
            f"proxsgd requires a convex regularizer, got {reg}"
        )
    return _run_baseline(p, reg, x0, cfg, proxsgd_step)
