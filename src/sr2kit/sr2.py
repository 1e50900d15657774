"""SR2: adaptive quadratic-regularization proximal stochastic solver.

Each iteration draws a minibatch, takes an exact shifted-prox step against
the quadratic model g^T s + (sigma/2)||s||^2 + R(x+s), compares actual to
predicted decrease (rho), and accepts or rejects the step while adapting
sigma like a trust-region radius in reverse: rejections inflate sigma,
very successful steps deflate it down to sigma_min.

One run loop, _drive, and one step, _step, serve SR2 and both baselines.
The loop knows only the budget: it calls the step until the step sets a
stop reason on the state, or max_iter times.  _step draws one sample
(Problem.draw), asks the iterate's _Point for f(x) and the gradient on
it, from one forward pass, and leaves the step to the method's verdict;
f(x + s) on the same sample costs one more forward pass.  A minibatch is
one gather of rows, whose drawn indices are not checked again, from the
run's Sampler, which _drive makes and the state holds (random
reshuffling, see problems): consecutive batches of one permutation of
the data, and a new permutation when the next batch does not fit in the
rest, also after the guard doubles the batch.
Batches of one permutation are disjoint, so not independent as SR2's
analysis assumes.

Each point is checked once, when its _Point is made (x0 in full in
_drive), and a config once, when it is made; no evaluation checks again.

Full batch (batch == N, which the batch never leaves once it gets there):
the sample is the problem's full one, Problem.full, read in place, and
the RNG is left untouched.  _Point keeps R(x) and, on the full sample
only, the forward pass, f(x) and the gradient while x is unchanged, so a
rejected step only changes sigma and takes one prox step, as in the
deterministic R2.  The forward pass computed for f(x + s) is kept with
the trial point, so an accepted point's gradient needs no second forward
pass.  Any full objective f(x) + R(x) (rho_mode="full",
record_full_objective, the "full" assumption guard) is evaluated at most
once per iterate in every mode.

SR2's step owns its stopping rule.  A sliding-window mean of accepted
squared step norms estimates the expected squared step length; after an
accepted step the run stops, on "stationarity", once the window is full
and the mean falls below epsilon^2.  The mean is not taken when the
newest entry over the window length is above epsilon^2: a float sum of
nonnegative terms is at least each term.  A full-batch run also stops, on
"zero_step", at its first zero step that the guard did not make: only
sigma changes after it, and in exact arithmetic ||s|| does not grow with
sigma, so every later step is zero too (R2's sigma ||s|| is already 0).

A step whose new point (SR2's x + s, a baseline's x') is not finite, or
whose Delta F is NaN, ends the run on "non_finite": it is recorded as not
accepted, with the values that ended it, and x stays the last finite one.

A baseline's record differs from SR2's in sigma_used (1/alpha), the new
point (its x', always accepted), step_norm_sq (||x' - x||^2, not ||s||^2),
F_sampled_after (with R(x') from the new _Point, which the next step
reuses as its R(x), not the prox step's R(x + s)) and rho (NaN).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleAnchorError
from .problems import Sampler, _check_count, _check_point
from .regularizers import Regularizer, reg_value, shifted_prox

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "RunResult",
    "update_sigma",
    "sigma_succ_bound",
    "stationarity_estimate",
    "sr2_step",
    "run",
]


@dataclass(frozen=True)
class SolverConfig:
    eta1: float = 7.5e-4
    eta2: float = 0.99
    gamma1: float = 5.56
    gamma3: float = 0.8
    sigma0: float = 1.0
    sigma_min: float = 1e-6
    epsilon: float = 1e-4
    batch_size: int = 128
    max_iter: int = 1000
    seed: int = 0
    rho_mode: str = "sampled"            # "sampled" | "full"
    assumption_check: str = "off"        # "off" | "full" | "sampled-proxy"
    kappa_m: float | str = "auto"        # positive float or "auto" (= L/2)
    window: int = 25
    record_full_objective: bool = False  # audit column even in sampled mode

    def __post_init__(self):
        if not 0 < self.eta1 <= self.eta2 < 1:
            raise ValueError("need 0 < eta1 <= eta2 < 1")
        if not 0 < self.gamma3 <= 1 < self.gamma1 < math.inf:
            raise ValueError("need 0 < gamma3 <= 1 < gamma1 < inf")
        if not math.inf > self.sigma0 >= self.sigma_min > 0:
            raise ValueError("need sigma0 >= sigma_min > 0, sigma0 finite")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        for key, low in (("batch_size", 1), ("max_iter", 0), ("seed", 0),
                         ("window", 1)):
            _check_count(key, getattr(self, key), low)
        if self.rho_mode not in ("sampled", "full"):
            raise ValueError(f"unknown rho_mode {self.rho_mode!r}")
        if self.assumption_check not in ("off", "full", "sampled-proxy"):
            raise ValueError(f"unknown assumption_check {self.assumption_check!r}")
        if self.kappa_m != "auto" and not (
            isinstance(self.kappa_m, (int, float)) and 0 < self.kappa_m < math.inf
        ):
            raise ValueError("kappa_m must be positive or 'auto' (finite if a number)")


class _Point:
    """A point x, checked as it is made: in full, unless a step from a
    finite iterate x_k made it and step_norm_sq = ||x - x_k||^2 is finite
    (x_k,i + s_i overflows only if s_i^2 does).  It is the one place that
    decides what is kept at x: R(x), and on the problem's full sample the
    forward pass, f(x) and the gradient, each computed on first use.
    Values on any other sample are computed afresh.  SolverState holds the
    iterate only as its _Point, so rejected steps reuse these values; an
    accepted step replaces the _Point with the trial point's (no x is
    written in place)."""

    __slots__ = ("x", "_r", "_fwd", "_f", "_g")

    def __init__(self, x, n, step_norm_sq=None):
        if step_norm_sq is None or not step_norm_sq < math.inf:
            x = _check_point(x, n)
        self.x = x
        self._r = self._fwd = self._f = self._g = None

    def reg_value(self, reg):
        if self._r is None:
            self._r = reg_value(reg, self.x)
        return self._r

    def value(self, sample):
        """f(x) on sample (a problems.Sample)."""
        if sample.rows[0] is not sample.problem.A:
            return sample.value_of(sample._forward(self.x))
        if self._f is None:
            self._fwd = sample._forward(self.x)
            self._f = sample.value_of(self._fwd)
        return self._f

    def value_and_grad(self, sample):
        """f(x) and its gradient on sample, from one forward pass."""
        if sample.rows[0] is not sample.problem.A:
            fwd = sample._forward(self.x)
            return sample.value_of(fwd), sample.grad_of(fwd)
        f = self.value(sample)
        if self._g is None:
            self._g = sample.grad_of(self._fwd)
        return f, self._g


@dataclass
class SolverState:
    """What a run carries from one step to the next.  The iterate is held
    once, as its _Point (state.x reads it and cannot be set); the counts of
    accepted and rejected steps are those of the trace."""

    point: _Point
    sigma: float
    t: int
    sampler: Sampler            # the run's minibatches, untouched at batch N
    batch_size: int             # at most N
    window: deque               # SR2's accepted squared step norms
    stop: str | None = None     # the reason, set by the step that ends the run

    @property
    def x(self):
        return self.point.x


@dataclass
class IterationRecord:
    t: int
    sigma_used: float
    rho: float
    step_norm_sq: float
    accepted: bool
    F_sampled_before: float     # composite f(x, xi) + R(x)
    F_sampled_after: float      # composite at x + s on the same batch
    F_full: float | None        # full-objective audit column
    model_decrease: float
    batch_size: int
    assumption_rejected: bool
    nnz: int
    wall_time: float


@dataclass
class RunResult:
    x: np.ndarray
    trace: list
    stop_reason: str            # "stationarity" | "zero_step" | "non_finite" | "budget"
    state: SolverState


def update_sigma(sigma, rho, cfg):
    """Three-branch regularization update (point representatives of the
    interval rule): shrink by gamma3 on very successful steps, hold on
    merely successful ones, inflate by gamma1 on rejected ones."""
    if rho >= cfg.eta2:
        return max(cfg.sigma_min, cfg.gamma3 * sigma)
    if rho >= cfg.eta1:
        return sigma
    return cfg.gamma1 * sigma


def sigma_succ_bound(kappa_m, eta2):
    """Regularization level above which any nonzero step is provably
    accepted (for regularizers bounded below, whose prox-boundedness
    threshold is infinite)."""
    if not 0 < eta2 < 1:
        raise ValueError("need 0 < eta2 < 1")
    if kappa_m <= 0:
        raise ValueError("kappa_m must be positive")
    return 2.0 * kappa_m / (1.0 - eta2)


def stationarity_estimate(w):
    """Mean of the window w of accepted squared step norms, or None while
    it has not yet filled."""
    if len(w) < w.maxlen:
        return None
    # np.mean is this add-reduce followed by the same division, so the
    # bits are its own, without its Python wrappers
    return float(np.add.reduce(np.fromiter(w, float, len(w))) / len(w))


def _window_stops(w, epsilon):
    """Whether the window w, just appended to, is full with mean <= epsilon^2."""
    if w[-1] / w.maxlen > epsilon**2:
        return False
    est = stationarity_estimate(w)
    return est is not None and est <= epsilon**2


def _resolve_kappa(cfg, p):
    if cfg.kappa_m == "auto":
        if p.L_bound is None:
            raise ValueError(
                f"kappa_m='auto' needs a problem with L_bound ({p.name} has none)"
            )
        return 0.5 * p.L_bound
    return float(cfg.kappa_m)


def _step(verdict, p, reg: Regularizer, state: SolverState, cfg):
    """One iteration of SR2 or a baseline; mutates state and returns the
    IterationRecord.  verdict(p, reg, state, cfg, sample, f, g, r_x) takes
    the step and sets state.sigma for the next one; it returns (the new
    _Point or None, rho, step_norm_sq, F_sampled_after, F_full,
    model_decrease, assumption_rejected)."""
    t0 = time.perf_counter()
    at_x = state.point
    sigma = state.sigma
    batch = state.batch_size
    r_x = at_x.reg_value(reg)
    sample = p.draw(state.sampler, batch)
    f_before, g = at_x.value_and_grad(sample)
    new, rho, step_norm_sq, F_after, F_full, delta_psi, guarded = verdict(
        p, reg, state, cfg, sample, f_before, g, r_x)
    if new is not None:
        state.point = new
    state.t += 1
    return IterationRecord(
        t=state.t,
        sigma_used=sigma,
        rho=rho,
        step_norm_sq=step_norm_sq,
        accepted=new is not None,
        F_sampled_before=f_before + r_x,
        F_sampled_after=F_after,
        F_full=F_full,
        model_decrease=delta_psi,
        batch_size=batch,
        assumption_rejected=guarded,
        nnz=int(np.count_nonzero(state.point.x)),
        wall_time=time.perf_counter() - t0,
    )


def _sr2_verdict(p, reg, state, cfg, sample, f_before, g, r_x):
    """SR2's part of _step: the prox step at state.sigma, the assumption
    guard, the rho test, the window, the stop tests and update_sigma."""
    at_x = state.point
    x = at_x.x
    step = shifted_prox(reg, x, g, state.sigma, r_x)
    F_before = f_before + r_x
    F_full = None
    if cfg.rho_mode == "full" or cfg.record_full_objective:
        F_full = at_x.value(p.full) + r_x
    s = step.s
    step_norm_sq = float(s.dot(s))
    if not step_norm_sq < math.inf and not np.isfinite(x + s).all():
        state.stop = "non_finite"  # x_i + s_i overflows only if s_i^2 does
        return (None, math.nan, step_norm_sq, math.nan, F_full,
                step.model_decrease, False)
    # the trial point is checked as it is made, by its norm
    trial = (_Point(x + s, p.n, step_norm_sq)
             if step_norm_sq != 0.0 else None)
    f_after = None  # f(x + s) on this step's sample

    assumption_rejected = False
    if cfg.assumption_check != "off" and step_norm_sq > 0.0:
        kappa = _resolve_kappa(cfg, p)
        if cfg.assumption_check == "full":
            f_ref0 = at_x.value(p.full)
            f_ref1 = trial.value(p.full)
        else:  # sampled-proxy: same-batch sampled objective
            f_ref0 = f_before
            f_ref1 = f_after = trial.value(sample)
        if abs(f_ref1 - f_ref0 - float(g.dot(s))) > kappa * step_norm_sq:
            assumption_rejected = True
            step_norm_sq = 0.0
            state.batch_size = min(2 * state.batch_size, p.N)

    if assumption_rejected or step_norm_sq == 0.0:
        rho = 0.0
        F_after = F_before
        delta_psi = 0.0
    else:
        if f_after is None:
            f_after = trial.value(sample)
        F_after = f_after + step.reg_at_target
        delta_psi = step.model_decrease
        if cfg.rho_mode == "full":
            delta_F = F_full - (trial.value(p.full) + step.reg_at_target)
        else:
            delta_F = F_before - F_after
        if not math.isfinite(delta_F):
            if math.isnan(delta_F):
                state.stop, rho = "non_finite", math.nan  # rho rejects the step
            else:
                rho = 0.0  # extended arithmetic: infinite decrease ratio -> 0
        elif delta_psi == 0.0 or not math.isfinite(delta_psi):
            rho = 0.0
        else:
            rho = delta_F / delta_psi

    accepted = rho >= cfg.eta1  # eta1 > 0, so never after a zero step
    if accepted:
        state.window.append(step_norm_sq)
        if _window_stops(state.window, cfg.epsilon):
            state.stop = "stationarity"
    elif step_norm_sq == 0.0 and not assumption_rejected and state.batch_size == p.N:
        state.stop = "zero_step"
    state.sigma = update_sigma(state.sigma, rho, cfg)
    return (trial if accepted else None, rho, step_norm_sq, F_after, F_full,
            delta_psi, assumption_rejected)


def sr2_step(p, reg: Regularizer, state: SolverState, cfg: SolverConfig):
    """One SR2 iteration; mutates state and returns the IterationRecord."""
    return _step(_sr2_verdict, p, reg, state, cfg)


def _drive(p, reg: Regularizer, x0, cfg, step, sigma, window=None):
    """Call step(p, reg, state, cfg) until it sets state.stop, or for
    max_iter steps ("budget").  window is the length of the state's window
    of accepted squared step norms, which only SR2's step fills."""
    at_x0 = _Point(np.array(x0, dtype=float), p.n)
    if not np.isfinite(at_x0.reg_value(reg)):
        raise InfeasibleAnchorError("starting point has infinite regularizer value")
    state = SolverState(
        point=at_x0,
        sigma=sigma,
        t=0,
        sampler=Sampler(np.random.default_rng(cfg.seed)),
        batch_size=min(cfg.batch_size, p.N),
        window=deque(maxlen=window),
    )
    trace = []
    # an overflow in ||s||^2 or f(x + s) rejects the step (rho = 0), and a
    # non-finite new point or a NaN Delta F ends the run: neither warns
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_iter):
            trace.append(step(p, reg, state, cfg))
            if state.stop:
                break
    state.stop = state.stop or "budget"
    return RunResult(x=state.x, trace=trace, stop_reason=state.stop, state=state)


def run(p, reg: Regularizer, x0, cfg: SolverConfig) -> RunResult:
    """Iterate sr2_step until the stationarity estimate drops below
    epsilon^2, a full-batch step is zero, the run diverges, or the
    iteration budget runs out."""
    return _drive(p, reg, x0, cfg, sr2_step, cfg.sigma0, cfg.window)
