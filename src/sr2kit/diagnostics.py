"""Post-hoc measurement: magnitude pruning, sparsity tables, classifier
accuracy, and a computable upper bound on the distance to first-order
stationarity at the post-step point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedMetricError

__all__ = [
    "SparsityReport",
    "prune",
    "sparsity_report",
    "accuracy",
    "accuracy_of_margins",
    "stationarity_surrogate",
    "DEFAULT_PRUNE_THRESHOLDS",
]

#: pruning sweep 10^-k for k = 1..8
DEFAULT_PRUNE_THRESHOLDS = tuple(10.0 ** -k for k in range(1, 9))


@dataclass
class SparsityReport:
    pct_exact_zero: float
    pct_below: dict        # threshold -> percentage with |w| <= threshold
    nnz: int
    n: int


def prune(x, alpha):
    """Zero every weight with |x_i| <= alpha; returns (x_pruned, fraction
    of entries zeroed)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    mask = np.abs(x) <= alpha
    out = x.copy()
    out[mask] = 0.0
    return out, float(np.count_nonzero(mask)) / x.size


def sparsity_report(x, thresholds=DEFAULT_PRUNE_THRESHOLDS):
    x = np.asarray(x, dtype=float)
    if any(t <= 0 for t in thresholds):
        raise ValueError("thresholds must be positive")
    n = x.size
    absx = np.abs(x)
    pct_below = {
        float(t): 100.0 * float(np.count_nonzero(absx <= t)) / n
        for t in thresholds
    }
    nnz = int(np.count_nonzero(x))
    return SparsityReport(
        pct_exact_zero=100.0 * (n - nnz) / n,
        pct_below=pct_below,
        nnz=nnz,
        n=n,
    )


def accuracy(p, x):
    """Percentage of samples whose predicted sign matches the label.
    sign(0) counts as +1."""
    if p.labels is None:
        raise UnsupportedMetricError(f"{p.name} is not a classification problem")
    return accuracy_of_margins(p.margins(x), p.labels)


def accuracy_of_margins(margins, labels):
    """accuracy from the margins and +/-1 labels: an exact count of matches
    over N, so the bits of np.mean(pred == labels)."""
    return 100.0 * (np.count_nonzero((margins >= 0.0) == (labels > 0.0))
                    / labels.size)


def stationarity_surrogate(p, x, g, s, sigma):
    """|| grad f(x+s) - g - sigma s || with the full gradient.

    At a shifted-prox step s this bounds the distance from 0 to the
    Frechet subdifferential of the composite objective at x + s; logging
    it periodically gives an audit-grade stationarity certificate even in
    stochastic runs.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    s = np.asarray(s, dtype=float)
    return float(np.linalg.norm(p.full_grad(x + s) - g - sigma * s))
