"""Finite-sum smooth objectives with full and sampled evaluation.

Every problem is a mean of N per-sample terms, f(x) = (1/N) sum_i f_i(x),
each a loss of a model's output on one row of the data.  The square and
logistic losses are written once (_SQUARE, _LOGISTIC), and each
subclass sets n and its loss and writes its model once (_model and
_model_grad): linear for LeastSquares and Logistic, a tanh network for
TinyMLP.  Gradients are analytic, and a Lipschitz bound on the full
gradient, where available, is computed only when something reads it (SR2
never does).  Summation is always in ascending index order so
full-batch evaluation is bitwise reproducible.

Evaluation has one path, and a Sample is its one evaluator.
Problem.sample(idx) checks the index set once and gathers its rows once
(A.take, the bytes of A[idx] for less overhead).  The Sample runs the
forward pass itself (the model's output and the loss's head on it), from
which its value and gradient at x both come, and every public evaluation
checks x.  The whole data set is an ordinary Sample too, Problem.full,
whose rows are the stored A and y, read in place with no copy: a sample
is the full one when its rows[0] is A.  The stored data is C-ordered, so
it gives bitwise the same numbers as the index set {0..N-1}, which is
copied.  full_value/full_grad/sampled_value/sampled_grad make a sample
and evaluate it.

The solvers take a cheaper way through it.  Problem.draw(sampler, batch)
gathers the rows of draw_sample's indices without checking them again
(they are sorted, unique and in range by construction; a batch of N is
Problem.full and draws nothing), and the solvers check each point once,
when they make it (a step's new point by its step norm), then evaluate it
through its sr2._Point, the one place that keeps values at a point, and
only those on the full sample.

Minibatches are drawn by random reshuffling: a run's Sampler draws one
permutation of {0..N-1} at its first minibatch draw and cuts it into
consecutive batches, each sorted in place.  When the next batch does not
fit in what is left of the permutation (N not a multiple of the batch, or
a batch that the assumption guard doubled partway through), the rest is
skipped and a new permutation starts, so every batch holds distinct
indices.  Batches cut from one permutation are disjoint, so they are not
independent, which SR2's analysis assumes of its batches (a declared
change from the i.i.d. draws of Generator.choice).  A batch of N is
{0..N-1} and draws nothing from the RNG.
"""

from __future__ import annotations

import mmap
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError

__all__ = [
    "Dataset",
    "Problem",
    "Sample",
    "LeastSquares",
    "Logistic",
    "TinyMLP",
    "SparseRecoveryInstance",
    "Sampler",
    "draw_sample",
    "make_least_squares",
    "make_logistic",
    "make_tiny_mlp",
    "make_sparse_recovery",
    "load_csv",
    "load_libsvm",
]


@dataclass
class Dataset:
    features: np.ndarray  # [N, d]
    targets: np.ndarray   # [N], real or +/-1 labels

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} rows vs {self.targets.shape[0]} targets"
            )
        if not (np.isfinite(self.features).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset contains non-finite entries")


def _check_count(key, value, low):
    """An integer parameter: an int or a numpy integer, not a bool, >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{key} must be >= {low}")


def _check_point(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite point")
    return x


def _check_indices(idx, N):
    """idx as a sorted index array; rejects an empty, non-integer (float or
    boolean mask), out-of-range or repeated index set."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty sample set")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"sample indices must be integers, got {idx.dtype}")
    idx = np.sort(idx, axis=None)
    if idx[0] < 0 or idx[-1] >= N:
        raise ValueError(f"sample indices out of range [0, {N})")
    if (idx[1:] == idx[:-1]).any():
        raise ValueError("sample indices must be unique")
    return idx


class _Loss(namedtuple("_Loss", "name head value dout curvature")):
    """A per-sample loss of the model output out on the targets y, read
    through its head: value(head) is the loss, dout(head, y) its derivative
    in out, and curvature bounds its second derivative in out.  It pickles
    as the module constant called name."""

    def __reduce__(self):
        return self.name


#: 1/2 (out - y)^2, through the residual r = out - y
_SQUARE = _Loss(name="_SQUARE", head=lambda out, y: out - y,
                value=lambda r: 0.5 * r**2, dout=lambda r, y: r, curvature=1.0)

#: log(1 + e^-m) at the margin m = y out of a +/-1 label y, through z = -m;
#: d/dout = -y sigmoid(-m) = -y sigmoid(z), and sigmoid' <= 1/4
_LOGISTIC = _Loss(name="_LOGISTIC", head=lambda out, y: -(y * out),
                  value=lambda z: np.logaddexp(0.0, z),
                  dout=lambda z, y: -y * _sigmoid(z), curvature=0.25)


class Problem:
    """Finite-sum objective interface over a design A (one row per term)
    and its targets y: a model of the rows and a loss of its output.

    Subclasses set n and loss (_SQUARE, or _LOGISTIC, whose y are +/-1
    labels) and write their model once: _model(x, Ai) gives (cache, out),
    the output on design rows Ai (A[idx] of a sorted, unique, in-range idx,
    or A itself) and what its gradient reads, and _model_grad(cache, dout,
    Ai) the mean gradient given the loss's derivative dout in out.

    L_bound is a Lipschitz bound on the full gradient, or None.  Where a
    subclass can compute one, it does so on first read, from the stored A,
    so it depends only on the data and not on its memory layout: the exact
    top eigenvalue of the smaller Gram matrix (_gram_lmax), inflated just
    enough to bound lambda_max(A^T A), or NaN when the Gram overflows.  Only
    these read it: a baseline's alpha: auto in the harness (once per run),
    SR2's kappa_m: auto under the assumption guard, and
    make_sparse_recovery's l0_lambda.  It may be assigned.
    """

    n: int
    loss: _Loss
    name: str
    L_bound: float | None = None
    labels: np.ndarray | None = None  # classification targets, +/-1

    def __init__(self, A, y, name=None):
        """A is stored as floats in C order: the full oracles read it in
        place, the sampled ones a C-ordered copy A[idx], and the same
        layout gives both the same bits."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] == 0:
            raise ValueError(f"expected a nonempty 2-D design, got shape {A.shape}")
        self.A = np.ascontiguousarray(A)
        self.y = np.asarray(y, dtype=float)
        self.N = A.shape[0]
        if self.y.shape != (self.N,):
            raise ValueError(f"expected {self.N} targets, got shape {self.y.shape}")
        if self.loss is _LOGISTIC:
            if not np.all(np.isin(self.y, (-1.0, 1.0))):
                raise ValueError("labels must be in {-1, +1}")
            self.labels = self.y
        if name is not None:
            self.name = name

    @property
    def full(self):
        """The whole data set as a Sample, read in place with no copy."""
        return Sample(self, (self.A, self.y))

    def _rows(self, idx):
        return self.A.take(idx, axis=0), self.y[idx]

    def sample(self, idx):
        """The terms on the index set idx, checked and gathered once."""
        return Sample(self, self._rows(_check_indices(idx, self.N)))

    def draw(self, sampler, batch):
        """The next sample of batch terms from sampler (draw_sample),
        gathered once; its indices need no check.  A batch of N is the
        full sample and draws nothing."""
        if batch == self.N:
            return self.full
        return Sample(self, self._rows(draw_sample(sampler, self.N, batch)))

    def full_value(self, x):
        return self.full.value(x)

    def full_grad(self, x):
        return self.full.grad(x)

    def sampled_value(self, x, idx):
        return self.sample(idx).value(x)

    def sampled_grad(self, x, idx):
        return self.sample(idx).grad(x)

    def margins(self, x):
        """Per-sample prediction scores, the model's output (with labels only)."""
        if self.labels is None:
            raise NotImplementedError(f"{self.name} has no classifier margins")
        return self.full.forward(x)[1]


class Sample:
    """The mean of a problem's terms over one valid index set, whose data
    rows are gathered once.  x is checked at every public evaluation;
    value and gradient at one x come from one forward pass."""

    __slots__ = ("problem", "rows")

    def __init__(self, problem, rows):
        self.problem = problem
        self.rows = rows

    def forward(self, x):
        """The forward pass at x, which value_of and grad_of read."""
        return self._forward(_check_point(x, self.problem.n))

    def _forward(self, x):
        """forward at a point that was checked when it was made."""
        cache, out = self.problem._model(x, self.rows[0])
        return cache, out, self.problem.loss.head(out, self.rows[1])

    def value_of(self, fwd):
        loss = self.problem.loss.value(fwd[2])
        return float(np.add.reduce(loss) / loss.size)  # the bits of loss.mean()

    def grad_of(self, fwd):
        p, (Ai, yi) = self.problem, self.rows
        return p._model_grad(fwd[0], p.loss.dout(fwd[2], yi), Ai)

    def value(self, x):
        return self.value_of(self.forward(x))

    def grad(self, x):
        return self.grad_of(self.forward(x))


class _Linear(Problem):
    """The linear model out = A x.  L_bound is lambda_max(A^T A) / N times
    the loss's curvature, from the stored A on first read (see Problem)."""

    @cached_property
    def n(self):
        return self.A.shape[1]

    @cached_property
    def L_bound(self):
        return _gram_lmax(self.A) / (self.N / self.loss.curvature)

    def _model(self, x, Ai):
        return None, Ai @ x

    def _model_grad(self, cache, dout, Ai):
        return (Ai.T @ dout) / Ai.shape[0]


class LeastSquares(_Linear):
    """f_i(x) = 1/2 (a_i^T x - y_i)^2.  L_bound = lambda_max(A^T A) / N."""

    loss = _SQUARE
    name = "least_squares"


class Logistic(_Linear):
    """f_i(x) = log(1 + exp(-y_i a_i^T x)), y_i in {-1, +1}.  L_bound =
    lambda_max(A^T A) / (4N)."""

    loss = _LOGISTIC
    name = "logistic"

    def margins(self, x):
        return self.A @ _check_point(x, self.n)


class TinyMLP(Problem):
    """One-hidden-layer tanh network with hand-coded backprop.

    Parameters are the flat vector [W1 (h x d), b1 (h), w2 (h), b2].
    task "regression" uses the square loss 1/2 (out - y)^2; task
    "classification" the logistic loss on +/-1 labels.  tanh keeps the
    gradient Lipschitz on bounded parameter sets, unlike ReLU.
    """

    name = "tiny_mlp"
    _lipschitz_rng = None  # make_tiny_mlp's generator state

    def __init__(self, features, targets, hidden, task="regression",
                 name=None):
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task {task!r}")
        self.loss = _LOGISTIC if task == "classification" else _SQUARE
        super().__init__(features, targets, name)
        self.d = self.A.shape[1]
        _check_count("hidden", hidden, 1)
        self.h = int(hidden)
        self.task = task
        self.n = self.h * self.d + 2 * self.h + 1

    def _model(self, x, Ai):
        h, d = self.h, self.d
        W1, b1, w2 = x[: h * d].reshape(h, d), x[h * d: h * d + h], x[h * d + h: -1]
        T = np.tanh(Ai @ W1.T + b1)   # [m, h]
        return (T, w2), T @ w2 + x[-1]   # out: [m]

    def _model_grad(self, cache, dout, Ai):
        T, w2 = cache
        m = Ai.shape[0]
        dT = np.outer(dout, w2) * (1.0 - T**2)   # [m, h]
        return np.concatenate([(dT.T @ Ai / m).ravel(), np.sum(dT, axis=0) / m,
                               T.T @ dout / m, [np.sum(dout) / m]])

    @cached_property
    def L_bound(self):
        """Randomized local estimate of the gradient Lipschitz constant on
        the ball of radius 1: the largest difference quotient of the full
        gradient over 200 random close pairs, inflated by a safety margin
        of 2, drawn on first read from make_tiny_mlp's generator state
        (None without one).  The network loss is not globally L-smooth in
        the parameters, so only a local figure is meaningful."""
        state = self._lipschitz_rng
        if state is None:
            return None
        rng = np.random.Generator(getattr(np.random, state["bit_generator"])())
        rng.bit_generator.state = state
        best = 0.0
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, self.n)
            y = x + rng.normal(0.0, 1e-3, self.n)
            num = np.linalg.norm(self.full_grad(x) - self.full_grad(y))
            den = np.linalg.norm(x - y)
            if den > 0:
                best = max(best, num / den)
        return 2.0 * best


def _sigmoid(t):
    """1 / (1 + e^-t), from e = e^-|t| <= 1 so that nothing overflows."""
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    return np.where(t >= 0, 1.0, e) / d  # 1/d or e/d per element


def _gram_lmax(A):
    """lambda_max(A^T A), the top eigenvalue of the smaller of A^T A and
    A A^T (they share it) by one symmetric eigensolve, inflated by 1e-8 to
    cover the Gram's rounding so that it bounds the exact value; NaN when
    the Gram overflows."""
    G = A.T @ A if A.shape[1] <= A.shape[0] else A @ A.T
    if not np.isfinite(G).all():
        return np.nan
    return float(np.linalg.eigvalsh(G)[-1]) * (1.0 + 1e-8)


class Sampler:
    """The minibatch draws of one run: its Generator, the current
    permutation and the position of the next batch in it.  Before the
    first draw the permutation is empty, so the first minibatch draw
    starts one."""

    __slots__ = ("rng", "perm", "pos")

    def __init__(self, rng):
        self.rng = rng
        self.perm = np.empty(0, dtype=np.intp)
        self.pos = 0


def draw_sample(sampler, N, batch):
    """The next `batch` indices of sampler's permutation of {0..N-1}, in
    ascending order; a new permutation starts when they do not fit in what
    is left of it.  batch == N gives {0..N-1} without touching the RNG."""
    if not 1 <= batch <= N:
        raise ValueError(f"batch must be in [1, {N}], got {batch}")
    if batch == N:
        return np.arange(N)
    pos = sampler.pos
    if pos + batch > sampler.perm.size:
        sampler.perm = sampler.rng.permutation(N)
        pos = 0
    sampler.pos = pos + batch
    idx = sampler.perm[pos:pos + batch]  # read by no later draw: no copy
    idx.sort()
    return idx


def _gaussian_matrix(rng, N, n):
    """rng.normal(size=(N, n)).  From 4 MiB up (where numpy starts to advise
    huge pages) it is drawn into an anonymous memory map of its own, whose
    pages go back to the system when the problem is freed: a freed malloc
    block that large stays in the heap, and whether the next one fits there
    or the process grows depends on what came in between."""
    if 8 * N * n < 1 << 22:
        return rng.normal(size=(N, n))
    buf = mmap.mmap(-1, 8 * N * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy advises its own large blocks
        buf.madvise(mmap.MADV_HUGEPAGE)
    A = np.ndarray((N, n), buffer=buf)
    rng.standard_normal(out=A)
    return A


def _check_generator(N, n, **scalars):
    """A generator's sizes, positive integers, and its scalars, finite."""
    _check_count("N", N, 1)
    _check_count("n", n, 1)
    for key, value in scalars.items():
        if not np.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")


def make_least_squares(rng, N, n, noise_sd=0.0):
    _check_generator(N, n, noise_sd=noise_sd)
    A = _gaussian_matrix(rng, N, n)
    x_true = rng.normal(size=n)
    b = A @ x_true + noise_sd * rng.normal(size=N)
    return LeastSquares(A, b, name=f"least_squares(N={N},n={n})")


def make_logistic(rng, N, n, separation=1.0):
    _check_generator(N, n, separation=separation)
    w = rng.normal(size=n)
    w /= np.linalg.norm(w)
    A = _gaussian_matrix(rng, N, n)
    y = np.where(A @ w >= 0.0, 1.0, -1.0)
    # push each class away from the separating hyperplane:
    # a_i += separation * y_i * w with y_i = +/-1, in place (no N x n temporary)
    shift = separation * w
    np.add(A, shift, out=A, where=(y > 0.0)[:, None])
    np.subtract(A, shift, out=A, where=(y < 0.0)[:, None])
    return Logistic(A, y, name=f"logistic(N={N},n={n})")


def make_tiny_mlp(rng, dataset, hidden, task="regression"):
    """A TinyMLP whose L_bound is drawn from rng's state now, on first read."""
    p = TinyMLP(dataset.features, dataset.targets, hidden, task=task)
    p._lipschitz_rng = rng.bit_generator.state  # a dict: equal states compare equal
    return p


@dataclass
class SparseRecoveryInstance:
    problem: LeastSquares
    true_support: np.ndarray   # sorted indices of nonzeros of x_star
    x_star: np.ndarray
    l0_lambda: float           # suggested penalty for hard-threshold recovery


def make_sparse_recovery(rng, N, n, support_size, noise_sd=0.0):
    """Planted sparse least-squares instance with ground truth.

    x_star has `support_size` nonzeros with magnitudes in [0.5, 2] and
    random signs; b = A x_star + noise.  l0_lambda is tuned so that the
    hard threshold sqrt(2 lam / sigma) at sigma ~ L separates the planted
    magnitudes from zero.
    """
    _check_generator(N, n, noise_sd=noise_sd)
    _check_count("support_size", support_size, 0)
    if support_size > n:
        raise ValueError(f"support_size {support_size} exceeds n {n}")
    A = _gaussian_matrix(rng, N, n)
    support = np.sort(rng.choice(n, size=support_size, replace=False))
    x_star = np.zeros(n)
    mags = rng.uniform(0.5, 2.0, size=support_size)
    signs = rng.choice((-1.0, 1.0), size=support_size)
    x_star[support] = signs * mags
    b = A @ x_star + noise_sd * rng.normal(size=N)
    p = LeastSquares(A, b, name=f"sparse_recovery(N={N},n={n},k={support_size})")
    # threshold tau = sqrt(2 lam / sigma) = 0.25 at sigma = L_bound
    tau = 0.25
    l0_lambda = 0.5 * tau**2 * p.L_bound
    return SparseRecoveryInstance(p, support, x_star, l0_lambda)


def _parse_float(tok, lineno):
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"not a number: {tok!r}", line=lineno) from None


def load_csv(path):
    """CSV with one sample per row, last column as target.  A header row is
    auto-detected by a non-numeric first field."""
    rows = []
    ncols = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            toks = line.split(",")
            if lineno == 1:
                try:
                    float(toks[0])
                except ValueError:
                    continue  # header
            if ncols is None:
                ncols = len(toks)
                if ncols < 2:
                    raise ParseError("need at least 2 columns", line=lineno)
            elif len(toks) != ncols:
                raise ParseError(
                    f"expected {ncols} columns, got {len(toks)}", line=lineno
                )
            rows.append([_parse_float(t, lineno) for t in toks])
    if not rows:
        raise ParseError("no data rows")
    data = np.array(rows)
    return Dataset(features=data[:, :-1], targets=data[:, -1])


def load_libsvm(path, n_features=None):
    """LIBSVM sparse text format: 'label idx:val ...' with 1-based indices."""
    labels = []
    entries = []  # list of dict {0-based idx: val}
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            toks = line.split()
            labels.append(_parse_float(toks[0], lineno))
            row = {}
            for tok in toks[1:]:
                if ":" not in tok:
                    raise ParseError(f"expected idx:val, got {tok!r}", line=lineno)
                idx_s, val_s = tok.split(":", 1)
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise ParseError(f"bad index {idx_s!r}", line=lineno) from None
                if idx < 1:
                    raise ParseError(f"indices are 1-based, got {idx}", line=lineno)
                row[idx - 1] = _parse_float(val_s, lineno)
                max_idx = max(max_idx, idx)
            entries.append(row)
    if not labels:
        raise ParseError("no data rows")
    d = n_features if n_features is not None else max_idx
    if max_idx > d:
        raise ParseError(f"index {max_idx} exceeds declared dimension {d}")
    X = np.zeros((len(labels), d))
    for i, row in enumerate(entries):
        for j, v in row.items():
            X[i, j] = v
    return Dataset(features=X, targets=np.array(labels))

