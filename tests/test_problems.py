"""Finite-sum problems: analytic gradients, sampling, generators, I/O."""

import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sr2kit import problems
from sr2kit.errors import ParseError
from sr2kit.problems import (
    ALL,
    Dataset,
    LeastSquares,
    Logistic,
    Sampler,
    TinyMLP,
    draw_sample,
    load_csv,
    load_libsvm,
    make_least_squares,
    make_logistic,
    make_sparse_recovery,
    make_tiny_mlp,
)

from conftest import check_gradient


KINDS = st.sampled_from(["least_squares", "logistic", "mlp_regression",
                         "mlp_classification"])
LAYOUTS = st.sampled_from(["C", "F", "strided"])


def build_problem(kind, N, n, layout, rng):
    """A random problem of the given kind on an N x n matrix stored in the
    given layout."""
    data = rng.normal(size=(N, n + 1))
    A = {"C": np.ascontiguousarray(data[:, :n]),
         "F": np.asfortranarray(data[:, :n]),
         "strided": data[:, :n]}[layout]
    y = np.where(rng.normal(size=N) >= 0.0, 1.0, -1.0)
    if kind == "least_squares":
        return LeastSquares(A, rng.normal(size=N))
    if kind == "logistic":
        return Logistic(A, y)
    task = kind.removeprefix("mlp_")
    targets = y if task == "classification" else rng.normal(size=N)
    return TinyMLP(A, targets, hidden=int(rng.integers(1, 5)), task=task)


def _sigmoid(t):
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=0, max_size=40))
def test_sigmoid_matches_masked_formula_bitwise(values):
    # the package computes both branches from e^-|t|; per element the
    # operations are those of the two-branch formula, so the bits agree
    # at any position in the array (vector body or tail)
    t = np.array(values, dtype=float)
    assert problems._sigmoid(t).tobytes() == _sigmoid(t).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=300))
def test_sum_over_size_is_mean_bitwise(values):
    # Sample.value_of divides the sum of the terms by their count: np.mean
    # is the same reduction followed by the same division
    terms = np.array(values, dtype=float)
    with np.errstate(all="ignore"):
        assert (np.float64(terms.sum() / terms.size).tobytes()
                == np.mean(terms).tobytes())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 12),
       st.floats(-4.0, 4.0))
def test_make_logistic_matches_outer_product_formula_bitwise(seed, N, n, sep):
    # make_logistic shifts the rows in place; with y = +/-1 that is the
    # same arithmetic as adding separation * outer(y, w)
    A, y = logistic_by_outer_product(seed, N, n, sep)
    p = make_logistic(np.random.default_rng(seed), N, n, separation=sep)
    assert p.A.tobytes() == A.tobytes()
    assert p.y.tobytes() == y.tobytes()


def logistic_by_outer_product(seed, N, n, sep=1.0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)
    w /= np.linalg.norm(w)
    A = rng.normal(size=(N, n))
    y = np.where(A @ w >= 0.0, 1.0, -1.0)
    return A + sep * np.outer(y, w), y


@pytest.mark.parametrize("N, n", [(1, 1), (37, 5), (4095, 128), (4096, 128)])
def test_generated_design_is_rng_normal(N, n):
    # from 4 MiB (4096 x 128) up the design is drawn in place into a private
    # anonymous map, so freeing a problem returns its pages; either way the
    # draws are those of rng.normal
    A = np.random.default_rng(N).normal(size=(N, n))
    mapped = 8 * N * n >= 1 << 22
    for make, args in ((make_least_squares, ()), (make_sparse_recovery, (1,))):
        p = make(np.random.default_rng(N), N, n, *args)
        p = getattr(p, "problem", p)
        assert p.A.tobytes() == A.tobytes()
        assert isinstance(p.A.base, mmap.mmap) == mapped
    p = make_logistic(np.random.default_rng(N), N, n)
    assert p.A.tobytes() == logistic_by_outer_product(N, N, n)[0].tobytes()
    assert isinstance(p.A.base, mmap.mmap) == mapped and p.A.flags.c_contiguous


def explicit_value_and_grad(p, x, idx):
    """Mean loss and gradient on the sorted idx, each from its own forward
    pass, with every operation spelled out."""
    A = p.A[idx]
    if isinstance(p, LeastSquares):
        value = np.mean(0.5 * (A @ x - p.y[idx]) ** 2)
        grad = (A.T @ (A @ x - p.y[idx])) / A.shape[0]
    elif isinstance(p, Logistic):
        y = p.y[idx]
        value = np.mean(np.logaddexp(0.0, -(y * (A @ x))))
        grad = (A.T @ (-y * _sigmoid(-(y * (A @ x))))) / A.shape[0]
    else:
        h, d, y, m = p.h, p.d, p.y[idx], A.shape[0]
        W1, b1 = x[: h * d].reshape(h, d), x[h * d: h * d + h]
        w2, b2 = x[h * d + h: h * d + 2 * h], x[-1]
        T = np.tanh(A @ W1.T + b1)
        out = T @ w2 + b2
        if p.task == "regression":
            value = np.mean(0.5 * (out - y) ** 2)
            dout = out - y
        else:
            value = np.mean(np.logaddexp(0.0, -y * out))
            dout = -y * _sigmoid(-y * out)
        dT = np.outer(dout, w2) * (1.0 - T**2)
        grad = np.concatenate([(dT.T @ A / m).ravel(), np.sum(dT, axis=0) / m,
                               T.T @ dout / m, [np.sum(dout) / m]])
    return float(value), grad


class TestLeastSquares:
    def test_identity_design(self):
        p = LeastSquares(np.eye(2), np.zeros(2))
        assert p.full_value([3.0, 4.0]) == pytest.approx(6.25)
        np.testing.assert_allclose(p.full_grad([3.0, 4.0]), [1.5, 2.0])

    def test_single_term(self):
        p = LeastSquares(np.eye(2), np.zeros(2))
        assert p.sampled_value([3.0, 4.0], [0]) == pytest.approx(4.5)
        np.testing.assert_allclose(p.sampled_grad([3.0, 4.0], [0]), [3.0, 0.0])

    def test_full_value_is_mean_of_terms(self):
        rng = np.random.default_rng(0)
        p = make_least_squares(rng, 30, 5, 0.2)
        x = rng.normal(size=5)
        per_term = [p.sampled_value(x, [i]) for i in range(p.N)]
        assert p.full_value(x) == pytest.approx(np.mean(per_term), rel=1e-10)

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError):
            LeastSquares(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("make", [
        lambda y: LeastSquares(np.eye(3), y),
        lambda y: Logistic(np.eye(3), y),
        lambda y: TinyMLP(np.eye(3), y, hidden=2)],
        ids=["least_squares", "logistic", "mlp"])
    @pytest.mark.parametrize("y", [np.ones(2), np.ones((3, 1)), 1.0],
                             ids=["short", "column", "scalar"])
    def test_targets_not_one_per_row_rejected(self, make, y):
        # Problem checks y when it is built, not at the first evaluation
        with pytest.raises(ValueError, match="expected 3 targets"):
            make(y)

    def test_nonfinite_point_rejected(self):
        p = LeastSquares(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            p.full_value([np.nan, 0.0])


class TestLogistic:
    def test_value_at_zero_is_ln2(self):
        rng = np.random.default_rng(1)
        p = make_logistic(rng, 40, 6)
        assert p.full_value(np.zeros(6)) == pytest.approx(np.log(2.0))

    def test_grad_at_zero(self):
        rng = np.random.default_rng(2)
        p = make_logistic(rng, 40, 6)
        expected = -(p.A.T @ p.y) / (2.0 * p.N)
        np.testing.assert_allclose(p.full_grad(np.zeros(6)), expected)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            Logistic(np.eye(2), np.array([1.0, 2.0]))


# draw_sample's random reshuffling is checked below on its own: the golden
# traces replay it through the same sampler, so they cannot catch a fault
# in it


@st.composite
def draw_plans(draw):
    """N, a seed and the batch size of each draw: a fixed batch that may
    double from some draw on (capped at N), as the assumption guard does."""
    N = draw(st.integers(1, 120))
    batch = draw(st.integers(1, N))
    count = draw(st.integers(1, 60))
    double_at = draw(st.none() | st.integers(0, count - 1))
    sizes = [batch if double_at is None or k < double_at else min(2 * batch, N)
             for k in range(count)]
    return N, draw(st.integers(0, 2**32 - 1)), sizes


def replay(N, seed, sizes):
    """A copy of each draw of one sampler at the given batch sizes, and the
    permutation it was cut from (None for a batch of N, which has none)."""
    sampler = Sampler(np.random.default_rng(seed))
    draws = []
    for batch in sizes:
        idx = draw_sample(sampler, N, batch).copy()
        draws.append((idx, None if batch == N else sampler.perm))
    return draws


class TestSampling:
    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 120), data=st.data())
    def test_full_batch_is_everything(self, N, data):
        # {0..N-1}, and the RNG untouched: from the start, or once a
        # doubled batch has reached N
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sampler = Sampler(rng)
        minibatches = (data.draw(st.lists(st.integers(1, N - 1), max_size=5))
                       if N > 1 else [])
        for batch in minibatches:
            draw_sample(sampler, N, batch)
        snapshot = rng.bit_generator.state
        for _ in range(3):
            np.testing.assert_array_equal(draw_sample(sampler, N, N),
                                          np.arange(N))
        assert rng.bit_generator.state == snapshot

    @settings(max_examples=60, deadline=None)
    @given(draw_plans())
    def test_deterministic_given_seed(self, plan):
        N, seed, sizes = plan
        for (a, _), (b, _) in zip(replay(N, seed, sizes),
                                  replay(N, seed, sizes)):
            assert a.tobytes() == b.tobytes()

    def test_batch_out_of_range(self):
        sampler = Sampler(np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw_sample(sampler, 10, 0)
        with pytest.raises(ValueError):
            draw_sample(sampler, 10, 11)

    def test_uniform_frequency(self):
        # 60,000 single-index draws from 6 are 10,000 permutations: each
        # index is drawn once per permutation, and first in ~Binomial(10000,
        # 1/6) of them, 3 sigma ~ 112; the tolerance 200 is beyond that
        sampler = Sampler(np.random.default_rng(11))
        counts = np.zeros(6, dtype=int)
        first = np.zeros(6, dtype=int)
        for k in range(60_000):
            i = draw_sample(sampler, 6, 1)[0]
            counts[i] += 1
            first[i] += k % 6 == 0
        assert np.all(counts == 10_000)
        assert np.all(np.abs(first - 10_000 / 6) <= 200)

    @settings(max_examples=60, deadline=None)
    @given(kind=KINDS, N=st.integers(1, 40), n=st.integers(1, 8),
           layout=LAYOUTS, seed=st.integers(0, 2**32 - 1))
    def test_full_batch_degeneracy_bitwise(self, kind, N, n, layout, seed):
        # the full oracles read the data in place; the sampled ones on
        # {0..N-1} copy it.  Both must give the same bits for any layout
        # of the input matrix.
        rng = np.random.default_rng(seed)
        p = build_problem(kind, N, n, layout, rng)
        x = rng.normal(size=p.n)
        everything = np.arange(N)
        assert p.full_value(x) == p.sampled_value(x, everything)
        assert np.array_equal(p.full_grad(x), p.sampled_grad(x, everything))

    @settings(max_examples=80, deadline=None)
    @given(kind=KINDS, N=st.integers(1, 40), n=st.integers(1, 8),
           layout=LAYOUTS, seed=st.integers(0, 2**32 - 1),
           shuffle=st.booleans())
    def test_sample_matches_public_oracles_bitwise(self, kind, N, n, layout,
                                                    seed, shuffle):
        # one forward pass for value and gradient gives the bits of the
        # separate checked oracles, and of the per-problem formulas written
        # out below, for sorted and unsorted index sets
        rng = np.random.default_rng(seed)
        p = build_problem(kind, N, n, layout, rng)
        x = rng.normal(size=p.n)
        idx = np.sort(rng.choice(N, size=int(rng.integers(1, N + 1)),
                                 replace=False))
        if shuffle:
            idx = rng.permutation(idx)
        f, g = p.sample(idx)._value_and_grad(x)
        assert f == p.sampled_value(x, idx) == p.sample(idx).value(x)
        assert g.tobytes() == p.sampled_grad(x, idx).tobytes()
        f_ref, g_ref = explicit_value_and_grad(p, x, np.sort(idx))
        assert f == f_ref
        assert g.tobytes() == g_ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(draw_plans())
    def test_draw_sample_sorted_unique_in_range(self, plan):
        # every draw of a run, also after the batch doubles
        N, seed, sizes = plan
        for (idx, _), batch in zip(replay(N, seed, sizes), sizes):
            assert idx.shape == (batch,)
            assert np.all(np.diff(idx) > 0)  # sorted and unique
            assert idx[0] >= 0 and idx[-1] < N

    @settings(max_examples=150, deadline=None)
    @given(draw_plans())
    def test_batches_cut_one_permutation_until_one_does_not_fit(self, plan):
        N, seed, sizes = plan
        rng = np.random.default_rng(seed)  # draws the same permutations
        last, used = None, 0
        for (idx, cut_from), batch in zip(replay(N, seed, sizes), sizes):
            if cut_from is None:
                np.testing.assert_array_equal(idx, np.arange(N))
                continue
            # a new permutation starts at the first draw and exactly when
            # the batch does not fit in what is left of the last one
            assert (cut_from is not last) == (last is None or used + batch > N)
            if cut_from is not last:
                perm, last = rng.permutation(N), cut_from
                used, taken = 0, set()
            # the batch is the permutation's next `batch` entries, sorted
            # (the rest of the last one is skipped), disjoint from the
            # batches cut from it before
            np.testing.assert_array_equal(idx,
                                          np.sort(perm[used:used + batch]))
            assert taken.isdisjoint(idx.tolist())
            taken.update(idx.tolist())
            used += batch

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(2, 120), data=st.data())
    def test_fixed_batch_serves_n_over_batch_per_permutation(self, N, data):
        batch = data.draw(st.integers(1, N - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        per_perm = N // batch
        draws = replay(N, seed, [batch] * (3 * per_perm + 1))
        perms = [perm for _, perm in draws]
        for k in range(3):
            run = perms[k * per_perm:(k + 1) * per_perm]
            assert all(perm is run[0] for perm in run)
            assert perms[(k + 1) * per_perm] is not run[0]

    @pytest.mark.parametrize("idx", [[], [3], [-1], [0, 2, 0], [0.9, 2.7],
                                     np.array([False, True])])
    def test_sample_rejects_bad_index_sets(self, idx):
        p = LeastSquares(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            p.sample(idx)
        with pytest.raises(ValueError):
            p.sampled_value(np.zeros(3), idx)
        with pytest.raises(ValueError):
            p.sampled_grad(np.zeros(3), idx)

    def test_sample_checks_point_every_call(self):
        p = LeastSquares(np.eye(3), np.zeros(3))
        for sample in (p.sample([0, 2]), p.sample(ALL)):
            for bad in ([np.nan, 0.0, 0.0], np.zeros(2)):
                with pytest.raises(ValueError):
                    sample.value(bad)
                with pytest.raises(ValueError):
                    sample.grad(bad)

    def test_full_sample_reads_data_in_place(self):
        p = make_logistic(np.random.default_rng(3), 20, 4)
        A_all, y_all = p.sample(ALL).rows
        assert np.shares_memory(A_all, p.A) and np.shares_memory(y_all, p.y)
        A_i, _ = p.sample([1, 5]).rows
        assert not np.shares_memory(A_i, p.A)

    def test_sampled_grad_unbiased(self):
        # the mean over single-index draws (500 permutations of the 20
        # samples) is the full gradient within 3 standard errors per
        # coordinate
        rng = np.random.default_rng(5)
        p = make_least_squares(rng, 20, 4, 0.3)
        x = rng.normal(size=4)
        draws = 10_000
        grads = np.empty((draws, 4))
        sampler = Sampler(rng)
        for i in range(draws):
            grads[i] = p.sampled_grad(x, draw_sample(sampler, p.N, 1))
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean - p.full_grad(x)) <= 3.0 * se + 1e-12)

    def test_empty_and_duplicate_rejected(self):
        p = LeastSquares(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            p.sampled_value(np.zeros(3), [])
        with pytest.raises(ValueError):
            p.sampled_grad(np.zeros(3), [0, 0])
        with pytest.raises(ValueError):
            p.sampled_grad(np.zeros(3), [3])


@pytest.mark.parametrize("maker,kwargs", [
    (make_least_squares, {"N": 30, "n": 8, "noise_sd": 0.2}),
    (make_logistic, {"N": 30, "n": 8}),
])
def test_gradient_certification(maker, kwargs):
    rng = np.random.default_rng(13)
    p = maker(rng, **kwargs)
    for _ in range(20):
        ok, err = check_gradient(p, rng.normal(size=p.n))
        assert ok, f"finite-difference mismatch {err:g}"


def test_mlp_gradient_certification():
    rng = np.random.default_rng(14)
    ds = Dataset(rng.normal(size=(25, 3)), rng.normal(size=25))
    p = make_tiny_mlp(rng, ds, hidden=4)
    for _ in range(20):
        ok, err = check_gradient(p, 0.5 * rng.normal(size=p.n))
        assert ok, f"finite-difference mismatch {err:g}"


def test_mlp_classification_gradient():
    rng = np.random.default_rng(15)
    y = rng.choice([-1.0, 1.0], size=25)
    ds = Dataset(rng.normal(size=(25, 3)), y)
    p = make_tiny_mlp(rng, ds, hidden=4, task="classification")
    ok, err = check_gradient(p, 0.5 * rng.normal(size=p.n))
    assert ok, f"finite-difference mismatch {err:g}"


@pytest.mark.parametrize("maker,kwargs", [
    (make_least_squares, {"N": 40, "n": 10, "noise_sd": 0.1}),
    (make_logistic, {"N": 40, "n": 10}),
])
def test_lipschitz_bound_on_random_pairs(maker, kwargs):
    rng = np.random.default_rng(17)
    p = maker(rng, **kwargs)
    for _ in range(1000):
        x = rng.normal(size=p.n)
        y = rng.normal(size=p.n)
        lhs = np.linalg.norm(p.full_grad(x) - p.full_grad(y))
        assert lhs <= p.L_bound * np.linalg.norm(x - y) * (1 + 1e-8)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["least_squares", "logistic"]),
       N=st.integers(1, 40), n=st.integers(1, 8), layout=LAYOUTS,
       seed=st.integers(0, 2**32 - 1))
def test_lipschitz_bound_depends_only_on_the_data(kind, N, n, layout, seed):
    # L is computed from the stored C-ordered A: every layout of one matrix
    # gives the bits of C order, which are those of the Gram eigensolve on it
    p = build_problem(kind, N, n, layout, np.random.default_rng(seed))
    c = build_problem(kind, N, n, "C", np.random.default_rng(seed))
    assert p.L_bound.hex() == c.L_bound.hex()
    scale = 1.0 if kind == "least_squares" else 4.0
    assert c.L_bound.hex() == (problems._gram_lmax(c.A) / (scale * N)).hex()


def rank_one_problem():
    rng = np.random.default_rng(5)
    return LeastSquares(np.outer(rng.normal(size=50), rng.normal(size=8)),
                        np.zeros(50))


LIPSCHITZ_DESIGNS = {
    # two of criterion 3's designs, whose top two eigenvalues are close
    "least_squares_200x50_seed2": lambda: make_least_squares(
        np.random.default_rng(2), 200, 50, 0.2),
    "least_squares_200x50_seed4": lambda: make_least_squares(
        np.random.default_rng(4), 200, 50, 0.2),
    "criterion5_400x100": lambda: LeastSquares(
        np.random.default_rng(42).normal(size=(400, 100)), np.zeros(400)),
    "wide_30x80": lambda: make_least_squares(np.random.default_rng(3), 30, 80),
    "rank_one_50x8": rank_one_problem,
    "logistic_2000x50": lambda: make_logistic(
        np.random.default_rng(7), 2000, 50),
}


@pytest.mark.parametrize("design", LIPSCHITZ_DESIGNS)
def test_lipschitz_bound_bounds_the_top_eigenvalue(design):
    # the reference is an SVD of A, which does not form a Gram matrix: L
    # is at least lambda_max(A^T A) / (scale N), and above it by no more
    # than its 1e-8 inflation and the rounding of both sides
    p = LIPSCHITZ_DESIGNS[design]()
    scale = 4.0 if isinstance(p, Logistic) else 1.0
    ref = np.linalg.norm(p.A, 2) ** 2
    assert ref <= scale * p.N * p.L_bound <= ref * (1 + 1e-7)


class TestSparseRecovery:
    def test_planted_solution_interpolates(self):
        rng = np.random.default_rng(21)
        inst = make_sparse_recovery(rng, 80, 20, 5, noise_sd=0.0)
        assert inst.problem.full_value(inst.x_star) == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(
            inst.problem.full_grad(inst.x_star), 0.0, atol=1e-12
        )

    def test_support_size(self):
        rng = np.random.default_rng(22)
        inst = make_sparse_recovery(rng, 80, 20, 5, noise_sd=0.0)
        assert np.count_nonzero(inst.x_star) == 5
        np.testing.assert_array_equal(np.flatnonzero(inst.x_star),
                                      inst.true_support)
        assert np.all(np.abs(inst.x_star[inst.true_support]) >= 0.5)
        assert np.all(np.abs(inst.x_star[inst.true_support]) <= 2.0)

    def test_support_too_large(self):
        with pytest.raises(ValueError):
            make_sparse_recovery(np.random.default_rng(0), 10, 5, 6, 0.0)


class TestLoaders:
    def test_csv_basic(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,3\n4,5,6\n")
        ds = load_csv(f)
        np.testing.assert_array_equal(ds.features, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(ds.targets, [3, 6])

    def test_csv_header_autodetect(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,y\n1,2,3\n")
        ds = load_csv(f)
        np.testing.assert_array_equal(ds.features, [[1, 2]])

    def test_csv_bad_line_carries_number(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(ParseError) as exc:
            load_csv(f)
        assert exc.value.line == 2

    def test_csv_inconsistent_columns(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError):
            load_csv(f)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        f = tmp_path / "rt.csv"
        lines = [",".join(repr(float(v)) for v in (*row, t))
                 for row, t in zip(X, y)]
        f.write_text("\n".join(lines) + "\n")
        ds = load_csv(f)
        np.testing.assert_array_equal(ds.features, X)
        np.testing.assert_array_equal(ds.targets, y)

    def test_libsvm_basic(self, tmp_path):
        f = tmp_path / "d.svm"
        f.write_text("+1 1:0.5 3:2\n")
        ds = load_libsvm(f, n_features=3)
        np.testing.assert_array_equal(ds.features, [[0.5, 0, 2]])
        np.testing.assert_array_equal(ds.targets, [1])

    def test_libsvm_malformed(self, tmp_path):
        f = tmp_path / "d.svm"
        f.write_text("+1 1:0.5\n-1 oops\n")
        with pytest.raises(ParseError) as exc:
            load_libsvm(f)
        assert exc.value.line == 2

    def test_libsvm_zero_index(self, tmp_path):
        f = tmp_path / "d.svm"
        f.write_text("+1 0:0.5\n")
        with pytest.raises(ParseError):
            load_libsvm(f)

    def test_dataset_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_dataset_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.zeros(1))
