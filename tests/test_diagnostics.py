"""Pruning, sparsity reports, accuracy, stationarity surrogate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sr2kit.diagnostics import (
    DEFAULT_PRUNE_THRESHOLDS,
    accuracy,
    accuracy_of_margins,
    prune,
    sparsity_report,
    stationarity_surrogate,
)
from sr2kit.errors import UnsupportedMetricError
from sr2kit.problems import (
    LeastSquares,
    TinyMLP,
    make_least_squares,
    make_logistic,
)
from sr2kit.regularizers import L1, Zero, shifted_prox



class TestPrune:
    def test_basic(self):
        x_p, frac = prune([0.5, 1e-4, -2.0], 1e-3)
        np.testing.assert_array_equal(x_p, [0.5, 0.0, -2.0])
        assert frac == pytest.approx(1 / 3)

    def test_total_prune(self):
        x_p, frac = prune([0.5, -0.2], 1.0)
        np.testing.assert_array_equal(x_p, 0.0)
        assert frac == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        once, _ = prune(x, 0.3)
        twice, _ = prune(once, 0.3)
        np.testing.assert_array_equal(once, twice)

    def test_never_increases_nnz(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        for alpha in DEFAULT_PRUNE_THRESHOLDS:
            x_p, _ = prune(x, alpha)
            assert np.count_nonzero(x_p) <= np.count_nonzero(x)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            prune([1.0], 0.0)

    def test_default_sweep_is_ten_powers(self):
        assert DEFAULT_PRUNE_THRESHOLDS == tuple(10.0 ** -k for k in range(1, 9))


class TestSparsityReport:
    def test_counting(self):
        rep = sparsity_report([0.0, 0.5e-3, 2.0], thresholds=[1e-3])
        assert rep.pct_exact_zero == pytest.approx(100 / 3)
        assert rep.pct_below[1e-3] == pytest.approx(200 / 3)
        assert rep.nnz == 2

    def test_all_zero(self):
        rep = sparsity_report(np.zeros(5))
        assert rep.pct_exact_zero == 100.0
        assert all(v == 100.0 for v in rep.pct_below.values())

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=200) * 10.0 ** rng.integers(-8, 0, size=200)
        taus = [10.0 ** -k for k in range(8, 0, -1)]
        rep = sparsity_report(x, thresholds=taus)
        vals = [rep.pct_below[t] for t in taus]
        assert vals == sorted(vals)
        assert all(v >= rep.pct_exact_zero for v in vals)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            sparsity_report([1.0], thresholds=[-1.0])


class TestAccuracy:
    def test_separable_instance_perfect(self):
        rng = np.random.default_rng(3)
        p = make_logistic(rng, 200, 10, separation=3.0)
        # the generator's separating direction classifies everything
        w = p.A.T @ p.y  # crude but aligned with the true separator
        assert accuracy(p, w) == 100.0

    def test_constant_predictor_ties_to_plus_one(self):
        rng = np.random.default_rng(4)
        p = make_logistic(rng, 1000, 10)
        # x = 0: every margin is 0, sign(0) -> +1
        expected = 100.0 * np.mean(p.y == 1.0)
        assert accuracy(p, np.zeros(10)) == pytest.approx(expected)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        p = make_logistic(rng, 100, 8)
        x = rng.normal(size=8)
        assert accuracy(p, x) == accuracy(p, 7.3 * x)

    def test_regression_unsupported(self):
        rng = np.random.default_rng(6)
        p = make_least_squares(rng, 20, 4, 0.1)
        with pytest.raises(UnsupportedMetricError):
            accuracy(p, np.zeros(4))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "short"])
    def test_point_is_checked(self, kind, bad):
        # scoring checks x as every other public evaluation does: a NaN
        # margin is not >= 0, so it would score as a -1 prediction
        rng = np.random.default_rng(0)
        if kind == "logistic":
            p = make_logistic(rng, 200, 5)
        else:
            A = rng.normal(size=(50, 3))
            p = TinyMLP(A, np.where(A[:, 0] >= 0.0, 1.0, -1.0), hidden=2,
                        task="classification")
        x = {"nan": np.full(p.n, np.nan), "inf": np.full(p.n, np.inf),
             "short": np.zeros(p.n - 1)}[bad]
        with pytest.raises(ValueError, match="non-finite point|expected shape"):
            accuracy(p, x)
        with pytest.raises(ValueError, match="non-finite point|expected shape"):
            p.margins(x)


class TestStationaritySurrogate:
    def test_quadratic_exact_after_one_step(self):
        # f = 1/2||x||^2, sigma=1, Zero reg: s = -x, grad f(x+s) = 0 and
        # g + sigma s = 0, so the surrogate vanishes
        p = LeastSquares(np.eye(3), np.zeros(3))
        # scale: full_value = (1/2N)||x||^2; use sigma matching its curvature
        x = np.array([1.0, -2.0, 0.5])
        g = p.full_grad(x)
        sigma = 1.0 / 3.0  # curvature of (1/2N)||x||^2 with N = 3
        st = shifted_prox(Zero(), x, g, sigma)
        val = stationarity_surrogate(p, x, g, st.s, sigma)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        p = make_least_squares(rng, 30, 6, 0.2)
        x = rng.normal(size=6)
        g = p.full_grad(x)
        st = shifted_prox(L1(0.1), x, g, 2.0)
        assert stationarity_surrogate(p, x, g, st.s, 2.0) >= 0.0

    def test_small_at_lasso_optimum(self, lasso_instance):
        A, b, lam = lasso_instance["A"], lasso_instance["b"], lasso_instance["lam"]
        p = LeastSquares(A, b)
        x_ref = lasso_instance["x_ref"]
        g = p.full_grad(x_ref)
        sigma = p.L_bound
        st = shifted_prox(L1(lam), x_ref, g, sigma)
        assert stationarity_surrogate(p, x_ref, g, st.s, sigma) <= 1e-6


def test_pruning_at_tiny_threshold_preserves_accuracy():
    rng = np.random.default_rng(8)
    p = make_logistic(rng, 300, 12, separation=1.0)
    x = rng.normal(size=12)
    x_p, _ = prune(x, 1e-8)
    assert accuracy(p, x_p) == accuracy(p, x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300,
                                           -1e-300, np.inf, -np.inf, np.nan]),
                          st.sampled_from([1.0, -1.0])), min_size=1,
                max_size=200))
def test_accuracy_of_margins_is_the_mean_of_matches_bitwise(pairs):
    # an exact count over N is the add-reduce of 0/1 over N that np.mean
    # takes; sign(0) (and -0) counts as +1, a NaN margin as -1
    margins, labels = (np.array(column) for column in zip(*pairs))
    pred = np.where(margins >= 0.0, 1.0, -1.0)
    assert accuracy_of_margins(margins, labels) == 100.0 * float(
        np.mean(pred == labels))
