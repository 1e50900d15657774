"""Prox kernel certification against brute-force oracles."""

import numpy as np
import pytest

from sr2kit.errors import InfeasibleAnchorError
from sr2kit.regularizers import (
    L0,
    L1,
    L0Ball,
    Zero,
    reg_value,
    shifted_prox,
)

from conftest import l0ball_enumeration_oracle, prox_grid_oracle, scalar_value


def scalar_objective(reg, x, g, sigma, s):
    return g * s + 0.5 * sigma * s**2 + scalar_value(reg, x + s)


class TestRegValue:
    def test_l1(self):
        assert reg_value(L1(0.5), [1.0, -2.0, 0.0]) == pytest.approx(1.5)

    def test_l0(self):
        assert reg_value(L0(2.0), [0.0, 3.0, -1.0]) == pytest.approx(4.0)

    def test_l0ball_infeasible(self):
        assert reg_value(L0Ball(1), [1.0, 1.0, 0.0]) == np.inf

    def test_l0ball_feasible(self):
        assert reg_value(L0Ball(2), [1.0, 1.0, 0.0]) == 0.0

    def test_zero(self):
        assert reg_value(Zero(), [5.0, -5.0]) == 0.0

    def test_negative_lambda_rejected(self):
        # a non-finite lam is rejected as a negative one is
        for lam in (-0.1, np.nan, np.inf):
            for cls in (L1, L0):
                with pytest.raises(ValueError, match="lam must be nonnegative"):
                    cls(lam)
        with pytest.raises(ValueError):
            L0Ball(-1)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2.0), True, "2"],
                             ids=repr)
    def test_l0ball_k_not_an_integer_rejected(self, k):
        # a fractional k would fail only at the first prox step, as a slice
        # bound; a bool is not a count
        with pytest.raises(ValueError, match="k must be an integer"):
            L0Ball(k)

    def test_l0ball_numpy_integer_k_kept(self):
        assert L0Ball(np.int64(2)) == L0Ball(2)
        assert str(L0Ball(np.int32(2))) == "l0ball(k=2)"


class TestShiftedProxExamples:
    def test_l1_scalar(self):
        # soft threshold of u = 0.2 - 1.0 = -0.8 at tau = 0.5
        st = shifted_prox(L1(0.5), [0.2], [1.0], 1.0)
        assert st.s == pytest.approx([-0.5])
        # grid oracle certifies the same minimizer
        s_star = prox_grid_oracle(L1(0.5), 0.2, 1.0, 1.0, -5, 5, 1e-5)
        obj_prox = scalar_objective(L1(0.5), 0.2, 1.0, 1.0, st.s[0])
        obj_grid = scalar_objective(L1(0.5), 0.2, 1.0, 1.0, s_star)
        assert obj_prox <= obj_grid + 1e-6

    def test_zero_reg_is_gradient_step(self):
        rng = np.random.default_rng(1)
        x, g = rng.normal(size=8), rng.normal(size=8)
        st = shifted_prox(Zero(), x, g, 2.5)
        np.testing.assert_allclose(st.s, -g / 2.5)

    def test_l0_below_threshold_zeroes(self):
        # |0.8| < sqrt(2 * 0.5 / 1) = 1, so the coordinate is zeroed
        st = shifted_prox(L0(0.5), [0.8], [0.0], 1.0)
        assert st.s == pytest.approx([-0.8])
        s_star = prox_grid_oracle(L0(0.5), 0.8, 0.0, 1.0, -5, 5, 1e-5)
        assert s_star == pytest.approx(-0.8, abs=1e-5)

    def test_l0ball_keeps_largest(self):
        # same subproblem as the infeasible-anchor x=[3,1], g=0 case:
        # the minimizer depends only on u = x - g/sigma
        st = shifted_prox(L0Ball(1), [0.0, 0.0], [-3.0, -1.0], 1.0)
        np.testing.assert_allclose([0, 0] + st.s, [3.0, 0.0])

    def test_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            shifted_prox(L1(0.5), [0.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            shifted_prox(L1(0.5), [0.0], [1.0], -1.0)

    def test_infeasible_anchor(self):
        with pytest.raises(InfeasibleAnchorError):
            shifted_prox(L0Ball(1), [3.0, 1.0], [0.0, 0.0], 1.0)


class TestGridOracle:
    def test_zero_lambda_reduces_to_quadratic(self):
        s = prox_grid_oracle(L1(0.0), 0.0, 2.0, 1.0, -5, 5, 1e-5)
        assert s == pytest.approx(-2.0, abs=1e-5)

    def test_l1_example(self):
        s = prox_grid_oracle(L1(0.5), 0.2, 1.0, 1.0, -5, 5, 1e-5)
        assert s == pytest.approx(-0.5, abs=1e-5)

    def test_l0ball_unsupported(self):
        with pytest.raises(ValueError):
            prox_grid_oracle(L0Ball(1), 0.0, 1.0, 1.0, -5, 5, 1e-3)

    def test_bad_bounds_and_step(self):
        with pytest.raises(ValueError):
            prox_grid_oracle(L1(0.5), 0.0, 1.0, 1.0, 5, -5, 1e-3)
        with pytest.raises(ValueError):
            prox_grid_oracle(L1(0.5), 0.0, 1.0, 1.0, -5, 5, 0.0)


def random_scalar_instances(rng, count):
    lam = rng.uniform(0.0, 2.0, count)
    x = rng.uniform(-3.0, 3.0, count)
    g = rng.uniform(-3.0, 3.0, count)
    sigma = rng.uniform(0.1, 10.0, count)
    return lam, x, g, sigma


@pytest.mark.parametrize("variant", ["zero", "l1", "l0"])
def test_prox_beats_grid_oracle_randomized(variant):
    # the grid oracle's value is an upper bound on the true minimum, so
    # the exact prox objective must come in at or below it
    rng = np.random.default_rng({"zero": 21, "l1": 22, "l0": 23}[variant])
    lam, xs, gs, sigmas = random_scalar_instances(rng, 10_000)
    for i in range(10_000):
        reg = {"zero": Zero(), "l1": L1(lam[i]), "l0": L0(lam[i])}[variant]
        st = shifted_prox(reg, [xs[i]], [gs[i]], sigmas[i])
        s_grid = prox_grid_oracle(reg, xs[i], gs[i], sigmas[i], -5, 5, 1e-3)
        obj_prox = scalar_objective(reg, xs[i], gs[i], sigmas[i], st.s[0])
        obj_grid = scalar_objective(reg, xs[i], gs[i], sigmas[i], s_grid)
        assert obj_prox <= obj_grid + 1e-6


def test_l0ball_matches_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(0, min(n, 6) + 1))
        g = rng.normal(size=n)
        x = np.zeros(n)
        sigma = float(rng.uniform(0.1, 10.0))
        st = shifted_prox(L0Ball(k), x, g, sigma)
        _, best_obj = l0ball_enumeration_oracle(k, x, g, sigma)
        obj = float(g @ st.s) + 0.5 * sigma * float(st.s @ st.s)
        assert obj <= best_obj + 1e-10


def test_model_decrease_bound():
    # R(x) - g's - R(x+s) >= (sigma/2)||s||^2 at any subproblem minimizer
    rng = np.random.default_rng(3)
    regs = [Zero(), L1(0.7), L0(0.4), L0Ball(3)]
    for _ in range(500):
        n = 6
        x = rng.normal(size=n)
        g = rng.normal(size=n)
        sigma = float(rng.uniform(0.1, 10.0))
        for reg in regs:
            if isinstance(reg, L0Ball):
                x_use = np.where(np.arange(n) < reg.k, x, 0.0)
            else:
                x_use = x
            st = shifted_prox(reg, x_use, g, sigma)
            lhs = st.model_decrease
            assert lhs >= 0.5 * sigma * float(st.s @ st.s) - 1e-12


def test_zero_step_zero_decrease():
    st = shifted_prox(L1(5.0), [0.0, 0.0], [0.1, -0.1], 1.0)
    np.testing.assert_array_equal(st.s, 0.0)
    assert st.model_decrease == 0.0


def test_soft_threshold_shrinkage():
    rng = np.random.default_rng(4)
    for _ in range(200):
        x, g = rng.normal(size=5), rng.normal(size=5)
        sigma = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(0.0, 2.0))
        st = shifted_prox(L1(lam), x, g, sigma)
        u = x - g / sigma
        assert np.all(np.abs(x + st.s) <= np.abs(u) + 1e-15)


def test_hard_threshold_dichotomy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, g = rng.normal(size=5), rng.normal(size=5)
        sigma = float(rng.uniform(0.1, 10.0))
        st = shifted_prox(L0(0.5), x, g, sigma)
        u = x - g / sigma
        w = x + st.s
        assert np.all((w == 0.0) | (w == u))


def test_l0_tie_break_prefers_zero():
    # |u| exactly at sqrt(2 lam / sigma): both 0 and u attain the same
    # objective; the sparser choice wins
    lam, sigma = 0.5, 1.0
    u = np.sqrt(2 * lam / sigma)
    st = shifted_prox(L0(lam), [u], [0.0], sigma)
    assert (np.array([u]) + st.s)[0] == 0.0


def test_l0ball_tie_break_lowest_index():
    st = shifted_prox(L0Ball(1), [0.0, 0.0], [-2.0, -2.0], 1.0)
    np.testing.assert_allclose(st.s, [2.0, 0.0])


def test_soft_threshold_at_exact_zero():
    st = shifted_prox(L1(1.0), [0.0], [0.0], 1.0)
    assert st.s[0] == 0.0


def test_l1_lambda_to_zero_continuity():
    rng = np.random.default_rng(6)
    x, g = rng.normal(size=4), rng.normal(size=4)
    sigma = 2.0
    base = shifted_prox(Zero(), x, g, sigma).s
    for lam in (1e-2, 1e-4, 1e-8):
        s = shifted_prox(L1(lam), x, g, sigma).s
        # soft threshold moves each coordinate by at most lam/sigma
        assert np.max(np.abs(s - base)) <= lam / sigma + 1e-15


def test_l0ball_k_geq_n_is_identity():
    rng = np.random.default_rng(7)
    x, g = rng.normal(size=3), rng.normal(size=3)
    st = shifted_prox(L0Ball(5), x, g, 1.0)
    np.testing.assert_allclose(st.s, -g / 1.0)
