"""Baseline proximal solvers: reductions, equivalences, contrast properties."""

import numpy as np
import pytest

from sr2kit.baselines import (
    BaselineConfig,
    proxgen_step,
    proxsgd_step,
    run_proxgen,
    run_proxsgd,
)
from sr2kit.errors import UnsupportedRegularizerError
from sr2kit.problems import Sampler, draw_sample, make_least_squares
from sr2kit.regularizers import L0, L1, L0Ball, Zero, shifted_prox

from conftest import lasso_objective


def sampled_grad(p, x, seed, batch):
    """The gradient at x on the first batch a fresh Sampler(seed) draws."""
    return p.sampled_grad(
        x, draw_sample(Sampler(np.random.default_rng(seed)), p.N, batch))


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(20)
    return make_least_squares(rng, 30, 6, 0.2)


class TestProxGen:
    def test_zero_reg_is_plain_sg_bitwise(self, small_problem):
        p = small_problem
        alpha = 0.0625  # power of two so 1/alpha and g/(1/alpha) are exact
        x = np.zeros(6)
        g = sampled_grad(p, x, 1, 8)
        x_new, _ = proxgen_step(Zero(), x, g, alpha)
        expected = x - alpha * g
        np.testing.assert_array_equal(x_new, expected)

    def test_is_shifted_prox_at_inverse_alpha(self, small_problem):
        p = small_problem
        alpha, x = 0.1, np.ones(6)
        g = sampled_grad(p, x, 2, 8)
        x_new, _ = proxgen_step(L1(0.3), x, g, alpha)
        st = shifted_prox(L1(0.3), x, g, 1.0 / alpha)
        np.testing.assert_array_equal(x_new, x + st.s)

    def test_ista_fixed_point(self, lasso_instance):
        # full batch + L1 + alpha = 1/L: this IS ISTA, so it must land on
        # the reference solution's objective
        A, b, lam = lasso_instance["A"], lasso_instance["b"], lasso_instance["lam"]
        from sr2kit.problems import LeastSquares
        p = LeastSquares(A, b)
        cfg = BaselineConfig(alpha=1.0 / p.L_bound, batch_size=p.N,
                             max_iter=4000, seed=0)
        res = run_proxgen(p, L1(lam), np.zeros(p.n), cfg)
        F = lasso_objective(A, b, lam, res.x)
        assert F <= lasso_instance["F_ref"] + 1e-6

    def test_nonpositive_alpha(self, small_problem):
        with pytest.raises(ValueError):
            proxgen_step(Zero(), np.zeros(6),
                         sampled_grad(small_problem, np.zeros(6), 0, 4), 0.0)


class TestProxSGD:
    def test_zero_reg_is_plain_sg(self, small_problem):
        p = small_problem
        alpha, x = 0.25, np.zeros(6)
        g = sampled_grad(p, x, 3, 8)
        x_new, _ = proxsgd_step(Zero(), x, g, alpha)
        expected = x - alpha * g
        np.testing.assert_allclose(x_new, expected)

    def test_nonconvex_rejected(self, small_problem):
        with pytest.raises(UnsupportedRegularizerError):
            proxsgd_step(L0(0.5), np.zeros(6),
                         sampled_grad(small_problem, np.zeros(6), 0, 4), 0.5)
        with pytest.raises(UnsupportedRegularizerError):
            run_proxsgd(small_problem, L0Ball(2), np.zeros(6),
                        BaselineConfig(alpha=0.5))

    def test_alpha_one_matches_proxgen(self, small_problem):
        p = small_problem
        x = 0.3 * np.ones(6)
        g = sampled_grad(p, x, 4, 8)
        a, _ = proxsgd_step(L1(0.2), x, g, 1.0)
        b, _ = proxgen_step(L1(0.2), x, g, 1.0)
        np.testing.assert_allclose(a, b)

    def test_alpha_range(self, small_problem):
        with pytest.raises(ValueError):
            proxsgd_step(L1(0.1), np.zeros(6),
                         sampled_grad(small_problem, np.zeros(6), 0, 4), 1.5)

    def test_l1_output_feasible_and_prox_certified(self, small_problem):
        p = small_problem
        x = np.ones(6)
        x_new, step = proxsgd_step(L1(0.2), x, sampled_grad(p, x, 5, 8), 0.5)
        assert np.isfinite(x_new).all()
        # the intermediate subproblem solution satisfies the model-decrease
        # certificate at sigma = 1
        assert step.model_decrease >= 0.5 * float(step.s @ step.s) - 1e-12


class TestContrastWithSR2:
    def test_baselines_accept_everything(self, small_problem):
        p = small_problem
        cfg = BaselineConfig(alpha=0.01, batch_size=8, max_iter=50, seed=6)
        for runner in (run_proxgen,):
            res = runner(p, L1(0.1), np.zeros(6), cfg)
            assert all(r.accepted for r in res.trace)
            assert all(r.batch_size == 8 for r in res.trace)
        res = run_proxsgd(p, L1(0.1), np.zeros(6), cfg)
        assert all(r.accepted for r in res.trace)

    def test_inverse_sqrt_schedule(self):
        cfg = BaselineConfig(alpha=0.4, schedule="inverse-sqrt")
        assert cfg.step_size(1) == pytest.approx(0.4)
        assert cfg.step_size(4) == pytest.approx(0.2)

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            BaselineConfig(schedule="linear")
