"""Objective suites: constants, gradient oracles, reference solves."""

import dataclasses

import numpy as np
import pytest

from digrate import harness, objectives
from digrate.objectives import (block_gradient, check_gradients, huber_value,
                                huber_regression_suite, quadratic_suite,
                                solve_reference, zero_suite)


class TestQuadraticSuite:
    def test_two_agent_average(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.array([1.0, 1.0]))
        assert suite.x_star == pytest.approx([1.0])

    def test_weighted_mean(self):
        suite = quadratic_suite(np.array([[0.0], [3.0], [6.0]]),
                                np.array([1.0, 2.0, 1.0]))
        assert suite.x_star == pytest.approx([3.0])

    def test_gradient_vanishes_at_target(self):
        suite = quadratic_suite(np.array([[1.0, -2.0], [0.5, 0.0]]),
                                np.array([2.0, 3.0]))
        for i, c in enumerate(suite.components):
            assert np.allclose(c.grad(suite.data["targets"][i]), 0.0)

    def test_constants(self):
        suite = quadratic_suite(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert suite.L == 3.0
        assert suite.L_bar == pytest.approx(2.0)
        assert suite.mu_bar == pytest.approx(2.0)
        assert suite.mu_hat == 3.0
        assert suite.kappa_bar == pytest.approx(1.5)
        assert suite.kappa_bar >= 1.0

    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(ValueError):
            quadratic_suite(np.zeros((2, 1)), np.array([1.0, 0.0]))

    def test_block_gradient_linear(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.array([1.0, 1.0]))
        x = np.array([[1.0], [1.0]])
        assert np.allclose(block_gradient(suite, x), [[1.0], [-1.0]])
        # exact linearity in the block argument
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 2, 1))
        lhs = block_gradient(suite, a + b) + block_gradient(suite, np.zeros((2, 1)))
        rhs = block_gradient(suite, a) + block_gradient(suite, b)
        assert np.allclose(lhs, rhs, atol=1e-14)


class TestBlockGradient:
    def test_zero_at_targets(self):
        targets = np.array([[1.0, 0.0], [2.0, -1.0]])
        suite = quadratic_suite(targets, np.array([1.0, 2.0]))
        assert np.allclose(block_gradient(suite, targets), 0.0)

    def test_single_agent(self):
        suite = quadratic_suite(np.array([[3.0]]), np.array([2.0]))
        assert np.allclose(block_gradient(suite, np.array([[4.0]])), [[2.0]])

    def test_dimension_mismatch(self):
        suite = quadratic_suite(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            block_gradient(suite, np.zeros((3, 2)))


class TestHuber:
    def test_values_and_continuity(self):
        assert huber_value(1, 2) == pytest.approx(0.5)
        assert huber_value(2, 2) == pytest.approx(2.0)
        assert huber_value(3, 2) == pytest.approx(4.0)
        assert huber_value(-3, 2) == pytest.approx(4.0)
        eps = 1e-9
        assert huber_value(2 + eps, 2) == pytest.approx(huber_value(2 - eps, 2),
                                                        abs=1e-8)

    def test_zero_residual(self):
        suite = huber_regression_suite([np.array([[1.0]])], [np.array([0.0])], xi=2.0)
        c = suite.components[0]
        assert c.value(np.zeros(1)) == 0.0
        assert c.grad(np.zeros(1)) == pytest.approx([0.0])

    def test_clipped_gradient(self):
        suite = huber_regression_suite([np.array([[1.0]])], [np.array([0.0])], xi=2.0)
        assert suite.components[0].grad(np.array([5.0])) == pytest.approx([2.0])

    def test_lipschitz_constant_is_row_norm(self):
        m = np.array([[3.0, 4.0]])
        suite = huber_regression_suite([m], [np.array([0.0])], xi=1.0)
        assert suite.components[0].L == pytest.approx(25.0)

    def test_gradient_lipschitz_property(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 2))
        suite = huber_regression_suite([m], [rng.normal(size=3)], xi=1.5)
        c = suite.components[0]
        for _ in range(50):
            x, y = rng.normal(scale=3, size=(2, 2))
            lhs = np.linalg.norm(c.grad(x) - c.grad(y))
            assert lhs <= c.L * np.linalg.norm(x - y) + 1e-12

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            huber_regression_suite([np.eye(2)], [np.zeros(2)], xi=0.0)


class TestFiniteDifferences:
    def test_quadratic(self):
        suite = quadratic_suite(np.random.default_rng(2).normal(size=(4, 3)),
                                np.array([0.5, 1.0, 2.0, 3.0]))
        assert check_gradients(suite, seed=3) <= 1e-6

    def test_huber(self):
        rng = np.random.default_rng(4)
        suite = huber_regression_suite([rng.normal(size=(2, 2)) for _ in range(3)],
                                       [rng.normal(size=2) for _ in range(3)],
                                       xi=1.0)
        assert check_gradients(suite, seed=5) <= 1e-6


class TestSolveReference:
    def test_quadratic(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.array([1.0, 1.0]))
        ref = solve_reference(suite, tolerance=1e-12)
        assert ref.x_star == pytest.approx([1.0], abs=1e-10)
        assert ref.grad_norm <= 1e-12

    def test_huber_matches_least_squares_when_unclipped(self):
        rng = np.random.default_rng(6)
        mats = [rng.normal(size=(2, 2)) for _ in range(4)]
        x_true = rng.normal(size=2)
        ys = [m @ x_true + 0.01 * rng.normal(size=2) for m in mats]
        suite = huber_regression_suite(mats, ys, xi=5.0)
        ref = solve_reference(suite, tolerance=1e-12)
        stacked = np.vstack(mats)
        target = np.concatenate(ys)
        ls = np.linalg.lstsq(stacked, target, rcond=None)[0]
        # residuals stay inside the quadratic branch, so both solves agree
        assert np.abs(stacked @ ls - target).max() < 5.0
        assert ref.x_star == pytest.approx(ls, abs=1e-8)

    def test_single_function_matches_bisection(self):
        suite = huber_regression_suite([np.array([[1.0]])], [np.array([0.7])],
                                       xi=2.0)
        ref = solve_reference(suite, tolerance=1e-13)
        lo, hi = -10.0, 10.0  # bisection on the scalar derivative
        c = suite.components[0]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if c.grad(np.array([mid]))[0] > 0:
                hi = mid
            else:
                lo = mid
        assert ref.x_star[0] == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_cap_exceeded(self):
        # start deep in the clipped branch: three steps cannot reach zero grad
        suite = huber_regression_suite([np.array([[1.0]])], [np.array([50.0])],
                                       xi=2.0)
        with pytest.raises(objectives.ReferenceSolveError):
            solve_reference(suite, tolerance=1e-12, max_iter=3)


class TestSuiteEdges:
    def test_zero_suite_has_no_condition_number(self):
        suite = zero_suite(3, 2)
        assert suite.mu_bar == 0.0
        with pytest.raises(ValueError):
            _ = suite.kappa_bar

    def test_override_enables_condition_number(self):
        rng = np.random.default_rng(7)
        suite = huber_regression_suite([rng.normal(size=(1, 2))], [rng.normal(size=1)],
                                       xi=1.0)
        suite.mu_bar_override = suite.L / 4
        assert suite.kappa_bar == pytest.approx(4.0)

    def test_override_above_L_rejected(self):
        with pytest.raises(ValueError):
            objectives.ObjectiveSuite(
                quadratic_suite(np.zeros((2, 1)), np.ones(2)).components,
                mu_bar_override=5.0)

    def test_component_constant_consistency(self):
        with pytest.raises(ValueError):
            objectives.ComponentFunction(1, lambda x: 0.0,
                                         lambda x: np.zeros(1), L=1.0, mu=2.0)


class TestSuiteSerialization:
    def test_quadratic_roundtrip(self, tmp_path):
        suite = quadratic_suite(np.random.default_rng(8).normal(size=(3, 2)),
                                np.array([0.5, 1.5, 2.5]))
        objectives.save_suite(suite, tmp_path)
        back = objectives.load_suite(tmp_path)
        assert np.array_equal(back.data["targets"], suite.data["targets"])
        assert np.array_equal(back.data["curvatures"], suite.data["curvatures"])
        assert back.x_star == pytest.approx(suite.x_star)

    def test_huber_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        suite = huber_regression_suite([rng.normal(size=(2, 3)) for _ in range(3)],
                                       [rng.normal(size=2) for _ in range(3)],
                                       xi=1.25)
        objectives.save_suite(suite, tmp_path)
        back = objectives.load_suite(tmp_path)
        assert back.data["xi"] == 1.25
        x = rng.normal(size=3)
        for c1, c2 in zip(suite.components, back.components):
            assert c1.value(x) == pytest.approx(c2.value(x), rel=1e-15)
            assert c1.grad(x) == pytest.approx(c2.grad(x), rel=1e-15)


def loop_reference(suite, x):
    """The per-agent reference path: the same suite without its stacked
    oracle."""
    return block_gradient(dataclasses.replace(suite, stacked_grad=None), x)


class TestStackedOracle:
    """The stacked oracles agree with the per-agent loop bit for bit."""

    def suites(self):
        rng = np.random.default_rng(21)
        n, p = 7, 4
        return {
            "section6": harness.section6_problem(0).suite,
            "huber-r3": huber_regression_suite(
                [rng.normal(size=(3, p)) for _ in range(n)],
                [3.0 * rng.normal(size=3) for _ in range(n)], xi=1.0),
            "quadratic": quadratic_suite(rng.normal(size=(n, p)),
                                         rng.uniform(0.5, 2.0, n)),
            "zero": zero_suite(n, p),
        }

    @pytest.mark.parametrize("name", ["section6", "huber-r3", "quadratic", "zero"])
    def test_matches_loop(self, name):
        suite = self.suites()[name]
        assert suite.stacked_grad is not None
        rng = np.random.default_rng(22)
        for _ in range(200):
            x = 50.0 * rng.normal(size=(suite.n, suite.p))
            assert np.array_equal(block_gradient(suite, x), loop_reference(suite, x))

    @pytest.mark.parametrize("name", ["section6", "huber-r3", "quadratic", "zero"])
    def test_non_contiguous_block(self, name):
        suite = self.suites()[name]
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = 50.0 * rng.normal(size=(suite.p, suite.n)).T
            assert not x.flags.c_contiguous
            assert np.array_equal(block_gradient(suite, x), loop_reference(suite, x))

    def test_ragged_huber_uses_loop(self):
        rng = np.random.default_rng(24)
        sizes = (1, 3, 2)
        suite = huber_regression_suite([rng.normal(size=(r, 2)) for r in sizes],
                                       [rng.normal(size=r) for r in sizes], xi=0.5)
        assert suite.stacked_grad is None
        x = rng.normal(size=(3, 2))
        want = np.vstack([c.grad(x[i]) for i, c in enumerate(suite.components)])
        assert np.array_equal(block_gradient(suite, x), want)

    def test_loaded_suites_keep_stacked_oracle(self, tmp_path):
        suite = self.suites()["huber-r3"]
        objectives.save_suite(suite, tmp_path)
        assert objectives.load_suite(tmp_path).stacked_grad is not None
