"""Closed-form bound evaluators, log-space constants, small-gain machinery."""

import math

import mpmath
import numpy as np
import pytest

from digrate import algorithms as alg
from digrate import graphs, mixing, rates
from digrate.objectives import quadratic_suite
from digrate.rates import (LogValue, TheoryParams,
                           diging_rate, diging_rate_constant,
                           diging_step_size_window, lazy_metropolis_rate,
                           network_scalability_rate, push_diging_rate,
                           push_rate_constant, push_sum_contraction,
                           push_sum_delta, small_gain_bound,
                           weighted_ergodic_norm)


def params(n=1, B=1, delta=0.0, mu_bar=1.0, L=1.0, **kw):
    return TheoryParams(n=n, B=B, delta=delta, mu_bar=mu_bar, L=L, **kw)


class TestRateConstant:
    def test_smallest_case(self):
        assert diging_rate_constant(1.0, 1, 1) == pytest.approx(15.0, rel=1e-15)

    def test_twelve_agents(self):
        expected = 3 * (1 + 4 * math.sqrt(12))
        assert diging_rate_constant(1.0, 1, 12) == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_window_scaling_quadratic(self):
        base = diging_rate_constant(2.0, 3, 7)
        assert diging_rate_constant(2.0, 6, 7) == pytest.approx(4 * base,
                                                                rel=1e-14)


class TestStepSizeWindow:
    def test_alpha_max_at_zero_delta(self):
        # J = 15 at n=1, kappa=1, so the window is (0, 1.5/15]
        w = diging_step_size_window(params())
        assert w.alpha_max == pytest.approx(0.1, rel=1e-14)

    def test_alpha_max_shrinks_as_delta_grows(self):
        values = [diging_step_size_window(params(delta=d)).alpha_max
                  for d in (0.0, 0.5, 0.9, 0.99, 0.999)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-5

    def test_breakpoint_below_alpha_max(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu = float(rng.uniform(0.1, 2))
            p = params(n=int(rng.integers(1, 30)), B=int(rng.integers(1, 6)),
                       delta=float(rng.uniform(0, 0.999)), mu_bar=mu,
                       L=mu * float(rng.uniform(1, 10)))
            w = diging_step_size_window(p)
            assert 0 < w.breakpoint <= w.alpha_max * (1 + 1e-12)

    def test_breakpoint_below_alpha_max_near_delta_one(self):
        # deltas just below 1, where root - delta*j cancels
        for delta in (1 - 3e-12, 0.9999999999969476, 1 - 1e-15):
            p = params(n=12, B=2, delta=delta, mu_bar=1.2994954043582434,
                       L=1.925695544488903)
            w = diging_step_size_window(p)
            assert 0 < w.breakpoint <= w.alpha_max * (1 + 1e-12)

    def test_no_guarantee_at_delta_one(self):
        with pytest.raises(rates.NoGuaranteeError):
            diging_step_size_window(params(delta=1.0))


class TestDigingRate:
    def test_small_alpha_first_branch(self):
        est = diging_rate(0.05, params())
        assert est.branch == 1
        assert est.lam == pytest.approx(math.sqrt(1 - 0.05 / 1.5), rel=1e-12)
        assert est.lam == pytest.approx(0.98319, abs=5e-6)

    def test_rate_tends_to_one_as_alpha_vanishes(self):
        lams = [diging_rate(a, params()).lam for a in (1e-2, 1e-4, 1e-6)]
        assert all(l1 < l2 < 1 for l1, l2 in zip(lams, lams[1:]))

    def test_endpoint_degenerates_and_is_flagged(self):
        p = params()
        w = diging_step_size_window(p)
        est = diging_rate(w.alpha_max, p)
        assert est.branch == 2
        assert est.degenerate
        assert est.lam == pytest.approx(1.0, abs=1e-9) and est.lam < 1.0

    def test_branches_meet_at_breakpoint(self):
        p = params(n=4, B=2, delta=0.3, mu_bar=0.8, L=1.6)
        w = diging_step_size_window(p)
        left = diging_rate(w.breakpoint, p)             # first branch at equality
        right = diging_rate(w.breakpoint * (1 + 1e-9), p)
        assert left.branch == 1 and right.branch == 2
        assert left.lam == pytest.approx(right.lam, rel=1e-7)

    def test_guarantee_strip_inside_window(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            mu = float(rng.uniform(0.2, 2))
            p = params(n=int(rng.integers(1, 20)), B=int(rng.integers(1, 5)),
                       delta=float(rng.uniform(0, 0.95)), mu_bar=mu,
                       L=mu * float(rng.uniform(1, 8)))
            w = diging_step_size_window(p)
            alpha = float(rng.uniform(0.05, 0.999)) * w.alpha_max
            est = diging_rate(alpha, p)
            assert p.delta < est.lam_pow_B < 1

    def test_out_of_window_rejected(self):
        p = params()
        w = diging_step_size_window(p)
        for bad in (0.0, -0.1, w.alpha_max * 1.01):
            with pytest.raises(rates.RateWindowError):
                diging_rate(bad, p)


class TestScalabilityRates:
    def test_unit_case(self):
        out = network_scalability_rate(1.0, 1, 1, 1.0, 1.0, 1.0)
        assert out.lam == pytest.approx(1 - 1 / 128, rel=1e-15)

    def test_rate_approaches_one_with_network_size(self):
        lams = [network_scalability_rate(0.5, 2, n, 2.0, 2.0, 1.0).lam
                for n in (2, 4, 8, 16)]
        assert all(a < b < 1 for a, b in zip(lams, lams[1:]))

    def test_complexity_proxy_matches_formula(self):
        tau, B, n, kappa = 0.25, 3, 9, 2.5
        out = network_scalability_rate(tau, B, n, kappa, 2.5, 1.0)
        proxy = 1.0 / (1.0 - out.lam ** B)
        expected = 128 * B * B * n ** 4.5 * kappa ** 1.5 / tau ** 2
        # exact algebraically; the B-th root round trip costs a few ulp
        assert proxy == pytest.approx(expected, rel=1e-6)

    def test_lazy_metropolis_small(self):
        assert lazy_metropolis_rate(1, 1.0) == pytest.approx(1 - 1 / 161312,
                                                             rel=1e-15)

    def test_lazy_metropolis_twelve(self):
        expected = 1 - 1 / (161312 * 12 ** 4.5)
        assert lazy_metropolis_rate(12, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_lazy_matches_scalability_at_tau(self):
        for n in (2, 5, 12):
            for kappa in (1.0, 3.0):
                lam1 = lazy_metropolis_rate(n, kappa)
                lam2 = network_scalability_rate(2 / 71, 1, n, kappa,
                                                kappa, 1.0).lam
                assert lam1 == pytest.approx(lam2, rel=1e-2)  # in fact exact
                assert lam1 == pytest.approx(lam2, rel=1e-12)


def mp_push_constants(n, b_minus):
    """High-precision oracle for the push-sum constants."""
    with mpmath.workdps(80):
        nb = n * b_minus
        tau = mpmath.mpf(1) / mpmath.mpf(n) ** (2 + nb)
        q1 = 2 * n * (1 + tau ** -nb) / (1 - tau ** nb)
        return tau, q1


def mp_push_delta(n, b_minus, B):
    with mpmath.workdps(80):
        nb = n * b_minus
        tau, q1 = mp_push_constants(n, b_minus)
        return q1 * (1 - tau ** nb) ** (mpmath.mpf(B - 1) / nb)


class TestPushSumConstants:
    def test_exact_small_case(self):
        cons = push_sum_contraction(2, 1)
        assert cons.tau_tilde.to_float() == pytest.approx(1 / 16, rel=1e-15)
        assert cons.q1.to_float() == pytest.approx(263168 / 255, rel=1e-12)

    def test_vinv_bound(self):
        assert push_sum_contraction(3, 1).vinv_bound.to_float() == pytest.approx(
            27.0, rel=1e-12)

    def test_delta_decreasing_in_window(self):
        logs = [push_sum_delta(3, 1, B).log10 for B in (3, 10, 50, 200)]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_required_window_is_minimal(self):
        for n, b_minus in ((2, 1), (3, 1), (2, 2)):
            cons = push_sum_contraction(n, b_minus)
            B = cons.B_required
            assert B is not None
            assert float(mp_push_delta(n, b_minus, B)) < 1
            assert float(mp_push_delta(n, b_minus, B - 1)) >= 1
            assert cons.delta.to_float() < 1 or cons.delta.log10 == 0.0
            assert cons.delta.log10 <= 0.0

    def test_against_mpmath_small(self):
        for n, b_minus in ((2, 1), (3, 1), (4, 1), (2, 3)):
            tau, q1 = mp_push_constants(n, b_minus)
            cons = push_sum_contraction(n, b_minus)
            assert cons.q1.log10 == pytest.approx(float(mpmath.log10(q1)),
                                                  abs=1e-10)
            assert cons.tau_tilde.log10 == pytest.approx(float(mpmath.log10(tau)),
                                                         abs=1e-10)

    def test_astronomic_case_stays_finite_in_log_space(self):
        cons = push_sum_contraction(12, 3)
        tau, q1 = mp_push_constants(12, 3)
        assert cons.q1.log10 == pytest.approx(float(mpmath.log10(q1)), rel=1e-12)
        assert cons.B_required is None            # beyond exact integer range
        assert cons.B_required_log.log10 > 100    # astronomically many steps
        assert math.isfinite(cons.B_required_log.log10)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            push_sum_contraction(1, 1)
        with pytest.raises(ValueError):
            push_sum_contraction(4, 0)


class TestPushRate:
    def push_params(self, **kw):
        defaults = dict(n=4, B=1, delta=0.5, mu_bar=1.0, L=2.0, mu_hat=2.0,
                        q1=2.0, vinv_bound=1.5)
        defaults.update(kw)
        return TheoryParams(**defaults)

    def test_single_window_collapse(self):
        p = self.push_params()
        expected = (3 * 2.0 * 1.5 * 2.0 * 1 * 0.5 * (1 + 2.0)
                    * (1 + 4 * math.sqrt(4 * 2.0)))
        assert push_rate_constant(p).to_float() == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_multi_window_term(self):
        p = self.push_params(B=3)
        mid = 0.5 + 2.0 * (3 - 1)
        expected = (3 * 2.0 * 1.5 * 2.0 * 3 * mid * (1 + 2.0)
                    * (1 + 4 * math.sqrt(8)))
        assert push_rate_constant(p).to_float() == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_directed_constant_dominates_undirected(self):
        """With the worst-case push-sum constants the directed constant
        exceeds the undirected one."""
        for n, b_minus in ((2, 1), (3, 1)):
            cons = push_sum_contraction(n, b_minus)
            p = TheoryParams(n=n, B=cons.B_required,
                             delta=cons.delta.to_float() * 0.999999,
                             mu_bar=1.0, L=2.0, mu_hat=2.0,
                             q1=cons.q1, vinv_bound=cons.vinv_bound)
            j2 = push_rate_constant(p)
            j1 = diging_rate_constant(p.kappa_bar, p.B, p.n)
            assert j2.log10 > math.log10(j1)

    def test_vanishing_constant_rejected_by_name(self):
        """delta = 0 with B = 1 zeroes the factor delta + Q1 (B - 1), so J2 = 0;
        the window code names J instead of failing on log(0)."""
        p = self.push_params(delta=0.0)
        assert push_rate_constant(p).to_float() == 0.0
        for alpha in (1e-3, 1.0):
            with pytest.raises(rates.NoGuaranteeError, match="J = 0"):
                push_diging_rate(p, alpha)

    def test_rate_tends_to_one(self):
        p = self.push_params()
        lams = [push_diging_rate(p, a) for a in (1e-3, 1e-6, 1e-9)]
        vals = [est.one_minus_lambda.to_float() for est in lams]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(est.lam < 1 for est in lams)

    def test_matches_undirected_shape_on_first_branch(self):
        p = self.push_params()
        est = push_diging_rate(p, 1e-3)
        assert est.branch == 1
        assert est.lam == pytest.approx(math.sqrt(1 - 1e-3 / 1.5) ** (1 / 1),
                                        rel=1e-12)

    def test_branches_match_high_precision_oracle(self):
        """Both rate branches and the window ends agree with a direct
        high-precision evaluation of the displayed formulas."""
        p = self.push_params()
        with mpmath.workdps(50):
            j2 = mpmath.mpf(push_rate_constant(p).to_float())
            d, mu, B = mpmath.mpf(0.5), mpmath.mpf(1), 1
            alpha_max = mpmath.mpf(1.5) * (1 - d) ** 2 / (mu * j2)
            u = mpmath.sqrt(j2 ** 2 + (1 - d ** 2) * j2)
            bp = mpmath.mpf(1.5) * (u - d * j2) ** 2 / (mu * j2 * (j2 + 1) ** 2)
            est = push_diging_rate(p, float(bp) * 0.5)      # first branch
            lam1 = mpmath.sqrt(1 - mpmath.mpf(float(bp) * 0.5) * mu / mpmath.mpf(1.5))
            assert est.branch == 1
            assert est.lam == pytest.approx(float(lam1), rel=1e-12)
            mid = 0.5 * (float(bp) + float(alpha_max))       # second branch
            est2 = push_diging_rate(p, mid)
            lam2 = mpmath.sqrt(mpmath.mpf(mid) * mu * j2 / mpmath.mpf(1.5)) + d
            assert est2.branch == 2
            assert est2.lam == pytest.approx(float(lam2), rel=1e-10)
            assert est2.alpha_max.to_float() == pytest.approx(float(alpha_max),
                                                              rel=1e-10)

    def test_diging_rate_against_oracle(self):
        p = params(n=6, B=3, delta=0.4, mu_bar=0.7, L=2.1)
        w = diging_step_size_window(p)
        with mpmath.workdps(50):
            kappa = mpmath.mpf(2.1) / mpmath.mpf(0.7)
            j = 3 * kappa * 9 * (1 + 4 * mpmath.sqrt(6 * kappa))
            # the branch point sits within a fraction of a percent of the
            # window end for large constants, so aim explicitly at each side
            for alpha, branch in ((0.3 * w.breakpoint, 1),
                                  (0.5 * (w.breakpoint + w.alpha_max), 2)):
                est = diging_rate(alpha, p)
                if branch == 1:
                    lam = (1 - mpmath.mpf(alpha) * mpmath.mpf(0.7) / mpmath.mpf(1.5)) \
                        ** (mpmath.mpf(1) / 6)
                else:
                    lam = (mpmath.sqrt(mpmath.mpf(alpha) * mpmath.mpf(0.7) * j
                                       / mpmath.mpf(1.5)) + mpmath.mpf(0.4)) \
                        ** (mpmath.mpf(1) / 3)
                assert est.branch == branch
                assert est.lam == pytest.approx(float(lam), rel=1e-12)

    def test_small_constant_does_not_overflow(self):
        # empirical constants can make the directed rate constant tiny; the
        # log-space branch-point evaluation must stay finite
        p = self.push_params(q1=0.05, vinv_bound=0.1, delta=0.2)
        assert push_rate_constant(p).to_float() < 1.0
        est = push_diging_rate(p, 1e-4)
        assert 0 < est.lam < 1

    def test_window_enforced(self):
        p = self.push_params()
        alpha_max = est = 1.5 * (1 - 0.5) ** 2 / push_rate_constant(p).to_float()
        with pytest.raises(rates.RateWindowError):
            push_diging_rate(p, alpha_max * 1.1)

    def test_endpoint_degenerate_flag(self):
        p = self.push_params()
        alpha_max = 1.5 * (1 - 0.5) ** 2 / push_rate_constant(p).to_float()
        est = push_diging_rate(p, alpha_max)
        assert est.branch == 2
        assert est.degenerate and est.lam < 1.0

    def test_astronomic_constants_keep_log_form(self):
        # worst-case Q1 and Vinv at n=12 overflow doubles; pair them with a
        # measured contraction so the window itself is nonempty
        cons = push_sum_contraction(12, 1)
        assert cons.q1.log10 > 100
        p = TheoryParams(n=12, B=1, delta=0.5, mu_bar=1.0,
                         L=1.0, mu_hat=1.0, q1=cons.q1,
                         vinv_bound=cons.vinv_bound,
                         delta_source="empirical")
        est = push_diging_rate(p, math.exp(p_ln_alpha(cons)))
        assert est.lam <= 1.0
        assert est.one_minus_lambda.log10 < -20
        assert math.isfinite(est.j.log10)


class TestCertificateAccuracy:
    """Window ends, breakpoint and gap against 50-digit evaluations of the
    displayed formulas, on a seeded grid with delta up to 1 - 1e-15 and
    push-sum constants up to ~1e276."""

    @staticmethod
    def grid_delta(rng):
        u = rng.uniform()
        if u < 0.2:
            return 0.0
        if u < 0.5:
            return float(rng.uniform(0, 0.999))
        return 1 - 10 ** -float(rng.uniform(1, 15))

    def test_diging_window_and_gap(self):
        rng = np.random.default_rng(1607)
        rounded = 0
        with mpmath.workdps(50):
            for _ in range(200):
                mu = float(10 ** rng.uniform(-3, 2))
                p = params(n=int(rng.integers(1, 60)), B=int(rng.integers(1, 8)),
                           delta=self.grid_delta(rng), mu_bar=mu,
                           L=mu * float(10 ** rng.uniform(0, 3)))
                kappa, d, m = (mpmath.mpf(p.L) / mpmath.mpf(mu), mpmath.mpf(p.delta),
                               mpmath.mpf(mu))
                j = 3 * kappa * p.B ** 2 * (1 + 4 * mpmath.sqrt(p.n * kappa))
                alpha_max = mpmath.mpf(1.5) * (1 - d) ** 2 / (m * j)
                u = mpmath.sqrt(j ** 2 + (1 - d ** 2) * j)
                bp = mpmath.mpf(1.5) * (u - d * j) ** 2 / (m * j * (j + 1) ** 2)
                w = diging_step_size_window(p)
                assert float(abs(w.alpha_max / alpha_max - 1)) < 1e-13
                assert float(abs(w.breakpoint / bp - 1)) < 1e-13
                # steps down to 1e-22 of the breakpoint, where lam rounds to 1
                alpha = w.breakpoint * 10 ** -float(rng.uniform(0, 22))
                est = diging_rate(alpha, p)
                if est.lam == math.nextafter(1.0, 0.0):
                    rounded += 1
                    gap = -mpmath.expm1(mpmath.log1p(-mpmath.mpf(alpha) * m / 1.5)
                                        / (2 * p.B))
                    assert float(abs(est.one_minus_lambda.to_float() / gap - 1)) < 1e-12
        assert rounded > 20

    def test_push_alpha_max_in_log_space(self):
        rng = np.random.default_rng(1608)
        pairs = [(n, 1) for n in range(2, 11)] + [(n, 2) for n in range(2, 7)]
        with mpmath.workdps(50):
            for t in range(100):
                n, b_minus = pairs[t % len(pairs)]
                cons = push_sum_contraction(n, b_minus)
                mu, delta = float(10 ** rng.uniform(-2, 1)), self.grid_delta(rng)
                # J2 vanishes at delta = 0 with B = 1
                p = TheoryParams(n=n, B=int(rng.integers(1 if delta else 2, 5)),
                                 delta=delta, mu_bar=mu,
                                 L=mu * float(10 ** rng.uniform(0, 2)),
                                 mu_hat=mu, q1=cons.q1, vinv_bound=cons.vinv_bound)
                kappa, d = mpmath.mpf(p.L) / mpmath.mpf(mu), mpmath.mpf(p.delta)
                q1, vinv = mpmath.mpf(10) ** cons.q1.log10, \
                    mpmath.mpf(10) ** cons.vinv_bound.log10
                j2 = (3 * q1 * vinv * kappa * p.B * (d + q1 * (p.B - 1))
                      * (1 + mpmath.sqrt(n)) * (1 + 4 * mpmath.sqrt(n * kappa)))
                ln_alpha_max = mpmath.log(mpmath.mpf(1.5) * (1 - d) ** 2
                                          / (mpmath.mpf(mu) * j2))
                alpha = float(mpmath.exp(ln_alpha_max)) * 1e-3
                est = push_diging_rate(p, alpha)
                assert float(abs(est.alpha_max.ln - ln_alpha_max)) \
                    < 1e-12 * float(abs(ln_alpha_max))
                assert est.j.log10 == pytest.approx(float(mpmath.log10(j2)), rel=1e-12)


def p_ln_alpha(cons):
    """A step deep inside the window for astronomically large constants."""
    return -cons.q1.ln - cons.vinv_bound.ln - 60.0


class TestLogValue:
    def test_mantissa_exponent(self):
        v = LogValue.from_float(263168 / 255)
        assert v.exponent == 3
        assert v.mantissa == pytest.approx(1.03203, abs=1e-5)
        assert v.to_float() == pytest.approx(263168 / 255, rel=1e-12)

    def test_zero(self):
        v = LogValue.from_float(0.0)
        assert v.to_float() == 0.0 and v.mantissa == 0.0

    def test_overflow_to_inf(self):
        assert LogValue(5000.0).to_float() == math.inf

    def test_log_space_matches_direct_when_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = float(rng.uniform(1e-8, 1e8))
            assert LogValue.from_float(x).to_float() == pytest.approx(x,
                                                                      rel=1e-10)


class TestWeightedErgodicNorm:
    def test_all_zero(self):
        assert weighted_ergodic_norm(np.zeros(5), 0.5) == 0.0

    def test_scalar_series(self):
        assert weighted_ergodic_norm(np.ones(3), 0.5) == pytest.approx(4.0,
                                                                       rel=1e-12)

    def test_constant_series_last_term_dominates(self):
        c, lam, K = 2.5, 0.9, 7
        assert weighted_ergodic_norm(np.full(K + 1, c), lam) == pytest.approx(
            c / lam ** K, rel=1e-12)

    def test_matrix_series(self):
        series = [np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)]
        # norms are sqrt(2), 0, 2*sqrt(2); weights 1, 2, 4
        assert weighted_ergodic_norm(series, 0.5) == pytest.approx(
            8 * math.sqrt(2), rel=1e-12)

    def test_long_series_via_logs(self):
        series = np.ones(20_000)
        out = weighted_ergodic_norm(series, 0.9)
        assert out == math.inf

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            weighted_ergodic_norm(np.ones(3), 1.0)


class TestSmallGainBound:
    def test_two_link_cycle(self):
        assert small_gain_bound([0.5, 0.5], [1.0, 1.0]) == pytest.approx(2.0)

    def test_zero_offsets(self):
        assert small_gain_bound([0.3, 0.2, 0.9], [0.0, 0.0, 0.0]) == 0.0

    def test_single_link(self):
        assert small_gain_bound([0.9], [1.0]) == pytest.approx(10.0, rel=1e-12)

    def test_inapplicable_product(self):
        with pytest.raises(rates.SmallGainInapplicableError):
            small_gain_bound([2.0, 0.6], [1.0, 1.0])

    def test_monotone_in_gains_and_offsets(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            gains = rng.uniform(0, 1, m) * (0.99 / max(1, m)) + 1e-3
            offsets = rng.uniform(0, 2, m)
            base = small_gain_bound(gains, offsets)
            i = int(rng.integers(0, m))
            bumped_w = offsets.copy()
            bumped_w[i] += 0.1
            assert small_gain_bound(gains, bumped_w) >= base - 1e-12
            bumped_g = gains.copy()
            bumped_g[i] = min(bumped_g[i] + 0.05, 0.999 / max(1e-9, np.prod(
                np.delete(gains, i))))
            if np.prod(bumped_g) < 1:
                assert small_gain_bound(bumped_g, offsets) >= base - 1e-12


def diging_audit_run(seed=0, n=4, iterations=400, alpha=None):
    rng = np.random.default_rng(seed)
    snap = graphs.random_spanning_tree(n, seed)
    seq = graphs.static_sequence(snap)
    suite = quadratic_suite(rng.normal(size=(n, 2)), rng.uniform(0.5, 2, n))
    delta = mixing.estimate_delta(seq, mixing.metropolis, 1, 2).delta_empirical
    p = TheoryParams(n=n, B=1, delta=delta, mu_bar=suite.mu_bar, L=suite.L,
                     mu_hat=suite.mu_hat)
    window = diging_step_size_window(p)
    alpha = alpha or 0.9 * window.breakpoint
    est = diging_rate(alpha, p)
    trace = alg.run("diging", seq, mixing.metropolis, suite, alpha, iterations,
                    x0=rng.normal(size=(n, 2)), record_audit=True)
    return trace, p, est.lam, alpha


class TestAuditCycle:
    def test_margins_nonnegative_at_certified_rate(self):
        trace, p, lam, alpha = diging_audit_run(seed=5)
        ledger = rates.audit_small_gain(trace, p, lam, alpha=alpha)
        assert ledger.all_ok
        assert all(m >= 0 for m in ledger.margins)
        assert ledger.gain_product < 1

    def test_zero_gradient_objective(self):
        """Quadratic with all targets equal: starting consensual at the
        solution keeps every series at zero."""
        n = 3
        suite = quadratic_suite(np.ones((n, 1)), np.ones(n))
        seq = graphs.static_sequence(graphs.random_spanning_tree(n, 1))
        trace = alg.run("diging", seq, mixing.metropolis, suite, 0.01, 50,
                        x0=np.ones((n, 1)), record_audit=True)
        assert np.abs(trace.z_norm).max() == 0.0
        assert np.abs(trace.q_norm).max() == 0.0
        delta = mixing.estimate_delta(seq, mixing.metropolis, 1, 2).delta_empirical
        p = TheoryParams(n=n, B=1, delta=delta, mu_bar=1.0, L=1.0, mu_hat=1.0)
        ledger = rates.audit_small_gain(trace, p, 0.99, alpha=0.01)
        assert ledger.norms["q"] == 0.0 and ledger.norms["z"] == 0.0
        assert ledger.all_ok

    def test_homogeneous_arrows_scale_with_trace(self):
        trace, p, lam, alpha = diging_audit_run(seed=6)
        ledger = rates.audit_small_gain(trace, p, lam, alpha=alpha)
        c = 7.5
        trace.q_norm = trace.q_norm * c
        trace.z_norm = trace.z_norm * c
        trace.cons_viol_x = trace.cons_viol_x * c
        trace.cons_viol_y = trace.cons_viol_y * c
        trace.xbar0_error = trace.xbar0_error * c
        scaled = rates.audit_small_gain(trace, p, lam, alpha=alpha)
        for m0, m1 in zip(ledger.margins, scaled.margins):
            assert m1 == pytest.approx(c * m0, rel=1e-9, abs=1e-12)

    def test_inapplicable_when_rate_below_delta(self):
        trace, p, lam, alpha = diging_audit_run(seed=7)
        with pytest.raises(rates.SmallGainInapplicableError):
            rates.audit_small_gain(trace, p, p.delta * 0.5, alpha=alpha)

    def test_push_cycle_with_empirical_constants(self):
        rng = np.random.default_rng(8)
        n = 4
        snap = graphs.random_strongly_connected_digraph(n, 2 * n, seed=9)
        seq = graphs.static_sequence(snap)
        suite = quadratic_suite(rng.normal(size=(n, 2)), rng.uniform(0.5, 2, n))
        alpha = 0.02
        trace = alg.run("push-diging", seq, mixing.out_degree_column, suite,
                        alpha, 600, x0=rng.normal(size=(n, 2)),
                        record_audit=True, record_states=True)
        # empirical contraction and weight constants measured from the run
        states = trace.history["states"]
        mixers = trace.history["mixers"]
        vinv_emp = max(float(1 / st.v.min()) for st in states)
        gap = np.eye(n) - np.full((n, n), 1 / n)
        r_mats = [m.entries * (s0.v[None, :] / s1.v[:, None])
                  for m, s0, s1 in zip(mixers, states, states[1:])]
        delta_emp = max(np.linalg.svd(gap @ r @ gap, compute_uv=False)[0]
                        for r in r_mats)
        q1_emp = max(1.0, delta_emp)
        p = TheoryParams(n=n, B=1, delta=delta_emp, mu_bar=suite.mu_bar,
                         L=suite.L, mu_hat=suite.mu_hat, q1=q1_emp,
                         vinv_bound=vinv_emp)
        # the closing link needs lam >= sqrt(1 - alpha mu beta/(beta+1))
        beta = p.effective_beta
        lam_floor = math.sqrt(1 - alpha * p.mu_bar * beta / (beta + 1))
        lam = max(0.5 * (1 + delta_emp), 0.5 * (1 + lam_floor))
        assert delta_emp < lam < 1
        ledger = rates.audit_small_gain(trace, p, lam, alpha=alpha)
        assert all(m >= 0 for m in ledger.margins)

    def test_needs_audit_series(self):
        suite = quadratic_suite(np.zeros((2, 1)), np.ones(2))
        seq = graphs.static_sequence(graphs.undirected(2, [(1, 2)]))
        trace = alg.run("diging", seq, mixing.metropolis, suite, 0.05, 20)
        p = TheoryParams(n=2, B=1, delta=0.0, mu_bar=1.0, L=1.0, mu_hat=1.0)
        with pytest.raises(ValueError):
            rates.audit_small_gain(trace, p, 0.9)
