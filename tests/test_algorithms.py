"""Step functions, their exact algebraic identities, and the run driver."""

import dataclasses
import math

import numpy as np
import pytest

from digrate import algorithms as alg
from digrate import graphs, harness, mixing, streams
from digrate.objectives import (ObjectiveSuite, huber_regression_suite,
                                 quadratic_suite, solve_reference, zero_suite)


def two_clique_seq():
    return graphs.static_sequence(graphs.undirected(2, [(1, 2)]))


def two_cycle_seq():
    return graphs.static_sequence(graphs.directed(2, [(1, 2), (2, 1)]))


def single_agent_suite():
    return quadratic_suite(np.array([[3.0, -1.0]]), np.array([2.0]))


def centralized_gd(suite, x0, alpha, iterations, schedule=None):
    x = np.asarray(x0, dtype=float).copy()
    out = [x.copy()]
    for k in range(iterations):
        a = schedule(k) if schedule else alpha
        x = x - a * suite.components[0].grad(x)
        out.append(x.copy())
    return out


class TestSingleAgentReduction:
    """With one agent every algorithm is centralized gradient descent."""

    def run_single(self, algorithm, alpha, iterations=40):
        suite = single_agent_suite()
        x0 = np.array([[1.0, 1.0]])
        if algorithm in ("push-diging", "subgradient-push"):
            seq = graphs.static_sequence(graphs.empty_snapshot(1, graphs.DIRECTED))
        else:
            seq = graphs.static_sequence(graphs.empty_snapshot(1))
        trace = alg.run(algorithm, seq,
                        mixing.out_degree_column
                        if seq.kind == graphs.DIRECTED else mixing.metropolis,
                        suite, alpha, iterations, x0=x0,
                        record_states=True)
        return suite, x0, trace

    @pytest.mark.parametrize("algorithm", ["diging", "diging-atc", "dgd",
                                           "push-diging"])
    def test_fixed_step(self, algorithm):
        suite, x0, trace = self.run_single(algorithm, 0.2)
        ref = centralized_gd(suite, x0[0], 0.2, 40)
        for st, xr in zip(trace.history["states"], ref):
            assert np.abs(st.x[0] - xr).max() <= 1e-14 * max(1, np.abs(xr).max())

    def test_subgradient_push_schedule(self):
        # the float 0.5 is the scale of alpha_k = 0.5 / sqrt(k+1)
        suite, x0, trace = self.run_single("subgradient-push", 0.5)
        ref = centralized_gd(suite, x0[0], None, 40,
                             schedule=lambda k: 0.5 / math.sqrt(k + 1))
        for st, xr in zip(trace.history["states"], ref):
            assert np.abs(st.x[0] - xr).max() <= 1e-14 * max(1, np.abs(xr).max())


class TestDigingStep:
    def test_hand_iteration(self):
        """Two agents, uniform averaging, quadratic targets 0 and 2."""
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.array([1.0, 1.0]))
        w = mixing.metropolis(graphs.undirected(2, [(1, 2)]))
        alpha = 0.3
        st = alg.init(suite, np.array([[0.0], [2.0]]))
        assert np.allclose(st.y, [[0.0], [0.0]], atol=0)
        st = alg.diging_step(st, w, suite, alpha)
        assert np.allclose(st.x, [[1.0], [1.0]], atol=1e-15)
        assert np.allclose(st.y, [[1.0], [-1.0]], atol=1e-15)
        st = alg.diging_step(st, w, suite, alpha)
        assert np.allclose(st.x, [[1 - alpha], [1 + alpha]], atol=1e-15)
        assert np.allclose(st.y, [[-alpha], [alpha]], atol=1e-15)

    def test_requires_doubly_certificate(self):
        suite = quadratic_suite(np.zeros((2, 1)), np.ones(2))
        c = mixing.out_degree_column(graphs.directed(2, [(1, 2)]))
        st = alg.init(suite, np.zeros((2, 1)))
        with pytest.raises(alg.CertificateError):
            alg.diging_step(st, c, suite, 0.1)

    def test_extra_elimination_identity(self):
        """For static symmetric mixing, eliminating the tracker leaves a
        two-step recursion on the iterates alone."""
        rng = np.random.default_rng(0)
        snap = graphs.random_connected_graph(5, 3, seed=1)
        w = mixing.metropolis(snap)
        suite = quadratic_suite(rng.normal(size=(5, 2)), rng.uniform(0.5, 2, 5))
        st = alg.init(suite, rng.normal(size=(5, 2)))
        alpha = 0.1
        hist = [st]
        for _ in range(60):
            st = alg.diging_step(st, w, suite, alpha)
            hist.append(st)
        ww = w.entries @ w.entries
        worst = 0.0
        for k in range(len(hist) - 2):
            x0, x1, x2 = hist[k].x, hist[k + 1].x, hist[k + 2].x
            z = hist[k + 1].grad - hist[k].grad
            pred = 2 * w.entries @ x1 - ww @ x0 - alpha * z
            worst = max(worst, np.abs(pred - x2).max())
        assert worst <= 1e-12


class TestAtcStep:
    def test_full_averaging_collapse(self):
        suite = quadratic_suite(np.array([[0.0], [2.0], [4.0]]),
                                np.array([1.0, 1.0, 1.0]))
        snap = graphs.undirected(3, [(1, 2), (1, 3), (2, 3)])
        w = mixing.custom_mixing(np.full((3, 3), 1 / 3), mixing.DOUBLY, snap)
        x0 = np.array([[1.0], [5.0], [0.0]])
        st = alg.init(suite, x0)
        alpha = 0.25
        expected = x0.mean() - alpha * st.y.mean()
        st = alg.diging_atc_step(st, w, suite, alpha)
        assert np.allclose(st.x, expected, atol=1e-14)

    def test_conservation_preserved(self):
        rng = np.random.default_rng(2)
        snap = graphs.random_connected_graph(4, 2, seed=3)
        w = mixing.metropolis(snap)
        suite = quadratic_suite(rng.normal(size=(4, 3)), rng.uniform(0.5, 2, 4))
        st = alg.init(suite, rng.normal(size=(4, 3)))
        for _ in range(30):
            st = alg.diging_atc_step(st, w, suite, 0.15)
            drift = st.y.sum(axis=0) - st.grad.sum(axis=0)
            assert np.linalg.norm(drift) <= 1e-11 * (1 + np.linalg.norm(st.grad))


class TestPushDiging:
    def test_one_step_average_on_zero_objective(self):
        suite = zero_suite(2, 1)
        c = mixing.out_degree_column(graphs.directed(2, [(1, 2), (2, 1)]))
        st = alg.init(suite, np.array([[0.0], [2.0]]))
        st = alg.push_diging_step(st, c, suite, 0.7)
        assert np.allclose(st.u, [[1.0], [1.0]], atol=0)
        assert np.allclose(st.v, [1.0, 1.0], atol=0)
        assert np.allclose(st.x, [[1.0], [1.0]], atol=0)

    def test_mass_preservation(self):
        rng = np.random.default_rng(4)
        snap = graphs.random_strongly_connected_digraph(5, 11, seed=5)
        c = mixing.out_degree_column(snap)
        suite = quadratic_suite(rng.normal(size=(5, 2)), rng.uniform(0.5, 2, 5))
        st = alg.init(suite, rng.normal(size=(5, 2)))
        alpha = 0.05
        for _ in range(25):
            before = st.u.sum(axis=0) - alpha * st.y.sum(axis=0)
            st = alg.push_diging_step(st, c, suite, alpha)
            assert np.abs(st.u.sum(axis=0) - before).max() <= 1e-12
            assert st.v.sum() == pytest.approx(5.0, abs=1e-12)

    def test_weight_floor_static(self):
        for seed in range(4):
            n = 4 + seed
            snap = graphs.random_strongly_connected_digraph(n, 2 * n, seed=seed)
            c = mixing.out_degree_column(snap)
            suite = zero_suite(n, 1)
            st = alg.init(suite, np.zeros((n, 1)))
            floor = n ** (-n)
            for _ in range(200):
                st = alg.push_diging_step(st, c, suite, 0.1, v_floor=floor)
                assert st.v.min() >= floor

    def test_fatal_on_floor_crossing(self):
        suite = zero_suite(2, 1)
        c = mixing.out_degree_column(graphs.directed(2, [(1, 2)]))
        st = alg.init(suite, np.zeros((2, 1)))
        with pytest.raises(alg.PushSumViolation):
            for _ in range(2000):
                st = alg.push_diging_step(st, c, suite, 0.1, v_floor=0.4)


class TestDgd:
    def test_consensual_point_moves_off_consensus(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.array([1.0, 1.0]))
        w = mixing.metropolis(graphs.undirected(2, [(1, 2)]))
        x, g = np.array([[1.0], [1.0]]), np.array([[1.0], [-1.0]])
        st = alg.State(0, x, np.ones(2), x, g, g)
        alpha = 0.1
        st = alg.dgd_step(st, w, suite, alpha)
        assert np.allclose(st.x, [[1 - alpha], [1 + alpha]], atol=1e-15)
        assert mixing.consensus_violation(st.x) == pytest.approx(
            alpha * math.sqrt(2), abs=1e-14)

    def test_zero_gradient_consensus_is_fixed_point(self):
        suite = quadratic_suite(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
        w = mixing.metropolis(graphs.undirected(2, [(1, 2)]))
        st = alg.init(suite, np.array([[1.0], [1.0]]))
        st = alg.dgd_step(st, w, suite, 0.3)
        assert np.allclose(st.x, 1.0, atol=1e-15)


class TestSubgradientPush:
    def test_zero_gradient_is_pure_push_sum(self):
        suite = zero_suite(3, 1)
        snap = graphs.random_strongly_connected_digraph(3, 5, seed=6)
        c = mixing.out_degree_column(snap)
        x0 = np.array([[1.0], [2.0], [6.0]])
        st = alg.init(suite, x0)
        u, v = x0.copy(), np.ones(3)
        for k in range(30):
            st = alg.subgradient_push_step(st, c, suite, 1.0 / math.sqrt(k + 1))
            u = c.entries @ u
            v = c.entries @ v
            assert np.allclose(st.x, u / v[:, None], atol=1e-14)
        assert np.abs(st.x - 3.0).max() <= 1e-8  # reaches the initial average


class TestInvariantsAlongRuns:
    def make_run(self, algorithm, seed=0, iterations=150):
        rng = np.random.default_rng(seed)
        n, p = 5, 2
        suite = quadratic_suite(rng.normal(size=(n, p)), rng.uniform(0.5, 2, n))
        if algorithm in ("push-diging", "subgradient-push"):
            seq = graphs.static_sequence(
                graphs.random_strongly_connected_digraph(n, 2 * n, seed=seed))
            rule = mixing.out_degree_column
        else:
            seq = graphs.static_sequence(
                graphs.random_connected_graph(n, 3, seed=seed))
            rule = mixing.metropolis
        return suite, alg.run(algorithm, seq, rule, suite, 0.08, iterations,
                              x0="random", seed=seed, record_audit=True,
                              record_states=True)

    @pytest.mark.parametrize("algorithm", ["diging", "diging-atc", "push-diging"])
    def test_conservation(self, algorithm):
        _, trace = self.make_run(algorithm)
        tol = 1e-11 * (1 + trace.grad_norm)
        assert np.all(trace.conservation_err <= tol)

    def test_average_dynamics(self):
        """The row-mean of the iterate block follows an exact inexact-gradient
        recursion."""
        suite, trace = self.make_run("diging")
        alpha = 0.08
        states = trace.history["states"]
        for s0, s1 in zip(states, states[1:]):
            lhs = s1.x.mean(axis=0)
            rhs = s0.x.mean(axis=0) - alpha * s0.grad.mean(axis=0)
            assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())

    def test_equivalent_recursion_replay(self):
        suite, trace = self.make_run("push-diging")
        report = alg.equivalent_recursion_check(trace.history["states"],
                                                trace.history["mixers"], 0.08)
        assert report.max_state_deviation <= 1e-10
        assert report.max_rowsum_deviation <= 1e-12

    def test_equivalent_recursion_needs_history(self):
        suite = zero_suite(2, 1)
        st = alg.init(suite, np.zeros((2, 1)))
        with pytest.raises(ValueError):
            alg.equivalent_recursion_check([st], [], 0.1)

    def test_equivalent_recursion_zero_objective(self):
        n = 4
        suite = zero_suite(n, 2)
        seq = graphs.static_sequence(
            graphs.random_strongly_connected_digraph(n, 2 * n, seed=7))
        trace = alg.run("push-diging", seq, mixing.out_degree_column, suite,
                        0.3, 40, x0="random", seed=8, record_states=True)
        states = trace.history["states"]
        for st in states:
            assert np.abs(st.y).max() == 0.0  # tracker stays at zero gradients
        report = alg.equivalent_recursion_check(states, trace.history["mixers"],
                                                0.3)
        assert report.max_state_deviation <= 1e-10


class TestInexactGradient:
    def suite(self):
        rng = np.random.default_rng(20)
        return quadratic_suite(rng.normal(size=(4, 2)), rng.uniform(0.5, 2, 4))

    def test_zero_perturbation_is_gradient_descent(self):
        suite = self.suite()
        theta = 1.0 / (2 * suite.L_bar)
        run = alg.run_igd(suite, np.ones(2), theta, alg.radius_perturbation(0.0),
                          iterations=30)
        x = np.ones(2)
        for k in range(31):
            assert np.linalg.norm(x - suite.x_star) == pytest.approx(
                run.r[k], abs=1e-13)
            x = x - theta * suite.average_gradient(x)

    def test_perturbation_radius_exact(self):
        suite = self.suite()
        run = alg.run_igd(suite, np.ones(2), 0.1, alg.radius_perturbation(0.25),
                          iterations=20)
        assert np.abs(run.s_dev - 0.25).max() <= 1e-14

    def test_limiting_error_scales_with_radius(self):
        suite = self.suite()
        theta = 1.0 / (2 * suite.L_bar)
        tails = []
        for rho in (0.01, 0.1):
            run = alg.run_igd(suite, np.ones(2) * 5, theta,
                              alg.radius_perturbation(rho), iterations=400)
            tails.append(run.r[-50:].max())
        # limiting offset is proportional to the perturbation radius
        assert tails[0] <= 0.01 * suite.L / suite.mu_bar * 4
        assert tails[1] <= 0.1 * suite.L / suite.mu_bar * 4

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("shape", ["quadratic", "quadratic p=1", "huber"])
    def test_stacked_oracle_and_loop_agree(self, shape, rho):
        """The same suite with and without its stacked oracle gives the same
        bytes: both reach the gradients through block_gradient and sum them
        the same way, also in one dimension with eight or more agents."""
        rng = np.random.default_rng(26)
        if shape == "huber":
            suite = huber_regression_suite(
                [rng.normal(size=(3, 3)) for _ in range(9)],
                [3.0 * rng.normal(size=3) for _ in range(9)], xi=1.0)
        else:
            n, p = (12, 1) if shape == "quadratic p=1" else (5, 2)
            suite = quadratic_suite(rng.normal(size=(n, p)), rng.uniform(0.5, 2, n))
        loop = ObjectiveSuite(suite.components, x_star=suite.x_star)
        assert suite.stacked_grad is not None and loop.stacked_grad is None
        theta = 1.0 / (2 * suite.L_bar)
        runs = [alg.run_igd(s, np.ones(suite.p) * 3, theta,
                            alg.radius_perturbation(rho), iterations=80)
                for s in (suite, loop)]
        assert runs[0].r.tobytes() == runs[1].r.tobytes()
        assert runs[0].s_dev.tobytes() == runs[1].s_dev.tobytes()
        for _ in range(20):
            x = 10.0 * rng.normal(size=suite.p)
            assert (suite.average_gradient(x).tobytes()
                    == loop.average_gradient(x).tobytes())
        assert (solve_reference(suite).x_star.tobytes()
                == solve_reference(loop).x_star.tobytes())

    def test_exact_oracle_contracts_per_step(self):
        """Unperturbed descent contracts at least at the certified factor."""
        suite = self.suite()
        eta, beta = 1.0, 2 * suite.L / suite.mu_hat
        theta = 1.0 / ((1 + eta) * suite.L_bar)
        lam = math.sqrt(1 - theta * suite.mu_bar * beta / (beta + 1))
        run = alg.run_igd(suite, np.ones(2) * 3, theta,
                          alg.radius_perturbation(0.0), iterations=60)
        for r0, r1 in zip(run.r, run.r[1:]):
            if r0 > 1e-12:
                assert r1 <= lam * r0 + 1e-12


class TestRunDriver:
    def test_zero_iterations(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        trace = alg.run("diging", two_clique_seq(), mixing.metropolis, suite,
                        0.1, 0)
        assert len(trace) == 1
        assert trace.k[0] == 0

    def test_initial_residual_normalized(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        trace = alg.run("diging", two_clique_seq(), mixing.metropolis, suite,
                        0.1, 5, x0=np.array([[4.0], [4.0]]))
        assert trace.residual[0] == pytest.approx(1.0)

    def test_residual_decreases_on_clique(self):
        # a generic start; the worked (0,2) start hits the solution exactly
        # at k=1 and bounces, decay being R-linear rather than Q-linear
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        trace = alg.run("diging", two_clique_seq(), mixing.metropolis, suite,
                        0.1, 80, x0=np.array([[0.0], [4.0]]))
        tail = trace.residual[2:]
        assert np.all(np.diff(tail) < 0)

    def test_same_inputs_bitwise_identical(self):
        rng = np.random.default_rng(11)
        suite = quadratic_suite(rng.normal(size=(4, 2)), rng.uniform(0.5, 2, 4))
        base = graphs.random_connected_graph(4, 2, seed=12)
        t1 = alg.run("diging", graphs.subsample_sequence(base, 0.7, 13),
                     mixing.metropolis, suite, 0.05, 60, x0="random", seed=14)
        t2 = alg.run("diging", graphs.subsample_sequence(base, 0.7, 13),
                     mixing.metropolis, suite, 0.05, 60, x0="random", seed=14)
        assert t1.same_rows(t2)
        assert t1.to_csv() == t2.to_csv()

    def test_kind_mismatch_rejected(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        with pytest.raises(ValueError):
            alg.run("diging", two_cycle_seq(), mixing.out_degree_column, suite,
                    0.1, 3)
        with pytest.raises(ValueError):
            alg.run("push-diging", two_clique_seq(), mixing.metropolis, suite,
                    0.1, 3)

    def test_schedule_rejected_on_fixed_step_method(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        problems = alg.input_problems("diging", two_clique_seq(), suite,
                                      schedule=True)
        assert len(problems) == 1 and "fixed step size" in problems[0]

    def test_early_termination_recorded(self):
        suite = zero_suite(2, 1)
        seq = graphs.static_sequence(graphs.directed(2, [(1, 2)]))
        trace = alg.run("push-diging", seq, mixing.out_degree_column, suite,
                        0.1, 3000, x0="random", seed=1, v_floor=0.4)
        assert trace.metadata["terminated"] is not None
        assert len(trace) < 3001

    def test_diverging_run_stops_at_first_nonfinite_residual(self):
        rng = np.random.default_rng(5)
        suite = quadratic_suite(rng.normal(size=(4, 2)), rng.uniform(0.5, 2.0, 4))
        seq = graphs.static_sequence(
            graphs.undirected(4, [(1, 2), (2, 3), (3, 4)]))
        with np.errstate(over="ignore", invalid="ignore"):
            trace = alg.run("diging", seq, mixing.metropolis, suite, 50.0, 2000,
                            x0="random", seed=1)
        assert not math.isfinite(trace.residual[-1])
        assert np.all(np.isfinite(trace.residual[:-1]))
        assert len(trace) < 2001
        assert trace.metadata["terminated"] == (
            f"residual is not finite at iteration {trace.k[-1]}")

    @pytest.mark.parametrize("alpha", [0.0, -0.1, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("algorithm", alg.ALGORITHMS)
    def test_step_size_must_be_positive_and_finite(self, algorithm, alpha):
        # for subgradient-push alpha is the scale a of a / sqrt(k + 1)
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        push = alg.METHODS[algorithm].push
        seq = two_cycle_seq() if push else two_clique_seq()
        rule, calls = TestMatrixReuse.counting(
            mixing.out_degree_column if push else mixing.metropolis)
        with pytest.raises(ValueError, match="step size must be positive"):
            alg.run(algorithm, seq, rule, suite, alpha, 10)
        assert calls == []   # refused before any iteration
        mat = rule(seq.snapshot(0))
        with pytest.raises(ValueError, match="step size must be positive"):
            alg.step(alg.METHODS[algorithm], alg.init(suite, np.ones((2, 1))), mat,
                     suite, alpha)

    def test_lockstep_member_with_a_bad_step_size_refused(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        rule, calls = TestMatrixReuse.counting(mixing.metropolis)
        with pytest.raises(ValueError, match="step size must be positive"):
            alg.run(("diging", "dgd", "diging-atc"), two_clique_seq(), rule, suite,
                    (0.1, 0.2, math.nan), 10)
        assert calls == []


def assert_same_trace(got, want):
    """Equal CSV bytes, metadata, audit series and recorded states."""
    assert got.to_csv() == want.to_csv()
    assert got.metadata == want.metadata
    for name in ("q_norm", "z_norm", "grad_norm"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()
    assert (got.xbar0_error, got.r0) == (want.xbar0_error, want.r0)
    assert (got.history is None) == (want.history is None)
    if got.history is not None:
        for s0, s1 in zip(got.history["states"], want.history["states"],
                          strict=True):
            assert s0.k == s1.k
            for name in ("u", "v", "x", "y", "grad"):
                assert getattr(s0, name).tobytes() == getattr(s1, name).tobytes()
        for m0, m1 in zip(got.history["mixers"], want.history["mixers"],
                          strict=True):
            assert m0.entries.tobytes() == m1.entries.tobytes()


class TestLockstep:
    """Members of one `run` call share each snapshot draw and mixing build,
    and each comes out as its own `run` would."""

    @pytest.mark.parametrize("p", [1, 3])
    def test_members_equal_solo_runs(self, p):
        rng = np.random.default_rng(30 + p)
        n = 6
        suite = quadratic_suite(rng.normal(size=(n, p)), rng.uniform(0.5, 2, n))
        base = graphs.random_connected_graph(n, 4, seed=31)
        cases = (
            (graphs.subsample_sequence(base, 0.6, 32), mixing.metropolis,
             ("diging", "diging-atc", "dgd", "diging"), (0.05, 0.08, 0.05, 0.02)),
            (graphs.subsample_sequence(base.as_directed(), 0.7, 33),
             mixing.out_degree_column,
             ("push-diging", "subgradient-push"), (0.04, 0.5)),
        )
        for seq, rule, algos, alphas in cases:
            kwargs = dict(x0="random", seed=34, record_audit=True,
                          record_states=True)
            traces = alg.run(algos, seq, rule, suite, alphas, 120, **kwargs)
            assert len(traces) == len(algos)
            for trace, algo, alpha in zip(traces, algos, alphas):
                assert_same_trace(trace, alg.run(algo, seq, rule, suite, alpha,
                                                 120, **kwargs))

    def test_mixed_sequences_and_rules_equal_solo_runs(self):
        # a subsample sequence under two rules, its directed view, and a
        # static sequence, over three draw blocks
        rng = np.random.default_rng(40)
        n = 6
        suite = quadratic_suite(rng.normal(size=(n, 2)), rng.uniform(0.5, 2, n))
        base = graphs.random_connected_graph(n, 4, seed=41)
        seq_w = graphs.subsample_sequence(base, 0.6, 42)
        seq_c = harness.directed_view(seq_w)
        members = (
            ("diging", seq_w, mixing.metropolis, 0.05),
            ("push-diging", seq_c, mixing.out_degree_column, 0.04),
            ("diging-atc", seq_w, mixing.lazy_metropolis, 0.08),
            ("dgd", graphs.static_sequence(base), mixing.metropolis, 0.05),
            ("subgradient-push", seq_c, mixing.out_degree_column, 0.5),
            ("diging", seq_w, mixing.metropolis, 0.02),
        )
        algos, seqs, rules, alphas = (tuple(c) for c in zip(*members))
        kwargs = dict(x0="random", seed=43, record_audit=True,
                      record_states=True)
        traces = alg.run(algos, seqs, rules, suite, alphas, 150, **kwargs)
        for trace, (algo, seq, rule, alpha) in zip(traces, members, strict=True):
            assert_same_trace(trace, alg.run(algo, seq, rule, suite, alpha, 150,
                                             **kwargs))
            assert trace.metadata["graph"] == seq.description
        # a one-member tuple of sequences or rules also gives a tuple
        (single,) = alg.run("diging", (seq_w,), mixing.metropolis, suite, 0.05,
                            150, **kwargs)
        assert_same_trace(single, traces[0])

    def test_shared_algorithm_or_step_size(self):
        suite = quadratic_suite(np.array([[0.0], [2.0], [1.0]]), np.ones(3))
        seq = graphs.static_sequence(graphs.undirected(3, [(1, 2), (2, 3)]))
        grid = alg.run("diging", seq, mixing.metropolis, suite, (0.05, 0.1), 30)
        methods = alg.run(("diging", "dgd"), seq, mixing.metropolis, suite,
                          0.1, 30)
        assert_same_trace(grid[1], methods[0])
        assert_same_trace(methods[1], alg.run("dgd", seq, mixing.metropolis,
                                              suite, 0.1, 30))
        (single,) = alg.run(("diging",), seq, mixing.metropolis, suite, 0.1, 30)
        assert_same_trace(single, methods[0])

    def test_members_end_independently(self):
        """A diverging member and one that breaks the push-sum floor each
        end with their own trace; the others go on. Push-sum weights do not
        depend on the method, so every push member of one call breaks the
        floor at the same iteration, and a converging member runs on the
        undirected sequence."""
        rng = np.random.default_rng(5)
        suite = quadratic_suite(rng.normal(size=(4, 2)), rng.uniform(0.5, 2.0, 4))
        seq = graphs.static_sequence(
            graphs.undirected(4, [(1, 2), (2, 3), (3, 4)]))
        algos, alphas = ("diging", "diging-atc"), (50.0, 0.05)
        traces = alg.run(algos, seq, mixing.metropolis, suite, alphas, 2000,
                         x0="random", seed=1)
        for trace, algo, alpha in zip(traces, algos, alphas):
            assert_same_trace(trace, alg.run(algo, seq, mixing.metropolis, suite,
                                             alpha, 2000, x0="random", seed=1))
        diverged, converged = traces
        assert diverged.metadata["terminated"].startswith("residual is not finite")
        assert len(diverged) < 2001
        assert converged.metadata["terminated"] is None
        assert len(converged) == 2001 and converged.residual[-1] < 1e-10

        # vertex 1 only sends, so its push-sum weight halves every iteration
        suite = quadratic_suite(rng.normal(size=(2, 2)), rng.uniform(0.5, 2.0, 2))
        seq = graphs.static_sequence(graphs.directed(2, [(1, 2)]))
        algos, alphas = ("push-diging", "subgradient-push"), (50.0, 0.5)
        traces = alg.run(algos, seq, mixing.out_degree_column, suite, alphas, 100,
                         x0="random", seed=1, v_floor=1e-9)
        for trace, algo, alpha in zip(traces, algos, alphas):
            assert_same_trace(trace, alg.run(
                algo, seq, mixing.out_degree_column, suite, alpha, 100,
                x0="random", seed=1, v_floor=1e-9))
        diverged, violated = traces
        assert diverged.metadata["terminated"].startswith("residual is not finite")
        assert violated.metadata["terminated"].startswith(
            "push-sum weight degenerated")
        assert len(diverged) < len(violated) < 101

    def test_unequal_tuples_rejected(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        with pytest.raises(ValueError, match="differ in length"):
            alg.run(("diging", "dgd"), two_clique_seq(), mixing.metropolis,
                    suite, (0.1, 0.2, 0.3), 5)
        with pytest.raises(ValueError, match="algorithm 2 and seq 3"):
            alg.run(("diging", "dgd"), (two_clique_seq(),) * 3,
                    mixing.metropolis, suite, 0.1, 5)
        with pytest.raises(ValueError, match="alpha 1 and rule 2"):
            alg.run("diging", two_clique_seq(), (mixing.metropolis,) * 2,
                    suite, (0.1,), 5)
        with pytest.raises(ValueError, match="at least one member"):
            alg.run((), two_clique_seq(), mixing.metropolis, suite, 0.1, 5)

    def test_negative_iterations_rejected(self):
        suite = quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        with pytest.raises(ValueError, match="nonnegative"):
            alg.run("diging", two_clique_seq(), mixing.metropolis, suite, 0.1, -1)


class TestMatrixReuse:
    """`run` asks the rule for a matrix once per block, and that build
    serves every slice of the block."""

    @staticmethod
    def counting(rule):
        calls = []

        def counted(snap):
            calls.append(snap)
            return rule(snap)
        return counted, calls

    def test_static_sequence_builds_once_per_run(self):
        suite = quadratic_suite(np.array([[0.0], [2.0], [1.0]]), np.ones(3))
        seq = graphs.static_sequence(graphs.undirected(3, [(1, 2), (2, 3)]))
        rule, calls = self.counting(mixing.metropolis)
        for algorithm in ("diging", "diging-atc", "dgd"):
            before = len(calls)
            alg.run(algorithm, seq, rule, suite, 0.1, 50)
            assert len(calls) - before == 1

    def test_equal_snapshots_share_a_build(self):
        # the directed view of a static sequence is the directed twin of its
        # one block, which serves every iteration
        suite = zero_suite(3, 1)
        base = graphs.static_sequence(graphs.undirected(3, [(1, 2), (2, 3)]))
        seq = graphs.directed_view(base)
        assert seq.snapshot(1) == seq.snapshot(0)
        assert seq.snapshot(1).block == (base.snapshots(0).directed, 1)
        rule, calls = self.counting(mixing.out_degree_column)
        trace = alg.run("push-diging", seq, rule, suite, 0.1, 40, x0="random")
        assert len(calls) == 1
        assert len(trace) == 41

    def test_changing_snapshots_read_one_build(self):
        # a periodic sequence's period is one block: the rule is asked at
        # its first slice, and that build serves each snapshot change
        suite = zero_suite(3, 1)
        a = graphs.undirected(3, [(1, 2)])
        b = graphs.undirected(3, [(2, 3)])
        seq = graphs.periodic_sequence([a, a, b], declared_B=3)
        rule, calls = self.counting(mixing.metropolis)
        trace = alg.run("diging", seq, rule, suite, 0.1, 9, x0="random",
                        record_states=True)
        assert calls == [a] and calls[0].block == (seq.snapshots(0), 0)
        assert [m.entries.tobytes() for m in trace.history["mixers"]] == [
            mixing.metropolis((a, a, b)[k % 3]).entries.tobytes() for k in range(9)]

    @pytest.mark.parametrize("members", [1, 2, 4])
    def test_lockstep_draws_once_per_iteration(self, members):
        suite = zero_suite(3, 1)
        a = graphs.undirected(3, [(1, 2)])
        b = graphs.undirected(3, [(2, 3)])
        periodic = graphs.periodic_sequence([a, a, b], declared_B=3)
        draws = []

        def drawn(s, t):
            draws.append(t)
            return graphs.GraphBlock(graphs.UNDIRECTED, periodic.snapshot(t).adj[None])

        seq = graphs.GraphSequence(3, graphs.UNDIRECTED, 1, drawn)
        rule, calls = self.counting(mixing.metropolis)
        traces = alg.run(("diging", "diging-atc", "dgd", "diging")[:members],
                         seq, rule, suite, 0.1, 9, x0="random")
        assert draws == list(range(9))
        # each iteration is a fresh block, asked about once for every member
        assert calls == [(a, a, b)[k % 3] for k in range(9)]
        assert all(len(trace) == 10 for trace in traces)

    def test_periodic_sequence_serves_chunks(self):
        # a draw that hands back one block for every block is drawn for each
        # block, and the build the rule was asked for once serves them all
        suite = zero_suite(3, 1)
        a = graphs.undirected(3, [(1, 2)])
        b = graphs.undirected(3, [(2, 3)])
        period = graphs.GraphBlock(graphs.UNDIRECTED, np.stack([a.adj, a.adj, b.adj]))
        draws = []

        def drawn(s, t):
            draws.append(t)
            return period

        seq = graphs.GraphSequence(3, graphs.UNDIRECTED, 3, drawn)
        rule, calls = self.counting(mixing.metropolis)
        trace = alg.run("diging", seq, rule, suite, 0.1, 200, x0="random")
        assert draws == list(range(67))
        assert calls == [a] and calls[0].block == (period, 0)
        # a periodic sequence's one block, and the same periods drawn anew
        # per block, give that trace
        periodic = graphs.periodic_sequence([a, a, b])
        fresh = graphs.GraphSequence(3, graphs.UNDIRECTED, 3, lambda s, t:
                                     graphs.GraphBlock(graphs.UNDIRECTED, period.adj.copy()))
        for other in (periodic, fresh):
            assert trace.to_csv() == alg.run("diging", other, mixing.metropolis, suite,
                                             0.1, 200, x0="random").to_csv()

    def test_static_chunk_is_one_run(self):
        # an aligned chunk of a static sequence is one run of its one
        # block's build, stepped on as a view of it
        seq = graphs.static_sequence(graphs.undirected(3, [(1, 2), (2, 3)]))
        group = alg._Group(mixing.metropolis, alg.METHODS["diging"])
        alg._serve(seq, [group], 0, alg._CHUNK)
        alg._serve(seq, [group], alg._CHUNK, 2 * alg._CHUNK)
        assert group.runs == [(group.mat, seq.snapshots(1), 0, alg._CHUNK)]
        assert np.shares_memory(group.stack(), group.mat.source[0][0])
        assert len(group.stack()) == alg._CHUNK
        assert len(group.matrices()) == alg._CHUNK


    def test_directed_view_reads_the_drawn_block(self, monkeypatch):
        # a subsample sequence and its directed view in one call make one
        # link draw per iteration; in two calls every block is drawn twice
        suite = zero_suite(6, 1)
        seq_w = graphs.subsample_sequence(
            graphs.random_connected_graph(6, 4, seed=50), 0.5, 51)
        seq_c = harness.directed_view(seq_w)
        real, keys = streams.seed_state, []

        def counted(rows, words):
            keys.extend(rows)
            return real(rows, words)

        monkeypatch.setattr(streams, "seed_state", counted)
        iterations = 2 * graphs._BLOCK
        alg.run(("diging", "push-diging"), (seq_w, seq_c),
                (mixing.metropolis, mixing.out_degree_column), suite, 0.1,
                iterations)
        assert keys == [(51, k) for k in range(iterations)]
        keys.clear()
        alg.run("diging", seq_w, mixing.metropolis, suite, 0.1, iterations)
        alg.run("push-diging", seq_c, mixing.out_degree_column, suite, 0.1,
                iterations)
        assert keys == [(51, k) for k in range(iterations)] * 2

    def test_seed_copies_keep_their_own_blocks(self, monkeypatch):
        # a copy on another seed shares the generator closure, but not its
        # kept block: in one lockstep call each (seed, k) is drawn once
        suite = zero_suite(12, 1)
        a = graphs.subsample_sequence(
            graphs.random_connected_graph(12, 8, seed=70), 0.5, 70)
        b = dataclasses.replace(a, seed=71)
        real, keys = streams.seed_state, []

        def counted(rows, words):
            keys.extend(rows)
            return real(rows, words)

        monkeypatch.setattr(streams, "seed_state", counted)
        iterations = 4 * graphs._BLOCK
        alg.run(("diging", "diging"), (a, b), mixing.metropolis, suite, 0.1,
                iterations, x0="random")
        assert sorted(keys) == sorted((s, k) for s in (70, 71)
                                      for k in range(iterations))
        for seed in (70, 71):
            assert [key for key in keys if key[0] == seed] == [
                (seed, k) for k in range(iterations)]


def oracle_series(trace, x_star):
    """Every series of an audited trace with recorded states, recomputed
    state by state with np.linalg.norm and consensus_violation."""
    method = alg.METHODS[trace.metadata["algorithm"]]
    nan = float("nan")
    states = trace.history["states"]
    r0 = np.linalg.norm(states[0].x - x_star)
    out = {name: [] for name in alg._SERIES}
    prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        for st in states:
            q = np.linalg.norm(st.x - x_star)
            y = st.y / st.v[:, None] if method.push else st.y
            out["residual"].append(q / r0 if r0 > 0 else q)
            out["cons_viol_x"].append(mixing.consensus_violation(st.x))
            out["cons_viol_y"].append(
                mixing.consensus_violation(y) if method.tracking else nan)
            out["conservation_err"].append(
                np.linalg.norm(st.y.sum(axis=0) - st.grad.sum(axis=0))
                if method.tracking else nan)
            out["v_min"].append(st.v.min() if method.push else nan)
            out["q_norm"].append(q)
            out["z_norm"].append(0.0 if prev is None
                                 else np.linalg.norm(st.grad - prev))
            out["grad_norm"].append(np.linalg.norm(st.grad))
            prev = st.grad
    return {name: np.array(values, dtype=float) for name, values in out.items()}


def assert_matches_oracle(trace, x_star):
    """Bit-equal to the oracle in every series, NaN where it has NaN."""
    assert len(trace.history["states"]) == len(trace)
    for name, want in oracle_series(trace, x_star).items():
        got = np.asarray(getattr(trace, name), dtype=float)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), name
        assert got[~nan].tobytes() == want[~nan].tobytes(), name


class TestChunkedRecording:
    """The residual is recorded per iteration and the other series in
    batches of `_CHUNK` states; each value equals its per-state oracle."""

    ALPHAS = {"diging": 0.05, "diging-atc": 0.08, "dgd": 0.05,
              "push-diging": 0.04, "subgradient-push": 0.5}

    @pytest.mark.parametrize("iterations", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize("p", [1, 3])
    def test_chunk_boundaries(self, iterations, p):
        assert alg._CHUNK == 64
        rng = np.random.default_rng(40 + p)
        n = 6
        suite = quadratic_suite(rng.normal(size=(n, p)), rng.uniform(0.5, 2, n))
        base = graphs.random_connected_graph(n, 4, seed=41)
        for algo, alpha in self.ALPHAS.items():
            if alg.METHODS[algo].push:
                seq = graphs.subsample_sequence(base.as_directed(), 0.7, 42)
                rule = mixing.out_degree_column
            else:
                seq = graphs.subsample_sequence(base, 0.6, 42)
                rule = mixing.metropolis
            trace = alg.run(algo, seq, rule, suite, alpha, iterations,
                            x0="random", seed=43, x_star=suite.x_star,
                            record_audit=True, record_states=True)
            assert len(trace) == iterations + 1
            assert trace.metadata["terminated"] is None
            assert_matches_oracle(trace, suite.x_star)

    @pytest.mark.parametrize("p", [1, 3])
    def test_noncontiguous_start(self, p):
        """A start block that is transposed or strided gives the trace of
        its contiguous copy, at n = 12 where column sums are pairwise. At
        this seed r0 summed in Fortran order differs in the last bit."""
        rng = np.random.default_rng(47)
        n = 12
        suite = quadratic_suite(rng.normal(size=(n, p)), rng.uniform(0.5, 2, n))
        base = graphs.random_connected_graph(n, 20, seed=45)
        x0 = rng.normal(size=(n, p)) * 1e3
        for layout in (np.asfortranarray(x0), np.ascontiguousarray(x0.T).T,
                       np.repeat(x0, 2, axis=0)[::2]):
            for algo, alpha in self.ALPHAS.items():
                base_seq = base.as_directed() if alg.METHODS[algo].push else base
                seq = graphs.subsample_sequence(base_seq, 0.6, 46)
                rule = (mixing.out_degree_column if alg.METHODS[algo].push
                        else mixing.metropolis)
                kwargs = dict(x_star=suite.x_star, record_audit=True,
                              record_states=True)
                trace = alg.run(algo, seq, rule, suite, alpha, 70, x0=layout,
                                **kwargs)
                assert_matches_oracle(trace, suite.x_star)
                want = alg.run(algo, seq, rule, suite, alpha, 70, x0=x0, **kwargs)
                assert trace.to_csv() == want.to_csv()

    def test_member_ends_mid_chunk_on_nonfinite_residual(self):
        rng = np.random.default_rng(5)
        suite = quadratic_suite(rng.normal(size=(4, 2)), rng.uniform(0.5, 2.0, 4))
        seq = graphs.static_sequence(
            graphs.undirected(4, [(1, 2), (2, 3), (3, 4)]))
        diverged, converged = alg.run(
            ("diging", "diging-atc"), seq, mixing.metropolis, suite,
            (50.0, 0.05), 150, x0="random", seed=1, x_star=suite.x_star,
            record_audit=True, record_states=True)
        assert diverged.metadata["terminated"].startswith("residual is not finite")
        assert alg._CHUNK < diverged.k[-1] < 2 * alg._CHUNK - 1
        assert converged.metadata["terminated"] is None
        assert len(converged) == 151
        for trace in (diverged, converged):
            assert_matches_oracle(trace, suite.x_star)

    @pytest.mark.parametrize("objective, floor", [("quadratic", 1e-9),
                                                  ("zero", 1e-21)])
    def test_member_ends_mid_chunk_on_push_sum_violation(self, objective, floor):
        # vertex 1 only sends, so its weight halves every iteration
        rng = np.random.default_rng(6)
        suite = (quadratic_suite(rng.normal(size=(2, 3)), rng.uniform(0.5, 2, 2))
                 if objective == "quadratic" else zero_suite(2, 3))
        seq = graphs.static_sequence(graphs.directed(2, [(1, 2)]))
        x0 = rng.normal(size=(2, 3))
        x_star = x0.mean(axis=0) if suite.x_star is None else suite.x_star
        traces = alg.run(("push-diging", "subgradient-push"), seq,
                         mixing.out_degree_column, suite, (1e-3, 1e-3), 200,
                         x0=x0, x_star=x_star, v_floor=floor,
                         record_audit=True, record_states=True)
        for trace in traces:
            assert trace.metadata["terminated"].startswith(
                "push-sum weight degenerated")
            assert trace.k[-1] % alg._CHUNK not in (0, alg._CHUNK - 1)
            assert_matches_oracle(trace, x_star)

    def test_audit_series_do_not_change_the_trace(self):
        rng = np.random.default_rng(7)
        suite = quadratic_suite(rng.normal(size=(5, 2)), rng.uniform(0.5, 2, 5))
        base = graphs.random_connected_graph(5, 3, seed=8)
        seq = graphs.subsample_sequence(base, 0.6, 9)
        kwargs = dict(x0="random", seed=10)
        plain, audited = (
            alg.run(("diging", "dgd"), seq, mixing.metropolis, suite, 0.05, 130,
                    record_audit=audit, **kwargs) for audit in (False, True))
        for got, want in zip(plain, audited):
            assert got.to_csv() == want.to_csv()
            assert got.metadata == want.metadata
            assert got.q_norm is got.z_norm is got.grad_norm is None
            assert got.xbar0_error is got.r0 is None
            assert want.z_norm is not None


def stepped(algo, seq, rule, suite, alpha, iterations, x0, x_star, v_floor=None):
    """A run made by one preset call per iteration, each on the rule's
    matrix of that iteration's snapshot: its states, matrices and end."""
    method = alg.METHODS[algo]
    preset = getattr(alg, algo.replace("-", "_") + "_step")
    state = alg.init(suite, x0)
    states, mixers, terminated = [state], [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iterations + 1):
            if not math.isfinite(np.linalg.norm(state.x - x_star)):
                terminated = f"residual is not finite at iteration {state.k}"
                break
            if k == iterations:
                break
            mat = rule(seq.snapshot(k))
            a = alpha / math.sqrt(k + 1) if method.diminishing else alpha
            try:
                state = preset(state, mat, suite, a, v_floor=v_floor)
            except alg.PushSumViolation as exc:
                terminated = str(exc)
                break
            states.append(state)
            mixers.append(mat)
    return states, mixers, terminated


def assert_equals_step_loop(trace, seq, rule, suite, x0, x_star, tmp_path,
                            v_floor=None):
    """`trace`, an audited run with recorded states, equals the run its
    preset makes one call per iteration: states, matrices, trace CSV and
    sidecar, byte for byte."""
    meta = trace.metadata
    states, mixers, terminated = stepped(meta["algorithm"], seq, rule, suite,
                                         meta["alpha"], meta["iterations"],
                                         x0, x_star, v_floor)
    assert meta["terminated"] == terminated
    want = dataclasses.replace(trace, history={"states": states, "mixers": mixers})
    series = oracle_series(want, x_star)
    want = dataclasses.replace(want, k=np.arange(len(states)), **series)
    assert_same_trace(trace, want)
    trace.write(tmp_path / "run.csv")
    want.write(tmp_path / "loop.csv")
    for suffix in ("", ".audit.json"):
        assert (tmp_path / f"run.csv{suffix}").read_bytes() == \
            (tmp_path / f"loop.csv{suffix}").read_bytes()


def chunk_cases():
    """(label, sequence, rule, methods) over drawn blocks aligned with the
    chunk and not, one-slice blocks, directed views, a custom matrix and
    custom matrices that differ by snapshot."""
    base = graphs.random_connected_graph(6, 4, seed=141)
    a, b = graphs.undirected(6, [(1, 2), (3, 4)]), graphs.undirected(6, [(2, 3), (5, 6)])
    periodic = graphs.periodic_sequence([a, b, a, a, base], declared_B=5)
    custom = mixing.custom_mixing(np.full((6, 6), 1 / 6), mixing.DOUBLY)
    # a custom matrix per snapshot, by its link count
    customs = [mixing.custom_mixing(m, mixing.DOUBLY) for m in (
        np.full((6, 6), 1 / 6), np.eye(6), mixing.metropolis(base).entries)]

    def by_snapshot(snap):
        return customs[int(snap.adj.sum()) % len(customs)]

    undirected = ("diging", "diging-atc", "dgd")
    push = ("push-diging", "subgradient-push")
    cases = [
        ("subsample", graphs.subsample_sequence(base, 0.6, 142), mixing.metropolis),
        ("b3", graphs.block_connected_sequence(6, 3, 143, 2), mixing.lazy_metropolis),
        ("b70", graphs.block_connected_sequence(6, 70, 144, 2), mixing.metropolis),
        ("period5", periodic, mixing.metropolis),
        ("static", graphs.static_sequence(base), mixing.metropolis),
        ("custom", graphs.subsample_sequence(base, 0.6, 145), lambda snap: custom),
        ("custom-period5", periodic, by_snapshot),
        ("custom-subsample", graphs.subsample_sequence(base, 0.6, 149), by_snapshot),
    ]
    out = [(label, seq, rule, undirected) for label, seq, rule in cases]
    out += [(label + "-view", harness.directed_view(seq), rule
             if label.startswith("custom") else mixing.out_degree_column, push)
            for label, seq, rule in cases]
    return out


class TestChunkedStepping:
    """`run` steps each member `_CHUNK` iterations per preset call, on
    matrices read from the drawn block's build; the result equals one
    preset call per iteration."""

    ALPHAS = TestChunkedRecording.ALPHAS

    @pytest.mark.parametrize("iterations", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize("label, seq, rule, methods", chunk_cases(),
                             ids=[case[0] for case in chunk_cases()])
    def test_run_equals_step_loop(self, iterations, label, seq, rule, methods,
                                  tmp_path):
        rng = np.random.default_rng(146)
        suite = quadratic_suite(rng.normal(size=(6, 2)), rng.uniform(0.5, 2, 6))
        x0 = rng.normal(size=(6, 2))
        for algo in methods:
            trace = alg.run(algo, seq, rule, suite, self.ALPHAS[algo], iterations,
                            x0=x0, record_audit=True, record_states=True)
            assert len(trace) == iterations + 1
            assert_equals_step_loop(trace, seq, rule, suite, x0, suite.x_star,
                                    tmp_path)

    def test_members_end_mid_chunk_others_go_on(self, tmp_path):
        """A push member breaks the floor, one member diverges, and the
        members on a drawn sequence run to the end, each as alone."""
        rng = np.random.default_rng(147)
        suite = quadratic_suite(rng.normal(size=(4, 2)), rng.uniform(0.5, 2, 4))
        x0 = rng.normal(size=(4, 2))
        # vertex 1 only sends: its push-sum weight halves every iteration
        leaky = graphs.static_sequence(graphs.directed(4, [(1, 2), (2, 3), (3, 4),
                                                          (4, 2)]))
        path = graphs.static_sequence(graphs.undirected(4, [(1, 2), (2, 3), (3, 4)]))
        drawn = graphs.subsample_sequence(graphs.undirected(
            4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]), 0.7, 148)
        members = (
            ("push-diging", leaky, mixing.out_degree_column, 0.02),
            ("diging", path, mixing.metropolis, 50.0),
            ("diging-atc", drawn, mixing.metropolis, 0.05),
            ("push-diging", harness.directed_view(drawn), mixing.out_degree_column, 0.02),
            ("subgradient-push", leaky, mixing.out_degree_column, 0.5),
        )
        algos, seqs, rules, alphas = (tuple(c) for c in zip(*members))
        kwargs = dict(x0=x0, x_star=suite.x_star, v_floor=1e-9, record_audit=True,
                      record_states=True)
        traces = alg.run(algos, seqs, rules, suite, alphas, 200, **kwargs)
        for trace, (algo, seq, rule, alpha) in zip(traces, members, strict=True):
            assert_same_trace(trace, alg.run(algo, seq, rule, suite, alpha, 200,
                                             **kwargs))
            assert_equals_step_loop(trace, seq, rule, suite, x0, suite.x_star,
                                    tmp_path, v_floor=1e-9)
        ends = [trace.metadata["terminated"] for trace in traces]
        assert ends[0].startswith("push-sum weight degenerated: min weight")
        assert ends[1].startswith("residual is not finite at iteration")
        assert ends[2] is ends[3] is None and ends[4] == ends[0]
        for trace in (traces[0], traces[1]):
            assert trace.k[-1] % alg._CHUNK not in (0, alg._CHUNK - 1)
        assert len(traces[2]) == len(traces[3]) == 201

    @pytest.mark.parametrize("make, size", [
        (lambda: graphs.subsample_sequence(graphs.random_connected_graph(6, 4, 150),
                                           0.5, 151), 64),
        (lambda: graphs.block_connected_sequence(6, 3, 152, 1), 63),
        (lambda: graphs.block_connected_sequence(6, 70, 153, 1), 70),
    ], ids=["subsample", "b3", "b70"])
    def test_rule_asked_once_per_drawn_block(self, make, size):
        seq = make()
        rule, calls = TestMatrixReuse.counting(mixing.metropolis)
        iterations = 3 * 64 + 5
        alg.run(("diging", "dgd"), seq, rule, zero_suite(6, 1), 0.1, iterations,
                x0="random")
        blocks = range(-(-iterations // size))
        assert [snap.block[1] for snap in calls] == [0] * len(blocks)
        assert [snap.adj_bytes for snap in calls] == [
            seq.snapshot(t * size).adj_bytes for t in blocks]

    @staticmethod
    def faulty(mode, slice_):
        """Metropolis with the build of each block replaced by one certified
        in `mode`, slice `slice_` of it off by 1e-6."""
        def rule(snap):
            block = snap.block[0]
            if "metropolis" not in block.built:
                stack = mixing._metropolis_weights(block.adj, lazy=False)
                stack[slice_, 0, 0] += 1e-6
                stack.flags.writeable = False
                block.built["metropolis"] = (stack, mixing._certify(stack, mode))
            return mixing.metropolis(snap)
        return rule

    def test_member_refused_a_slice_it_cannot_step_on(self):
        suite = zero_suite(6, 1)
        base = graphs.random_connected_graph(6, 4, seed=154)
        seq = graphs.subsample_sequence(base, 0.6, 155)
        # slices 0 .. 9 pass; slice 10 fails, whether it opens a chunk or not
        alg.run("diging", seq, self.faulty(mixing.DOUBLY, 10), suite, 0.1, 10)
        for iterations in (11, 64, 75):
            with pytest.raises(alg.CertificateError, match="no valid"):
                alg.run("diging", graphs.subsample_sequence(base, 0.6, 155),
                        self.faulty(mixing.DOUBLY, 10), suite, 0.1, iterations)
        # a column stochastic build certifies nothing DIGing steps on
        with pytest.raises(alg.CertificateError,
                           match="need a doubly stochastic matrix, got column"):
            alg.run("diging", graphs.subsample_sequence(base, 0.6, 156),
                    self.faulty(mixing.COLUMN, 40), suite, 0.1, 5)
        # nor does a matrix certified column stochastic only, second in a
        # chunk; custom matrices are asked for at each slice
        a, b = graphs.undirected(6, [(1, 2)]), graphs.undirected(6, [(2, 3)])
        doubly = mixing.custom_mixing(np.full((6, 6), 1 / 6), mixing.DOUBLY)
        column = mixing.custom_mixing(np.full((6, 6), 1 / 6), mixing.COLUMN)

        def rule(snap):
            return column if snap == b else doubly

        seq = graphs.periodic_sequence([a, a, b])
        alg.run("push-diging", harness.directed_view(seq), lambda snap: column,
                suite, 0.1, 5)
        alg.run("diging", seq, rule, suite, 0.1, 2)
        with pytest.raises(alg.CertificateError, match="got column"):
            alg.run("diging", seq, rule, suite, 0.1, 3)

    def test_wrapped_segment_refused_a_failing_slice(self):
        # a chunk of a periodic sequence that opens mid-period runs past the
        # end of its 66-slice block: failing slice 0 is first met in the
        # next block, and the group refuses the run it serves
        a, b = graphs.undirected(6, [(1, 2)]), graphs.undirected(6, [(2, 3)])
        seq = graphs.periodic_sequence([a, b, b])
        group = alg._Group(self.faulty(mixing.DOUBLY, 0), alg.METHODS["diging"])
        with pytest.raises(alg.CertificateError, match="no valid"):
            alg._serve(seq, [group], alg._CHUNK, 2 * alg._CHUNK)
        assert [run[2:] for run in group.runs] == [(64, 66), (0, alg._CHUNK - 2)]

    @staticmethod
    def four_groups_members(rule):
        """DIGing and DGD on a subsample sequence and `rule`, Push-DIGing and
        subgradient-push on its directed view: two groups."""
        seq = graphs.subsample_sequence(graphs.random_connected_graph(6, 4, 157), 0.6, 158)
        view = harness.directed_view(seq)
        return dict(algorithm=("diging", "dgd", "push-diging", "subgradient-push"),
                    seq=(seq, seq, view, view),
                    rule=(rule, rule, mixing.out_degree_column, mixing.out_degree_column),
                    alpha=(0.1, 0.1, 0.05, 0.5))

    def test_each_group_checks_the_runs_it_serves(self, monkeypatch):
        # 130 iterations are three chunks, each one run of one drawn block
        # per group: one check per group per run, not one per member
        checked = []
        require = alg._require

        def counted(method, cert):
            checked.append(method.push)
            require(method, cert)

        monkeypatch.setattr(alg, "_require", counted)
        alg.run(**self.four_groups_members(mixing.metropolis), suite=zero_suite(6, 1),
                iterations=130, x0="random")
        assert checked == [False, True] * 3

    def test_group_refuses_a_build_failing_mid_chunk(self):
        # the second block's build fails at slice 10, iteration 74 of chunk 2
        def rule(snap):
            block = snap.block[0]
            if block is not first and "metropolis" not in block.built:
                stack = mixing._metropolis_weights(block.adj, lazy=False)
                stack[10, 0, 0] += 1e-6
                stack.flags.writeable = False
                block.built["metropolis"] = (stack, mixing._certify(stack, mixing.DOUBLY))
            return mixing.metropolis(snap)

        for iterations in (74, 75, 130):
            members = self.four_groups_members(rule)
            first = members["seq"][0].snapshots(0)
            if iterations == 74:
                alg.run(**members, suite=zero_suite(6, 1), iterations=iterations)
                continue
            with pytest.raises(alg.CertificateError, match="^mixing matrix carries no "
                               "valid stochasticity certificate$"):
                alg.run(**members, suite=zero_suite(6, 1), iterations=iterations)


class TestBatchedStepping:
    """All live members of a `run` call step each chunk as one batch, in one
    `step` call on state with a member axis; each member's trace, sidecar
    and states equal its own per-iteration loop's, byte for byte."""

    ALPHAS = TestChunkedRecording.ALPHAS
    FIVE = ("diging", "diging-atc", "dgd", "push-diging", "subgradient-push")

    def members(self, base, alphas=None):
        """The five methods in one call: the undirected ones on `base`, the
        push ones on its directed view."""
        view = harness.directed_view(base)
        push = [alg.METHODS[a].push for a in self.FIVE]
        return (self.FIVE, tuple(view if p else base for p in push),
                tuple(mixing.out_degree_column if p else mixing.metropolis
                      for p in push),
                tuple((alphas or self.ALPHAS)[a] for a in self.FIVE))

    def assert_each_alone(self, traces, members, suite, x0, x_star, tmp_path,
                          v_floor=None):
        kwargs = dict(x0=x0, x_star=x_star, v_floor=v_floor, record_audit=True,
                      record_states=True)
        for trace, (algo, seq, rule, alpha) in zip(traces, zip(*members), strict=True):
            iterations = trace.metadata["iterations"]
            assert_same_trace(trace, alg.run(algo, seq, rule, suite, alpha,
                                             iterations, **kwargs))
            assert_equals_step_loop(trace, seq, rule, suite,
                                    np.ascontiguousarray(x0), x_star, tmp_path,
                                    v_floor=v_floor)

    @pytest.mark.parametrize("iterations", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize("p", [1, 3])
    def test_five_methods_equal_their_step_loops(self, iterations, p, tmp_path):
        # the Huber suite's stacked oracle, a Fortran-ordered start and drawn
        # blocks of 63 slices, which chunks of 64 straddle
        rng = np.random.default_rng(160 + p)
        suite = huber_regression_suite([rng.normal(size=(3, p)) for _ in range(6)],
                                       [3.0 * rng.normal(size=3) for _ in range(6)],
                                       xi=1.0)
        x_star = solve_reference(suite).x_star
        x0 = np.asfortranarray(rng.normal(size=(6, p)))
        members = self.members(graphs.block_connected_sequence(6, 3, 162, 2))
        traces = alg.run(*members[:3], suite, members[3], iterations, x0=x0,
                         x_star=x_star, record_audit=True, record_states=True)
        assert [len(trace) for trace in traces] == [iterations + 1] * 5
        self.assert_each_alone(traces, members, suite, x0, x_star, tmp_path)

    def test_members_end_in_one_chunk(self, tmp_path):
        """DGD diverges and both push members breach the floor inside the
        second chunk of one five-method call; the other two go on. The
        quadratic suite's gradients are unbounded, so DGD can overflow."""
        rng = np.random.default_rng(163)
        suite = quadratic_suite(rng.normal(size=(6, 2)), rng.uniform(0.5, 2, 6))
        x0 = rng.normal(size=(6, 2))
        members = self.members(graphs.block_connected_sequence(6, 3, 164, 2),
                               dict(self.ALPHAS, dgd=20.0))
        # the floor just above the push-sum weights' first record low in the
        # second chunk: the push members breach there
        v_min = alg.run("push-diging", members[1][3], members[2][3], suite, 0.04,
                        2 * alg._CHUNK, x0=x0, x_star=suite.x_star).v_min
        low = next(k for k in range(alg._CHUNK + 1, 2 * alg._CHUNK)
                   if v_min[k] < v_min[:k].min())
        floor = float(np.nextafter(v_min[low], np.inf))
        traces = alg.run(*members[:3], suite, members[3], 200, x0=x0,
                         x_star=suite.x_star, v_floor=floor, record_audit=True,
                         record_states=True)
        ends = [trace.metadata["terminated"] for trace in traces]
        assert ends[0] is ends[1] is None
        assert ends[2] == f"residual is not finite at iteration {traces[2].k[-1]}"
        assert ends[3] == ends[4] and ends[3].startswith(
            f"push-sum weight degenerated: min weight {v_min[low]:.3e} at "
            f"iteration {low} (floor")
        for trace in traces[2:]:
            assert alg._CHUNK < trace.k[-1] < 2 * alg._CHUNK - 1
        self.assert_each_alone(traces, members, suite, x0, suite.x_star, tmp_path,
                               v_floor=floor)

    def test_zero_weight_ends_a_member_without_warnings(self, tmp_path):
        # vertex 1 only sends: its weight halves each iteration until it is
        # zero at iteration 1075, with no floor; dividing by it would warn
        suite = zero_suite(4, 2)
        x0 = np.random.default_rng(165).normal(size=(4, 2))
        leaky = graphs.static_sequence(graphs.directed(4, [(1, 2), (2, 3), (3, 4),
                                                          (4, 2)]))
        path = graphs.static_sequence(graphs.undirected(4, [(1, 2), (2, 3), (3, 4)]))
        members = (("push-diging", "subgradient-push", "diging"), (leaky, leaky, path),
                   (mixing.out_degree_column, mixing.out_degree_column,
                    mixing.metropolis), (0.02, 0.5, 0.05))
        traces = alg.run(*members[:3], suite, members[3], 1100, x0=x0,
                         x_star=x0.mean(axis=0), record_audit=True,
                         record_states=True)
        want = "push-sum weight degenerated: min weight 0.000e+00 at iteration 1075"
        assert [trace.metadata["terminated"] for trace in traces] == [want, want, None]
        self.assert_each_alone(traces, members, suite, x0, x0.mean(axis=0), tmp_path)


class TestConstantRule:
    """A config's custom matrix is served by `mixing.constant_rule`: one
    read-only build per block, so `run` asks it once per block, and every
    trace equals the one a rule asked at every slice gives."""

    @pytest.mark.parametrize("make, blocks", [
        (lambda: graphs.static_sequence(graphs.random_connected_graph(6, 4, 170)), 1),
        (lambda: graphs.subsample_sequence(graphs.random_connected_graph(6, 4, 171),
                                           0.6, 172), 4),
    ], ids=["static", "subsample"])
    def test_asked_once_per_block(self, make, blocks, tmp_path):
        rng = np.random.default_rng(173)
        suite = quadratic_suite(rng.normal(size=(6, 2)), rng.uniform(0.5, 2, 6))
        custom = mixing.custom_mixing(mixing.lazy_metropolis(
            graphs.random_connected_graph(6, 4, 174)).entries, mixing.DOUBLY)
        constant = mixing.constant_rule(custom)
        assert constant.matrix is custom
        rule, calls = TestMatrixReuse.counting(constant)
        seq = make()
        kwargs = dict(x0="random", seed=175, record_audit=True, record_states=True)
        got = alg.run(("diging", "dgd"), seq, rule, suite, 0.05, 3 * 64 + 5, **kwargs)
        assert len(calls) == blocks
        block, _ = calls[0].block
        stack, _ = block.built[constant]   # the block's build, kept on it
        assert not stack.flags.writeable and stack.shape == (len(block.adj), 6, 6)
        assert all(s.tobytes() == custom.entries.tobytes() for s in stack)
        want = alg.run(("diging", "dgd"), make(), lambda snap: custom, suite, 0.05,
                       3 * 64 + 5, **kwargs)
        for a, b in zip(got, want, strict=True):
            assert_same_trace(a, b)
            assert [m.entries.tobytes() for m in a.history["mixers"]] == \
                [m.entries.tobytes() for m in b.history["mixers"]]

    def test_config_custom_block_is_a_constant_rule(self, tmp_path):
        path = tmp_path / "w.csv"
        w = mixing.metropolis(graphs.random_connected_graph(4, 2, seed=3))
        path.write_text(mixing.matrix_to_csv(w))
        rule = harness.build_rule({"rule": "custom", "path": str(path),
                                   "mode": "doubly"})
        assert rule.matrix.entries.tobytes() == w.entries.tobytes()
        snap = graphs.static_sequence(graphs.undirected(4, [(1, 2)])).snapshot(0)
        assert rule(snap).entries.tobytes() == w.entries.tobytes()
        assert rule(snap).source[0] is rule(snap).source[0]
