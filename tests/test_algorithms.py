"""Step functions, their exact algebraic identities, and the run driver."""

import math

import numpy as np
import pytest

from digrate import algorithms as alg
from digrate import graphs, mixing
from digrate.objectives import quadratic_suite, zero_suite


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


class TestMatrixReuse:
    """`run` asks the rule for a matrix only when the snapshot changes."""

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
        # a directed view makes a new but equal snapshot at every iteration
        suite = zero_suite(3, 1)
        base = graphs.static_sequence(graphs.undirected(3, [(1, 2), (2, 3)]))
        seq = graphs.GraphSequence(3, graphs.DIRECTED,
                                   lambda k, s: base.snapshot(k).as_directed())
        rule, calls = self.counting(mixing.out_degree_column)
        trace = alg.run("push-diging", seq, rule, suite, 0.1, 40, x0="random")
        assert len(calls) == 1
        assert len(trace) == 41

    def test_changing_snapshots_rebuild_each_change(self):
        suite = zero_suite(3, 1)
        a = graphs.undirected(3, [(1, 2)])
        b = graphs.undirected(3, [(2, 3)])
        seq = graphs.periodic_sequence([a, a, b], declared_B=3)
        rule, calls = self.counting(mixing.metropolis)
        alg.run("diging", seq, rule, suite, 0.1, 9, x0="random")
        assert calls == [a, b, a, b, a, b]
