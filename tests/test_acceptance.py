"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import math

import numpy as np
import pytest

from digrate import algorithms as alg
from digrate import graphs, harness, mixing, objectives, rates
from digrate.rates import TheoryParams, weighted_ergodic_norm


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def random_instance(rng, n, p, directed):
    curv = rng.uniform(0.5, 2.0, n)
    targets = rng.normal(size=(n, p))
    suite = objectives.quadratic_suite(targets, curv)
    seed = int(rng.integers(1_000_000))
    if directed:
        seq = graphs.static_sequence(
            graphs.random_strongly_connected_digraph(n, 2 * n, seed=seed))
        rule = mixing.out_degree_column
    else:
        seq = graphs.static_sequence(
            graphs.random_connected_graph(n, max(1, n // 2), seed=seed))
        rule = mixing.metropolis
    return suite, seq, rule


def test_criterion_1_conservation():
    """Tracker column sums equal gradient column sums along every run."""
    rng = np.random.default_rng(101)
    worst = 0.0
    algorithms = ["diging", "diging-atc", "push-diging"]
    for i in range(20):
        algorithm = algorithms[i % 3]
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, 4))
        directed = algorithm == "push-diging"
        suite, seq, rule = random_instance(rng, n, p, directed)
        trace = alg.run(algorithm, seq, rule, suite, alpha=0.1 / suite.L,
                        iterations=2000, x0="random",
                        seed=int(rng.integers(1_000_000)), record_audit=True)
        ratio = trace.conservation_err / (1e-10 * (1.0 + trace.grad_norm))
        worst = max(worst, float(ratio.max()))
    ok = worst <= 1.0
    report("1 conservation", ok, f"worst error at {worst:.3f} of tolerance")
    assert ok


def test_criterion_2_consensus_contraction():
    """Windowed Metropolis products contract the consensus seminorm, and the
    measured factor respects the cited 1 - tau/(2 n^2) bound with tau=1/n."""
    rng = np.random.default_rng(102)
    ok = True
    details = []
    for n, b_tilde in ((4, 1), (6, 2), (8, 3), (10, 2), (5, 2)):
        B = 2 * b_tilde - 1
        seq = graphs.block_connected_sequence(n, b_tilde,
                                              seed=int(rng.integers(1_000_000)))
        est = mixing.estimate_delta(seq, mixing.metropolis, B,
                                    horizon=B + 4 * b_tilde)
        bound = rates.cited_delta_bound(n, tau=1.0 / n)
        ok &= est.delta_empirical < 1.0
        ok &= est.delta_empirical <= bound + 1e-12
        for k, _ in est.per_window:
            prod = mixing.window_product(seq, mixing.metropolis, k, B)
            for _ in range(100):
                b = rng.normal(size=(n, 2))
                lhs = mixing.consensus_violation(prod @ b)
                rhs = est.delta_empirical * mixing.consensus_violation(b)
                ok &= lhs <= rhs + 1e-11
        details.append(f"n={n} B={B}: {est.delta_empirical:.4f}<={bound:.6f}")
    report("2 consensus contraction", ok, "; ".join(details[:2]) + "; ...")
    assert ok


@pytest.fixture(scope="module")
def rate_soundness_runs():
    """Ten random static instances driven at 0.9x the window branch point,
    shared between the rate-soundness and small-gain criteria."""
    rng = np.random.default_rng(103)
    runs = []
    for _ in range(10):
        n = int(rng.integers(3, 6))
        p = int(rng.integers(1, 3))
        suite = objectives.quadratic_suite(rng.normal(size=(n, p)),
                                           rng.uniform(0.5, 2.0, n))
        snap = graphs.random_spanning_tree(n, int(rng.integers(1_000_000)))
        seq = graphs.static_sequence(snap)
        delta = mixing.estimate_delta(seq, mixing.metropolis, B=1,
                                      horizon=1).delta_empirical
        params = TheoryParams(n=n, B=1, delta=delta, mu_bar=suite.mu_bar,
                              L=suite.L, mu_hat=suite.mu_hat)
        window = rates.diging_step_size_window(params)
        alpha = 0.9 * window.breakpoint
        lam = rates.diging_rate(alpha, params).lam
        trace = alg.run("diging", seq, mixing.metropolis, suite, alpha,
                        iterations=3000, x0=rng.normal(size=(n, p)) * 2,
                        record_audit=True)
        runs.append((trace, params, lam, alpha))
    return runs


def test_criterion_3_rate_soundness(rate_soundness_runs):
    """Measured distance to the solution stays under 10 r0 lambda^k."""
    ok = True
    worst = 0.0
    for trace, params, lam, alpha in rate_soundness_runs:
        bound = 10.0 * trace.r0 * lam ** trace.k.astype(float)
        ratio = trace.q_norm / bound
        worst = max(worst, float(ratio.max()))
        ok &= bool(np.all(trace.q_norm <= bound))
    report("3 rate soundness", ok, f"worst measured/bound {worst:.3e}")
    assert ok


def test_criterion_4_push_sum_consensus():
    """Zero-objective push runs average to the start mean and keep their
    weights above the worst-case floor."""
    rng = np.random.default_rng(104)
    ok = True
    worst_resid = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 11))
        snap = graphs.random_strongly_connected_digraph(
            n, 2 * n, seed=int(rng.integers(1_000_000)))
        seq = graphs.static_sequence(snap)
        suite = objectives.zero_suite(n, 2)
        trace = alg.run("push-diging", seq, mixing.out_degree_column, suite,
                        alpha=0.5, iterations=500, x0="random",
                        seed=int(rng.integers(1_000_000)), record_audit=True)
        # q_norm measures the block distance to the start average here, which
        # dominates every per-agent distance
        worst_resid = max(worst_resid, float(trace.q_norm[-1]))
        ok &= trace.q_norm[-1] <= 1e-9
        ok &= bool(np.all(trace.v_min >= n ** (-float(n))))
    report("4 push-sum consensus", ok, f"worst final distance {worst_resid:.2e}")
    assert ok


def test_criterion_5_extra_elimination():
    """Static symmetric mixing: the tracker eliminates into a two-step
    iterate recursion, exactly."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for seed in range(3):
        n = 6
        snap = graphs.random_connected_graph(n, 3, seed=seed)
        w = mixing.metropolis(snap)
        suite = objectives.quadratic_suite(rng.normal(size=(n, 2)),
                                           rng.uniform(0.5, 2.0, n))
        alpha = 0.1
        st = alg.init(suite, rng.normal(size=(n, 2)))
        hist = [st]
        for _ in range(500):
            st = alg.diging_step(st, w, suite, alpha)
            hist.append(st)
        ww = w.entries @ w.entries
        for k in range(len(hist) - 2):
            z = hist[k + 1].grad - hist[k].grad
            pred = 2 * w.entries @ hist[k + 1].x - ww @ hist[k].x - alpha * z
            worst = max(worst, float(np.abs(pred - hist[k + 2].x).max()))
    ok = worst <= 1e-11
    report("5 elimination identity", ok, f"max deviation {worst:.2e}")
    assert ok


def test_criterion_6_benchmark_reproduction():
    """Tracking methods reach 1e-9 residual geometrically on all three graph
    cases while the diminishing-step baseline stays three decades higher."""
    ok = True
    details = []
    for case in harness.CASES:
        result = harness.reproduce_section6(case, seed=0)
        iters = result["iterations"]
        for algo, entry in result["summary"].items():
            if algo == "subgradient-push":
                ok &= entry["final_residual"] >= 1e-3
                details.append(f"{case}/baseline@{iters}: "
                               f"{entry['final_residual']:.1e}")
            else:
                ok &= entry["final_residual"] <= 1e-9
                ok &= entry["tail_r_squared"] is not None \
                    and entry["tail_r_squared"] >= 0.99
    report("6 benchmark reproduction", ok, "; ".join(details))
    assert ok


def test_criterion_7_small_gain_audit(rate_soundness_runs):
    """All four cycle inequalities hold with the certified rate and the gain
    product stays below one."""
    ok = True
    worst_margin = math.inf
    worst_product = 0.0
    for trace, params, lam, alpha in rate_soundness_runs:
        ledger = rates.audit_small_gain(trace, params, lam, alpha=alpha)
        worst_margin = min(worst_margin, min(ledger.margins))
        worst_product = max(worst_product, ledger.gain_product)
        ok &= ledger.all_ok
    report("7 small-gain audit", ok,
           f"min margin {worst_margin:.3e}, max product {worst_product:.4f}")
    assert ok


def test_criterion_8_formula_exactness():
    j1 = rates.diging_rate_constant(1.0, 1, 12)
    j1_ok = abs(j1 - 3 * (1 + 4 * math.sqrt(12))) <= 1e-12 * j1
    lam = rates.lazy_metropolis_rate(12, 1.0)
    lam_expected = 1 - 1 / (161312 * 12 ** 4.5)
    lam_ok = abs(lam - lam_expected) <= 1e-12 * lam_expected
    q1 = rates.push_sum_contraction(2, 1).q1.to_float()
    q1_ok = abs(q1 - 263168 / 255) <= 1e-12 * (263168 / 255)
    ok = j1_ok and lam_ok and q1_ok
    report("8 formula exactness", ok,
           f"J1={j1:.6f}, lazy rate ok={lam_ok}, Q1={q1:.6f}")
    assert ok


def test_criterion_9_inexact_gradient_bound():
    """The weighted distance norm of a perturbed centralized run never
    exceeds the error bound built from the same run's perturbation norms."""
    rng = np.random.default_rng(109)
    ok = True
    tightest = math.inf
    for rho in (0.01, 0.1, 1.0):
        n, p = int(rng.integers(2, 7)), 2
        suite = objectives.quadratic_suite(rng.normal(size=(n, p)),
                                           rng.uniform(0.5, 2.0, n))
        eta = 1.0
        beta = 2 * suite.L / suite.mu_hat
        theta = 1.0 / ((1 + eta) * suite.L_bar)
        lam = math.sqrt(1 - theta * suite.mu_bar * beta / (beta + 1))
        K = 250
        run = alg.run_igd(suite, rng.normal(size=p) * 3, theta,
                          alg.radius_perturbation(rho), iterations=K)
        lhs = weighted_ergodic_norm(run.r, lam)
        s_terms = sum(weighted_ergodic_norm(run.s_dev[:, i], lam)
                      for i in range(n))
        root = math.sqrt(suite.L * (1 + eta) / (suite.mu_bar * eta)
                         + (suite.mu_hat / suite.mu_bar) * beta)
        rhs = 2 * run.r[0] + root / (lam * math.sqrt(n)) * s_terms
        ok &= lhs <= rhs
        tightest = min(tightest, rhs / lhs if lhs > 0 else math.inf)
    report("9 inexact-gradient bound", ok, f"tightest rhs/lhs {tightest:.2f}")
    assert ok


def test_criterion_10_equivalent_recursion():
    """Every recorded push run replays exactly through its row stochastic
    rescaled form."""
    rng = np.random.default_rng(110)
    runs = []
    # static and time-varying quadratic instances
    for i in range(3):
        n = int(rng.integers(3, 9))
        suite = objectives.quadratic_suite(rng.normal(size=(n, 2)),
                                           rng.uniform(0.5, 2.0, n))
        base = graphs.random_strongly_connected_digraph(
            n, 2 * n, seed=int(rng.integers(1_000_000)))
        seq = graphs.static_sequence(base) if i == 0 else \
            graphs.subsample_sequence(base, 0.8, int(rng.integers(1_000_000)))
        runs.append((alg.run("push-diging", seq, mixing.out_degree_column,
                             suite, 0.05, 400, x0="random",
                             seed=int(rng.integers(1_000_000)),
                             record_states=True), 0.05))
    # a benchmark-style robust regression run at its larger scale
    prob = harness.section6_problem(0)
    seq = graphs.static_sequence(prob.base_digraph)
    runs.append((alg.run("push-diging", seq, mixing.out_degree_column,
                         prob.suite, 0.2, 400, x_star=prob.x_star,
                         record_states=True), 0.2))
    ok = True
    worst_state, worst_row = 0.0, 0.0
    for trace, alpha in runs:
        rep = alg.equivalent_recursion_check(trace.history["states"],
                                             trace.history["mixers"], alpha)
        worst_state = max(worst_state, rep.max_state_deviation)
        worst_row = max(worst_row, rep.max_rowsum_deviation)
    ok = worst_state <= 1e-10 and worst_row <= 1e-12
    report("10 equivalent recursion", ok,
           f"state dev {worst_state:.2e}, row-sum dev {worst_row:.2e}")
    assert ok
