"""Mixing rules, stochasticity certificates, and contraction measurement."""

from fractions import Fraction

import numpy as np
import pytest

from digrate import graphs, mixing


def path3():
    return graphs.undirected(3, [(1, 2), (2, 3)])


def two_clique():
    return graphs.undirected(2, [(1, 2)])


class TestMetropolis:
    def test_single_vertex(self):
        w = mixing.metropolis(graphs.empty_snapshot(1))
        assert w.entries == np.array([[1.0]])

    def test_path(self):
        w = mixing.metropolis(path3())
        expected = np.array([[2, 1, 0], [1, 1, 1], [0, 1, 2]]) / 3.0
        assert np.allclose(w.entries, expected, atol=1e-15)
        assert w.certificate.ok and w.certificate.mode == mixing.DOUBLY

    def test_two_clique(self):
        w = mixing.metropolis(two_clique())
        assert np.allclose(w.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_isolated_vertex_gets_identity_row(self):
        w = mixing.metropolis(graphs.undirected(3, [(1, 2)]))
        assert w.entries[2, 2] == 1.0

    def test_rejects_directed(self):
        with pytest.raises(ValueError):
            mixing.metropolis(graphs.directed(2, [(1, 2)]))

    def test_min_weight_rational(self):
        """All nonzero weights are >= 1/n, checked in exact arithmetic."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            snap = graphs.random_connected_graph(n, int(rng.integers(0, n)),
                                                 seed=int(rng.integers(10_000)))
            d = degrees(snap)
            w = [[Fraction(0)] * n for _ in range(n)]
            for a, b in snap.links:
                v = Fraction(1, 1 + max(int(d[a - 1]), int(d[b - 1])))
                w[a - 1][b - 1] = v
                w[b - 1][a - 1] = v
            for i in range(n):
                w[i][i] = 1 - sum(w[i])
            floor = Fraction(1, n)
            for i in range(n):
                assert sum(w[i]) == 1
                assert sum(row[i] for row in w) == 1
                for v in w[i]:
                    assert v == 0 or v >= floor
            # float construction agrees with the exact one
            wf = mixing.metropolis(snap).entries
            exact = np.array([[float(v) for v in row] for row in w])
            assert np.allclose(wf, exact, atol=1e-14)


class TestLazyMetropolis:
    def test_path(self):
        w = mixing.lazy_metropolis(path3())
        expected = np.array([[3, 1, 0], [1, 2, 1], [0, 1, 3]]) / 4.0
        assert np.allclose(w.entries, expected, atol=1e-15)

    def test_single_vertex(self):
        w = mixing.lazy_metropolis(graphs.empty_snapshot(1))
        assert w.entries == np.array([[1.0]])

    def test_two_clique(self):
        # both degrees are 1, so the off-diagonal weight is 1/(2*1)
        w = mixing.lazy_metropolis(two_clique())
        assert np.allclose(w.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_diagonal_at_least_half(self):
        for seed in range(5):
            snap = graphs.random_connected_graph(7, 4, seed=seed)
            w = mixing.lazy_metropolis(snap)
            assert np.diag(w.entries).min() >= 0.5 - 1e-15


class TestOutDegreeColumn:
    def test_two_cycle(self):
        c = mixing.out_degree_column(graphs.directed(2, [(1, 2), (2, 1)]))
        assert np.allclose(c.entries, np.full((2, 2), 0.5), atol=1e-15)
        assert c.certificate.mode == mixing.COLUMN

    def test_isolated_column_is_unit_vector(self):
        c = mixing.out_degree_column(graphs.directed(3, [(1, 2)]))
        assert np.allclose(c.entries[:, 2], [0, 0, 1], atol=1e-15)

    def test_out_star(self):
        c = mixing.out_degree_column(graphs.directed(3, [(1, 2), (1, 3)]))
        assert np.allclose(c.entries[:, 0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert np.allclose(c.entries[:, 1], [0, 1, 0], atol=1e-15)
        assert np.allclose(c.entries[:, 2], [0, 0, 1], atol=1e-15)

    def test_column_sums(self):
        for seed in range(5):
            snap = graphs.random_strongly_connected_digraph(9, 20, seed=seed)
            c = mixing.out_degree_column(snap)
            assert np.abs(c.entries.sum(axis=0) - 1).max() <= 1e-12
            nz = c.entries[c.entries > 0]
            assert nz.min() >= 1 / 9 - 1e-15

    def test_rejects_undirected(self):
        with pytest.raises(ValueError):
            mixing.out_degree_column(path3())


class TestValidateStochasticity:
    def test_identity_passes(self):
        report = mixing.validate_stochasticity(np.eye(3), mixing.DOUBLY)
        assert report.ok and report.max_deviation == 0.0

    def test_metropolis_passes(self):
        report = mixing.validate_stochasticity(mixing.metropolis(path3()),
                                               mixing.DOUBLY)
        assert report.ok

    def test_bad_column(self):
        report = mixing.validate_stochasticity(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                               mixing.DOUBLY)
        assert not report.ok
        axis, index, deviation = report.first_offender
        assert (axis, index) == ("col", 1)
        assert deviation == pytest.approx(1.0)

    def test_column_mode_ignores_rows(self):
        m = np.array([[0.9, 0.2], [0.1, 0.8]])
        assert mixing.validate_stochasticity(m, mixing.COLUMN).ok
        assert not mixing.validate_stochasticity(m, mixing.DOUBLY).ok

    # (matrix, mode, report fields): a certificate carries no offender list,
    # a failing check lists each offender in row, column, sign order
    REPORTS = [
        ([[1 / 7] * 7] * 7, mixing.DOUBLY, (True, 2.220446049250313e-16, None, ())),
        ([[1 / 7] * 7] * 7, mixing.COLUMN, (True, 2.220446049250313e-16, None, ())),
        ([[0.1, 0.9], [0.9, 0.1]], mixing.DOUBLY, (True, 0.0, None, ())),
        ([[0.5, 1.0], [0.5, 0.0]], mixing.COLUMN, (True, 0.0, None, ())),
        ([[0.5, 1.0], [0.5, 0.0]], mixing.DOUBLY,
         (False, 0.5, ("row", 1, 0.5), (("row", 1, 0.5), ("row", 2, 0.5)))),
        ([[0.5, 0.5 + 2e-12], [0.5, 0.5]], mixing.DOUBLY,
         (False, 1.999955756559757e-12, ("row", 1, 1.999955756559757e-12),
          (("row", 1, 1.999955756559757e-12), ("col", 2, 1.999955756559757e-12)))),
        ([[0.5, 0.5 + 2e-12], [0.5, 0.5]], mixing.COLUMN,
         (False, 1.999955756559757e-12, ("col", 2, 1.999955756559757e-12),
          (("col", 2, 1.999955756559757e-12),))),
        ([[1.5, -0.5], [-0.5, 1.5]], mixing.DOUBLY,
         (False, 0.5, ("negative-row", 1, 0.5), (("negative-row", 1, 0.5),))),
        ([[1.5, -0.25], [-0.5, 1.5]], mixing.DOUBLY,
         (False, 0.5, ("row", 1, 0.25),
          (("row", 1, 0.25), ("col", 2, 0.25), ("negative-row", 2, 0.5)))),
        ([[1.5, -0.25], [-0.5, 1.5]], mixing.COLUMN,
         (False, 0.5, ("col", 2, 0.25), (("col", 2, 0.25), ("negative-row", 2, 0.5)))),
        # a non-finite entry fails, its row and column named first
        ([[np.nan, 0.5], [0.5, 0.5]], mixing.DOUBLY,
         (False, np.inf, ("non-finite-row", 1, np.inf),
          (("non-finite-row", 1, np.inf), ("non-finite-col", 1, np.inf)))),
        ([[np.nan, 0.5], [0.5, 0.5]], mixing.COLUMN,
         (False, np.inf, ("non-finite-row", 1, np.inf),
          (("non-finite-row", 1, np.inf), ("non-finite-col", 1, np.inf)))),
        ([[0.5, np.inf], [0.5, 0.5]], mixing.DOUBLY,
         (False, np.inf, ("non-finite-row", 1, np.inf),
          (("non-finite-row", 1, np.inf), ("non-finite-col", 2, np.inf),
           ("row", 1, np.inf), ("col", 2, np.inf)))),
        ([[0.5, np.inf], [0.5, 0.5]], mixing.COLUMN,
         (False, np.inf, ("non-finite-row", 1, np.inf),
          (("non-finite-row", 1, np.inf), ("non-finite-col", 2, np.inf),
           ("col", 2, np.inf)))),
    ]

    @pytest.mark.parametrize("matrix, mode, fields", REPORTS)
    def test_report_fields(self, matrix, mode, fields):
        report = mixing.validate_stochasticity(np.array(matrix), mode)
        assert report == mixing.StochasticityReport(mode, *fields)

    def test_custom_wrapper_raises_on_violation(self):
        with pytest.raises(ValueError):
            mixing.custom_mixing(np.array([[1.0, 0.0], [1.0, 0.0]]), mixing.DOUBLY)

    @pytest.mark.parametrize("mode", [mixing.DOUBLY, mixing.COLUMN])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_custom_wrapper_rejects_non_finite(self, mode, bad):
        with pytest.raises(ValueError, match=r"entry \(1, 1\) is not finite"):
            mixing.custom_mixing(np.full((3, 3), bad), mode)
        entries = np.full((3, 3), 1 / 3)
        entries[2, 1] = bad
        with pytest.raises(ValueError, match=r"entry \(3, 2\) is not finite"):
            mixing.custom_mixing(entries, mode)


class TestSpectralDeviation:
    def test_perfect_averaging(self):
        n = 4
        assert mixing.spectral_deviation(np.full((n, n), 1 / n)) == 0.0

    def test_identity_two(self):
        assert mixing.spectral_deviation(np.eye(2)) == pytest.approx(1.0, abs=1e-11)

    def test_metropolis_path(self):
        w = mixing.metropolis(path3())
        assert mixing.spectral_deviation(w) == pytest.approx(2 / 3, abs=1e-11)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            snap = graphs.random_connected_graph(n, int(rng.integers(0, 2 * n)),
                                                 seed=int(rng.integers(10_000)))
            w = mixing.metropolis(snap).entries
            if rng.random() < 0.5:
                w = w @ mixing.lazy_metropolis(snap).entries
            expected = np.linalg.svd(mixing.averaging_gap(w), compute_uv=False)[0]
            assert mixing.spectral_deviation(w) == pytest.approx(expected, abs=1e-10)


class TestEstimateDelta:
    def test_static_two_clique(self):
        seq = graphs.static_sequence(two_clique())
        est = mixing.estimate_delta(seq, mixing.metropolis, B=1, horizon=4)
        assert est.delta_empirical == pytest.approx(0.0, abs=1e-12)

    def test_static_path(self):
        seq = graphs.static_sequence(path3())
        est = mixing.estimate_delta(seq, mixing.metropolis, B=1, horizon=3)
        assert est.delta_empirical == pytest.approx(2 / 3, abs=1e-10)

    def test_alternating_single_edge_no_contraction(self):
        a = graphs.undirected(3, [(1, 2)])
        b = graphs.undirected(3, [(2, 3)])
        seq = graphs.periodic_sequence([a, b])
        est = mixing.estimate_delta(seq, mixing.metropolis, B=1, horizon=4)
        assert est.delta_empirical == pytest.approx(1.0, abs=1e-10)
        # over a two-step window the union connects and contraction appears
        est2 = mixing.estimate_delta(seq, mixing.metropolis, B=2, horizon=6)
        assert est2.delta_empirical < 1.0

    def test_disconnected_union_is_exactly_one(self):
        # block-connected windows of two slots checked two at a time: some
        # straddle blocks and leave their union graph disconnected
        seq = graphs.block_connected_sequence(12, 2, seed=1)
        est = mixing.estimate_delta(seq, mixing.metropolis, B=2, horizon=6)
        assert est.delta_empirical == 1.0
        for k, sigma in est.per_window:
            if graphs.union_graph(seq, k - 1, 2).is_connected():
                assert sigma < 1.0
            else:
                assert sigma == 1.0

    def test_each_snapshot_built_once(self):
        # one snapshot and one matrix per iteration of the horizon, shared
        # by every window that holds it; the windows still match the
        # per-window union_graph and window_product bit for bit
        seq = graphs.block_connected_sequence(12, 2, seed=0)
        calls = {"draw": 0, "rule": 0}

        def draw(seed, t):
            calls["draw"] += 1
            return seq.draw(seed, t)

        def rule(snap):
            calls["rule"] += 1
            return mixing.metropolis(snap)

        counted = graphs.GraphSequence(seq.n, seq.kind, seq.size, draw, seq.seed,
                                       seq.declared_B, seq.description)
        est = mixing.estimate_delta(counted, rule, B=3, horizon=9)
        # the horizon lies in the first block
        assert calls == {"draw": 1, "rule": 9}
        reference = []
        for k in range(2, 9):
            sigma = 1.0
            if graphs.union_graph(seq, k - 2, 3).is_connected():
                sigma = mixing.spectral_deviation(
                    mixing.window_product(seq, mixing.metropolis, k, 3))
            reference.append((k, sigma))
        assert est.per_window == tuple(reference)
        assert est.delta_empirical == max(sigma for _, sigma in reference)

    def test_per_window_max(self):
        seq = graphs.block_connected_sequence(5, 2, seed=3)
        est = mixing.estimate_delta(seq, mixing.metropolis, B=3, horizon=9)
        assert est.delta_empirical == max(v for _, v in est.per_window)
        assert len(est.per_window) == 9 - 3 + 1


class TestContractionProperties:
    @pytest.mark.parametrize("rule", [mixing.metropolis, mixing.lazy_metropolis])
    def test_doubly_stochastic_nonexpansive(self, rule):
        rng = np.random.default_rng(8)
        for seed in range(8):
            snap = graphs.random_connected_graph(6, 3, seed=seed)
            w = rule(snap).entries
            for _ in range(10):
                b = rng.normal(size=(6, 2))
                assert (mixing.consensus_violation(w @ b)
                        <= mixing.consensus_violation(b) + 1e-12)

    def test_window_contraction_bounded_by_estimate(self):
        """Measured windowed products contract the consensus seminorm by at
        most the empirical supremum."""
        rng = np.random.default_rng(9)
        b_tilde = 2
        B = 2 * b_tilde - 1
        seq = graphs.block_connected_sequence(6, b_tilde, seed=12)
        est = mixing.estimate_delta(seq, mixing.metropolis, B=B, horizon=4 * B)
        assert est.delta_empirical < 1.0
        for k, _ in est.per_window:
            w_prod = mixing.window_product(seq, mixing.metropolis, k, B)
            for _ in range(20):
                b = rng.normal(size=(6, 3))
                lhs = mixing.consensus_violation(w_prod @ b)
                rhs = est.delta_empirical * mixing.consensus_violation(b)
                assert lhs <= rhs + 1e-11


class TestMatrixCsv:
    def test_roundtrip(self):
        w = mixing.metropolis(path3()).entries
        back = mixing.matrix_from_csv(mixing.matrix_to_csv(w))
        assert np.array_equal(back, w)


def degrees(snapshot):
    """Reference degrees (out-degrees for arcs), one link at a time."""
    d = np.zeros(snapshot.n, dtype=int)
    for a, b in snapshot.links:
        d[a - 1] += 1
        if snapshot.kind == graphs.UNDIRECTED:
            d[b - 1] += 1
    return d


def loop_metropolis(snapshot, lazy):
    """Reference Metropolis build, one link at a time."""
    n = snapshot.n
    d = degrees(snapshot)
    w = np.zeros((n, n))
    for a, b in snapshot.links:
        m = max(d[a - 1], d[b - 1])
        v = 1.0 / (2 * m) if lazy else 1.0 / (1 + m)
        w[a - 1, b - 1] = v
        w[b - 1, a - 1] = v
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def loop_out_degree(snapshot):
    """Reference out-degree build, one arc at a time."""
    n = snapshot.n
    share = 1.0 / (degrees(snapshot) + 1)
    c = np.zeros((n, n))
    np.fill_diagonal(c, share)
    for j, i in snapshot.links:
        c[i - 1, j - 1] = share[j - 1]
    return c


def random_snapshots(count=40):
    rng = np.random.default_rng(31)
    for t in range(count):
        n = int(rng.integers(1, 16))
        density = 0.0 if t == 0 else float(rng.uniform(0, 1))
        edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.uniform() < density]
        arcs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                if j != i and rng.uniform() < density]
        yield graphs.undirected(n, edges), graphs.directed(n, arcs)


class TestVectorizedBuilders:
    """The adjacency-matrix builders give the loop builders' entries
    exactly."""

    def test_against_loop_reference(self):
        seen_empty = False
        for und, dig in random_snapshots():
            seen_empty |= not und.links and not dig.links
            for rule, lazy in ((mixing.metropolis, False),
                               (mixing.lazy_metropolis, True)):
                mat = rule(und)
                assert np.array_equal(mat.entries, loop_metropolis(und, lazy))
                assert mat.certificate.ok and mat.certificate.mode == mixing.DOUBLY
            mat = mixing.out_degree_column(dig)
            assert np.array_equal(mat.entries, loop_out_degree(dig))
            assert mat.certificate.ok and mat.certificate.mode == mixing.COLUMN
        assert seen_empty

    def test_no_links_is_identity(self):
        for rule, kind in ((mixing.metropolis, graphs.UNDIRECTED),
                           (mixing.lazy_metropolis, graphs.UNDIRECTED),
                           (mixing.out_degree_column, graphs.DIRECTED)):
            mat = rule(graphs.empty_snapshot(5, kind))
            assert np.array_equal(mat.entries, np.eye(5))


# the first, last and next-to-first iterations of the first two blocks
BOUNDARY_KS = (0, 63, 64, 65, 127, 128)


class TestBlockBuilds:
    """A snapshot drawn in a block gets its matrix and certificate from one
    build of the whole block, equal to the build of a standalone copy (the
    one slice of its own block)."""

    @pytest.mark.parametrize("fraction", [0.4, 1.0])
    def test_block_matrix_equals_standalone_build(self, fraction):
        und = graphs.random_connected_graph(10, 8, seed=80)
        dig = graphs.random_strongly_connected_digraph(10, 25, seed=81)
        seq_u = graphs.subsample_sequence(und, fraction, 82)
        seq_d = graphs.subsample_sequence(dig, fraction, 83)
        cases = [(seq_u.snapshot, mixing.metropolis),
                 (seq_u.snapshot, mixing.lazy_metropolis),
                 (lambda k: seq_u.snapshot(k).as_directed(),
                  mixing.out_degree_column),
                 (seq_d.snapshot, mixing.out_degree_column)]
        # block-connected windows of 1, 2 and 3 slots, drawn whole into blocks
        for b_tilde in (1, 2, 3):
            seq_b = graphs.block_connected_sequence(10, b_tilde, 89, 3)
            cases += [(seq_b.snapshot, mixing.metropolis),
                      (seq_b.snapshot, mixing.lazy_metropolis)]
        order = np.random.default_rng(84).permutation(BOUNDARY_KS)
        for snapshot, rule in cases:
            for k in order.tolist():
                snap = snapshot(k)
                mat = rule(snap)
                alone = rule(graphs.GraphSnapshot(snap.n, snap.kind, snap.adj))
                assert mat.entries.tobytes() == alone.entries.tobytes()
                assert mat.certificate == alone.certificate
                assert mat.certificate.ok
                assert (mat.snapshot, mat.rule) == (snap, alone.rule)

    def test_each_rule_builds_a_block_once(self):
        seq = graphs.subsample_sequence(
            graphs.random_connected_graph(10, 8, seed=85), 0.4, 86)
        first, last = seq.snapshot(0), seq.snapshot(63)
        block = first.block[0]
        mixing.metropolis(first)
        built = block.built["metropolis"]
        assert mixing.metropolis(last).entries.tobytes() == \
            built[0][63].tobytes()
        assert block.built["metropolis"] is built
        mixing.lazy_metropolis(last)
        assert set(block.built) == {"metropolis", "lazy-metropolis"}
        assert seq.snapshot(64).block[0].built == {}

    @pytest.mark.parametrize("mode", [mixing.DOUBLY, mixing.COLUMN])
    def test_block_certificate_equals_full_report(self, mode):
        seq = graphs.subsample_sequence(
            graphs.random_connected_graph(10, 8, seed=87), 0.4, 88)
        stack = mixing._metropolis_weights(seq.snapshot(0).block[0].adj, lazy=False)
        stack[1, 0, 0] += 2e-12           # a column (and row) sum off
        stack[2, 0, 0] = -0.25            # a negative entry
        stack[3, 4, 2] = np.nan
        stack[4, 1, 0] = np.inf
        stack[5, 0, 3] = -np.inf
        stack[6, 1, 1] += 1e-13           # within the tolerance
        reports = mixing._certify(stack, mode)
        assert reports == [mixing.validate_stochasticity(m, mode) for m in stack]
        assert [r.ok for r in reports[:7]] == [True] + [False] * 5 + [True]
        assert reports[3].first_offender == ("non-finite-row", 5, np.inf)
        assert all(r.ok for r in reports[7:])


class TestCertificates:
    """One vectorized pass decides every slice; a passing slice's report is
    made when it is read, a failing one's with its violations up front."""

    def test_reports_made_on_read(self):
        seq = graphs.subsample_sequence(
            graphs.random_connected_graph(10, 8, seed=89), 0.4, 90)
        stack = mixing._metropolis_weights(seq.snapshot(0).block[0].adj, lazy=False)
        stack[7, 2, 2] += 1e-9
        certs = mixing._certify(stack, mixing.DOUBLY)
        assert list(certs._reports) == [7]
        assert certs.ok.tolist() == [s != 7 for s in range(64)]
        assert not certs.ok.flags.writeable
        first = certs[3]
        assert list(certs._reports) == [7, 3] and certs[3] is first
        assert certs[-61] is first and len(certs) == 64
        assert certs[7] == mixing.validate_stochasticity(stack[7], mixing.DOUBLY)
        assert certs[7].violations[0][:2] == ("row", 3)
        # the report that decides a run of slices: the first failing one's
        assert certs.decisive(0, 7) is certs[0]
        assert certs.decisive(5, 20) is certs[7]
        with pytest.raises(IndexError):
            certs[64]

    def test_decisive_reads_slices_lo_to_hi(self):
        good = np.full((3, 3), 1 / 3)
        stack = np.stack([good + 1e-6 * np.eye(3), good, good])
        certs = mixing._certify(stack, mixing.DOUBLY)
        assert not certs[0].ok and certs[1].ok
        # failing slice 0 lies before slice 1, outside the run it decides
        assert certs.decisive(1, 3) is certs[1]
        assert certs.decisive(0, 3) is certs[0]
        assert certs.decisive(0, 1) is certs[0] and certs.decisive(2, 3) is certs[2]
        passing = mixing._certify(np.stack([good] * 3), mixing.DOUBLY)
        assert passing.decisive(1, 3) is passing[1]


class TestSliceViews:
    """A rule-built matrix is a read-only, C-ordered view of its block's
    built stack; a custom matrix is a read-only copy of what it was given."""

    @pytest.mark.parametrize("source", ["drawn", "directed-view", "standalone"])
    def test_rule_matrix_is_a_view_of_the_built_stack(self, source):
        und = graphs.random_connected_graph(10, 8, seed=90)
        dig = graphs.random_strongly_connected_digraph(10, 25, seed=91)
        seq_u = graphs.subsample_sequence(und, 0.4, 92)
        seq_d = graphs.subsample_sequence(dig, 0.4, 93)
        for k in BOUNDARY_KS:
            snap_u, snap_d = seq_u.snapshot(k), seq_d.snapshot(k)
            if source == "directed-view":
                snap_d = snap_u.as_directed()
            elif source == "standalone":
                snap_u = graphs.GraphSnapshot(10, graphs.UNDIRECTED, snap_u.adj)
                snap_d = graphs.GraphSnapshot(10, graphs.DIRECTED, snap_d.adj)
            for rule, snap in ((mixing.metropolis, snap_u),
                               (mixing.lazy_metropolis, snap_u),
                               (mixing.out_degree_column, snap_d)):
                mat = rule(snap)
                block, i = snap.block
                stack = block.built[mat.rule][0]
                assert np.shares_memory(mat.entries, stack)
                assert mat.entries.tobytes() == stack[i].tobytes()
                assert mat.entries.flags.c_contiguous
                assert not mat.entries.flags.writeable
                assert rule(snap).entries.base is mat.entries.base
                with pytest.raises(ValueError):
                    mat.entries[0, 0] = 0.5

    def test_custom_matrix_keeps_a_read_only_copy(self):
        given = np.full((3, 3), 1 / 3)
        mat = mixing.custom_mixing(given, mixing.DOUBLY)
        given[0, 0] = 5.0
        assert np.array_equal(mat.entries, np.full((3, 3), 1 / 3))
        assert not np.shares_memory(mat.entries, given)
        assert not mat.entries.flags.writeable
        assert mat.n == 3 and mat.certificate.ok
        # the one slice of a build of its own
        (stack, certificates), i = mat.source
        assert i == 0 and stack.shape == (1, 3, 3) and stack.base is mat.entries
        assert list(certificates) == [mat.certificate]
