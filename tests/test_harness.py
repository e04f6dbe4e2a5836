"""Rate fitting, configs, trace round-trips, and the benchmark problem."""

import json
import math

import numpy as np
import pytest

from digrate import algorithms as alg
from digrate import graphs, harness, mixing, objectives, rates
from digrate.harness import (ExperimentConfig, XI, geometric_segment, rate_fit,
                             run_experiment, section6_problem, validate_config)
from digrate.traces import RunTrace


def synthetic_trace(residual):
    n = len(residual)
    zeros = np.zeros(n)
    return RunTrace(k=np.arange(n), residual=np.asarray(residual, dtype=float),
                    cons_viol_x=zeros, cons_viol_y=zeros,
                    conservation_err=zeros, v_min=np.full(n, np.nan))


class TestRateFit:
    def test_exact_geometric(self):
        trace = synthetic_trace(0.9 ** np.arange(200))
        fit = rate_fit(trace)
        assert fit.slope == pytest.approx(math.log10(0.9), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert abs(fit.curvature) <= 1e-12

    def test_constant_series(self):
        fit = rate_fit(synthetic_trace(np.full(100, 0.25)))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_sublinear_has_positive_curvature(self):
        k = np.arange(1, 400)
        harmonic = rate_fit(synthetic_trace(1.0 / k))
        geometric = rate_fit(synthetic_trace(0.97 ** k))
        assert harmonic.curvature > 1e-6          # semilog plot flattens
        assert geometric.r_squared > harmonic.r_squared

    def test_zero_residual_truncates(self):
        r = 0.5 ** np.arange(120.0)
        r[100:] = 0.0
        fit = rate_fit(synthetic_trace(r), burn_in=0.0)
        assert fit.truncated
        assert fit.rows_used == 100
        assert fit.slope == pytest.approx(math.log10(0.5), abs=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            rate_fit(synthetic_trace(0.9 ** np.arange(30)))

    def test_geometric_segment_skips_floor(self):
        r = np.concatenate([np.full(50, 1.0), 10.0 ** (-0.1 * np.arange(150)),
                            np.full(200, 1e-14)])
        k, seg = geometric_segment(synthetic_trace(r))
        fit = rate_fit((k, seg), burn_in=0.0)
        assert fit.slope == pytest.approx(-0.1, abs=1e-6)
        assert seg.min() >= 1e-9


class TestTraceRoundTrip:
    def make_trace(self, directed=False):
        rng = np.random.default_rng(0)
        suite = objectives.quadratic_suite(rng.normal(size=(3, 2)),
                                           rng.uniform(0.5, 2, 3))
        if directed:
            seq = graphs.static_sequence(
                graphs.random_strongly_connected_digraph(3, 6, seed=1))
            return alg.run("push-diging", seq, mixing.out_degree_column, suite,
                           0.05, 40, x0="random", seed=2, record_audit=True)
        seq = graphs.static_sequence(graphs.random_connected_graph(3, 1, seed=1))
        return alg.run("diging", seq, mixing.metropolis, suite, 0.05, 40,
                       x0="random", seed=2, record_audit=True)

    def test_csv_parse_emit_identity(self):
        trace = self.make_trace()
        again = RunTrace.from_csv(trace.to_csv())
        assert trace.same_rows(again)
        assert again.to_csv() == trace.to_csv()

    def test_vmin_column_empty_for_undirected(self):
        trace = self.make_trace()
        rows = trace.to_csv().strip().splitlines()[1:]
        assert all(row.endswith(",") for row in rows)

    def test_vmin_recorded_for_push(self):
        trace = self.make_trace(directed=True)
        assert np.all(np.isfinite(trace.v_min))
        again = RunTrace.from_csv(trace.to_csv())
        assert trace.same_rows(again)

    def test_sidecar_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "run.csv"
        trace.write(path)
        assert (tmp_path / "run.csv.audit.json").exists()
        back = RunTrace.read(path)
        assert back.same_rows(trace)
        assert np.array_equal(back.q_norm, trace.q_norm)
        assert np.array_equal(back.z_norm, trace.z_norm)
        assert back.r0 == trace.r0

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            RunTrace.from_csv("a,b\n1,2\n")

    def test_randomized_round_trips_with_special_values(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rows = int(rng.integers(1, 40))
            cols = {}
            for name in ("residual", "cons_viol_x", "cons_viol_y",
                         "conservation_err"):
                vals = rng.uniform(-1, 1, rows) * 10.0 ** rng.integers(
                    -300, 300, rows)
                vals[rng.random(rows) < 0.1] = 0.0
                cols[name] = np.abs(vals)
            v_min = rng.uniform(0, 1, rows)
            v_min[rng.random(rows) < 0.3] = np.nan
            trace = RunTrace(k=np.arange(rows), v_min=v_min, **cols)
            assert RunTrace.from_csv(trace.to_csv()).same_rows(trace)

    def test_weight_floor_matches_declared_window(self):
        snap = graphs.random_strongly_connected_digraph(4, 8, seed=1)
        seq = graphs.static_sequence(snap)  # declares window 1
        floor = harness.push_weight_floor(seq)
        assert floor == pytest.approx(1e-3 * 4.0 ** -4)
        undeclared = graphs.subsample_sequence(snap, 0.8, seed=2)
        assert harness.push_weight_floor(undeclared) is None


def quadratic_config(tmp_path, **overrides):
    cfg = {
        "algorithm": "diging",
        "graph": {"type": "static-random-connected", "n": 4, "extra_edges": 2,
                  "seed": 3},
        "mixing": "metropolis",
        "objective": {"family": "quadratic", "n": 4, "p": 2, "seed": 5},
        "alpha": 0.05,
        "iterations": 120,
        "seed": 9,
        "output": "trace.csv",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestExperimentConfig:
    def test_load_and_run(self, tmp_path):
        path, _ = quadratic_config(tmp_path)
        config = ExperimentConfig.load(path)
        assert validate_config(config) == []
        trace = run_experiment(config, out_dir=tmp_path)
        assert (tmp_path / "trace.csv").exists()
        assert trace.residual[0] == pytest.approx(1.0)

    def test_missing_field_rejected(self, tmp_path):
        path, cfg = quadratic_config(tmp_path)
        del cfg["alpha"]
        path.write_text(json.dumps(cfg))
        with pytest.raises(harness.ConfigError):
            ExperimentConfig.load(path)

    def test_unknown_field_rejected(self):
        with pytest.raises(harness.ConfigError):
            ExperimentConfig.from_dict({"algorithm": "diging", "graph": {},
                                        "mixing": "metropolis", "objective": {},
                                        "alpha": 1, "iterations": 1,
                                        "bogus": True})

    def test_json_error_carries_position(self):
        with pytest.raises(harness.ConfigError) as err:
            ExperimentConfig.from_json("{not json")
        assert "line" in str(err.value)

    def test_kind_mismatch_flagged(self, tmp_path):
        path, cfg = quadratic_config(tmp_path, algorithm="push-diging")
        problems = validate_config(ExperimentConfig.load(path))
        assert any("directed" in p for p in problems)

    def test_disconnected_graph_flagged(self, tmp_path):
        path, cfg = quadratic_config(
            tmp_path,
            graph={"type": "static-edges", "n": 4, "links": [[1, 2]],
                   "declared_B": 1})
        problems = validate_config(ExperimentConfig.load(path))
        assert any("connectivity" in p and "window 0" in p for p in problems)

    def test_directed_view_enables_push(self, tmp_path):
        path, cfg = quadratic_config(
            tmp_path, algorithm="push-diging", mixing="out-degree",
            graph={"type": "static-random-connected", "n": 4, "extra_edges": 2,
                   "seed": 3, "directed_view": True})
        config = ExperimentConfig.load(path)
        assert validate_config(config) == []
        trace = run_experiment(config, out_dir=tmp_path)
        assert np.isfinite(trace.v_min).all()

    def test_determinism_byte_identical(self, tmp_path):
        path, _ = quadratic_config(tmp_path)
        config = ExperimentConfig.load(path)
        t1 = run_experiment(config, out_dir=tmp_path / "a")
        t2 = run_experiment(config, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() == \
            (tmp_path / "b" / "trace.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        path, _ = quadratic_config(tmp_path, x0="random", output=None)
        config = ExperimentConfig.load(path)
        t1 = run_experiment(config)
        t2 = run_experiment(config, seed_override=1234)
        assert not np.array_equal(t1.residual, t2.residual)

    def test_custom_mixing_matrix(self, tmp_path):
        w = mixing.metropolis(graphs.random_connected_graph(4, 2, seed=3))
        matrix_path = tmp_path / "w.csv"
        matrix_path.write_text(mixing.matrix_to_csv(w))
        path, cfg = quadratic_config(
            tmp_path, mixing={"rule": "custom", "path": str(matrix_path),
                              "mode": "doubly"})
        config = ExperimentConfig.load(path)
        assert validate_config(config) == []
        trace = run_experiment(config, out_dir=tmp_path)
        assert trace.residual[-1] < 1.0

    def test_theory_audit_block_produces_sidecar(self, tmp_path):
        path, cfg = quadratic_config(
            tmp_path, iterations=300,
            theory_audit={"B": 1, "delta": "empirical", "lambda": "certified"})
        config = ExperimentConfig.load(path)
        trace = run_experiment(config, out_dir=tmp_path)
        assert (tmp_path / "trace.csv.audit.json").exists()
        audit = trace.metadata["theory_audit"]
        assert 0 < audit["delta"] < 1 or audit["delta"] == 0.0
        assert 0 < audit["lambda"] < 1

    @pytest.mark.parametrize("algorithm", ["dgd", "diging-atc"])
    def test_theory_audit_needs_audited_method(self, tmp_path, algorithm):
        path, _ = quadratic_config(
            tmp_path, algorithm=algorithm,
            theory_audit={"B": 1, "delta": "empirical", "lambda": "certified"})
        problems = validate_config(ExperimentConfig.load(path))
        assert any(p.startswith("theory_audit:") and algorithm in p
                   for p in problems)

    def test_audit_certifying_nothing_fails_before_the_run(self, tmp_path,
                                                          monkeypatch):
        # two-slot audit windows of a two-slot block-connected sequence:
        # at seed 1 one of them has a disconnected union, so delta = 1
        path, _ = quadratic_config(
            tmp_path, iterations=4000, seed=1, alpha=0.3,
            graph={"type": "block-connected", "n": 12, "window": 2, "seed": 1},
            objective={"family": "quadratic", "n": 12, "p": 4, "seed": 1},
            theory_audit={"B": 2, "delta": "empirical", "lambda": "certified"})
        config = ExperimentConfig.load(path)
        assert validate_config(config) == [
            "theory_audit: delta=1.0 >= 1 certifies nothing"]

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(alg, "run", no_run)
        with pytest.raises(rates.NoGuaranteeError):
            run_experiment(config, out_dir=tmp_path)
        assert not (tmp_path / "trace.csv").exists()

    def test_schedule_on_fixed_step_method_flagged(self, tmp_path):
        path, _ = quadratic_config(tmp_path, alpha={"schedule": "sqrt"})
        problems = validate_config(ExperimentConfig.load(path))
        assert any(p.startswith("alpha:") for p in problems)


class TestBuilders:
    def test_path_and_clique(self):
        seq = harness.build_sequence({"type": "static-path", "n": 4})
        assert len(seq.snapshot(0).links) == 3
        seq = harness.build_sequence({"type": "static-clique", "n": 4})
        assert len(seq.snapshot(0).links) == 6

    def test_graph_from_file(self, tmp_path):
        snap = graphs.random_strongly_connected_digraph(5, 9, seed=2)
        path = tmp_path / "g.txt"
        path.write_text(graphs.snapshot_to_text(snap))
        seq = harness.build_sequence({"type": "file", "path": str(path)})
        assert seq.kind == graphs.DIRECTED
        assert seq.snapshot(3).links == snap.links

    def test_objective_bundle(self, tmp_path):
        suite = objectives.quadratic_suite(np.arange(6.0).reshape(3, 2),
                                           np.array([1.0, 2.0, 3.0]))
        objectives.save_suite(suite, tmp_path / "suite")
        loaded = harness.build_suite({"family": "bundle",
                                      "path": str(tmp_path / "suite")})
        assert loaded.x_star == pytest.approx(suite.x_star)

    def test_zero_family(self):
        suite = harness.build_suite({"family": "zero", "n": 3, "p": 2})
        assert suite.L == 0.0

    def test_sqrt_schedule_block(self, tmp_path):
        # the scale a is the step size; run() reads it as a / sqrt(k+1)
        path, _ = quadratic_config(tmp_path, algorithm="subgradient-push",
                                   alpha={"schedule": "sqrt", "a": 2.0})
        assert ExperimentConfig.load(path).step_size == pytest.approx(2.0)

    def test_unknown_blocks_rejected(self):
        with pytest.raises(harness.ConfigError):
            harness.build_sequence({"type": "mystery"})
        with pytest.raises(harness.ConfigError):
            harness.build_suite({"family": "mystery"})
        with pytest.raises(harness.ConfigError):
            harness.build_rule("mystery")


class TestSection6Problem:
    def test_declared_geometry(self):
        prob = section6_problem(0)
        x0 = np.zeros((prob.suite.n, prob.suite.p))
        dists = np.linalg.norm(prob.x_star[None, :] - x0, axis=1)
        assert np.abs(dists - 300.0).max() <= 1e-6
        # the placed point is the exact minimizer: gradients cancel there
        grad = prob.suite.average_gradient(prob.x_star)
        assert np.linalg.norm(grad) <= 1e-12
        # solution-side residuals sit strictly inside the quadratic branch
        assert np.abs(prob.noise).max() <= 0.5 * XI + 1e-12
        # the start sits in the clipped branch for every component whose row
        # is not nearly orthogonal to the solution direction
        y = np.array([t[0] for t in prob.suite.data["targets"]])
        c = prob.rows @ prob.x_star
        for ci, yi in zip(c, y):
            if abs(ci) > 2 * XI:
                assert abs(yi) > XI
        assert prob.initial_clipped >= prob.suite.n - 2

    def test_unit_lipschitz_rows(self):
        prob = section6_problem(3)
        for comp in prob.suite.components:
            assert comp.L == pytest.approx(1.0, rel=1e-12)

    def test_reference_matches_construction(self):
        prob = section6_problem(1)
        ref = objectives.solve_reference(prob.suite, tolerance=1e-12)
        assert np.linalg.norm(ref.x_star - prob.x_star) <= 1e-9

    def test_base_graph_sizes(self):
        prob = section6_problem(2)
        assert len(prob.base_digraph.links) == 24
        assert len(prob.base_undirected.links) == 23
        assert prob.base_digraph.is_connected()

    def test_deterministic_in_seed(self):
        a, b = section6_problem(5), section6_problem(5)
        assert np.array_equal(a.rows, b.rows)
        assert a.base_digraph.links == b.base_digraph.links


class TestReproduceLight:
    def test_ti_directed_smoke(self, tmp_path):
        result = harness.reproduce_section6("ti-directed", seed=0,
                                            iterations=300,
                                            out_dir=tmp_path)
        assert set(result["traces"]) == {"diging", "diging-atc", "push-diging",
                                         "subgradient-push"}
        assert (tmp_path / "ti-directed-diging.csv").exists()
        assert result["problem"]["x_star_distance"] == pytest.approx(300.0,
                                                                     abs=1e-6)

    def test_tv_directed_runs_push_only(self):
        result = harness.reproduce_section6("tv-directed", seed=0,
                                            iterations=150)
        assert set(result["traces"]) == {"push-diging", "subgradient-push"}

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            harness.reproduce_section6("nope")
