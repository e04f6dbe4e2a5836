"""Command-line contract: exit codes, determinism, printed bound values."""

import json
import warnings

import numpy as np
import pytest

from digrate import algorithms, cli, graphs, mixing, objectives, streams
from digrate.traces import RunTrace


def write_config(tmp_path, **overrides):
    cfg = {
        "algorithm": "diging",
        "graph": {"type": "static-random-connected", "n": 4, "extra_edges": 2,
                  "seed": 3},
        "mixing": "metropolis",
        "objective": {"family": "quadratic", "n": 4, "p": 2, "seed": 5},
        "alpha": 0.05,
        "iterations": 300,
        "seed": 9,
        "output": "trace.csv",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# block-connected windows of two slots audited with B = 2: at seed 1 some
# audit window straddles two graph windows and its union graph is not
# connected, so delta = 1 and the audit block certifies nothing
DELTA_ONE_AUDIT = dict(
    graph={"type": "block-connected", "n": 12, "window": 2, "seed": 1},
    objective={"family": "quadratic", "n": 12, "p": 4, "seed": 1},
    alpha=0.3, iterations=4000, seed=1,
    theory_audit={"B": 2, "delta": "empirical", "lambda": "certified"})


class TestRun:
    def test_run_twice_byte_identical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, x0="random")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        cli.main(["run", "--config", str(config), "--out", str(out_a)])
        monkeypatch.setenv(cli.SEED_ENV, "4242")
        cli.main(["run", "--config", str(config), "--out", str(out_b)])
        assert (out_a / "trace.csv").read_text() != (out_b / "trace.csv").read_text()

    def test_missing_config_is_parse_error(self, tmp_path):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_PARSE

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_directory_is_parse_error(self, tmp_path, capsys, command):
        assert cli.main([command, "--config", str(tmp_path)]) == cli.EXIT_PARSE
        assert "error: config:" in capsys.readouterr().err

    def test_malformed_config_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.main(["run", "--config", str(bad)]) == cli.EXIT_PARSE
        assert "line" in capsys.readouterr().err


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["validate", "--config", str(config)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_disconnected_graph_names_first_window(self, tmp_path, capsys):
        config = write_config(
            tmp_path, graph={"type": "static-edges", "n": 4,
                             "links": [[1, 2], [3, 4]], "declared_B": 1})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "window 0" in err

    def test_audit_block_certifying_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path, **DELTA_ONE_AUDIT)
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "theory_audit: delta=1.0 >= 1 certifies nothing" in captured.err
        assert "config valid" not in captured.out

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_custom_matrix(self, tmp_path, capsys, bad):
        matrix = tmp_path / "w.csv"
        matrix.write_text(f"{bad},0.5,0.5\n0.5,0.5,0\n0.5,0,0.5\n")
        config = write_config(
            tmp_path, graph={"type": "static-path", "n": 3},
            objective={"family": "quadratic", "n": 3, "p": 2, "seed": 5},
            mixing={"rule": "custom", "path": str(matrix), "mode": "doubly"})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "custom matrix entry (1, 1) is not finite" in captured.err
        assert "config valid" not in captured.out

    def test_custom_matrix_mode_checked_as_run_checks_it(self, tmp_path, capsys,
                                                         monkeypatch):
        # doubly stochastic entries declared column stochastic: DIGing steps
        # only on a matrix certified doubly stochastic, so both commands fail
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        matrix = tmp_path / "w.csv"
        matrix.write_text("\n".join([",".join(["0.25"] * 4)] * 4) + "\n")
        config = write_config(
            tmp_path, graph={"type": "static-path", "n": 4},
            mixing={"rule": "custom", "path": str(matrix), "mode": "column"})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_VALIDATION
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.count("need a doubly stochastic matrix, got column") == 2
        assert "config valid" not in captured.out
        assert not (tmp_path / "trace.csv").exists()

    def test_custom_matrix_of_other_size(self, tmp_path, capsys, monkeypatch):
        # a 3x3 matrix on a 4-vertex graph: both commands name both sizes,
        # and run stops before any iteration
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        matrix = tmp_path / "w.csv"
        matrix.write_text("\n".join([",".join([str(1 / 3)] * 3)] * 3) + "\n")
        config = write_config(
            tmp_path, graph={"type": "static-path", "n": 4},
            mixing={"rule": "custom", "path": str(matrix), "mode": "doubly"})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_VALIDATION
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.count("size: custom matrix is 3x3, graph has "
                                  "4 vertices") == 2
        assert "matmul" not in captured.err
        assert "config valid" not in captured.out
        assert not (tmp_path / "trace.csv").exists()

    def test_kind_mismatch(self, tmp_path, capsys):
        config = write_config(tmp_path, algorithm="push-diging")
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_VALIDATION

    def test_schedule_on_fixed_step_method(self, tmp_path, capsys):
        config = write_config(tmp_path, alpha={"schedule": "sqrt"})
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_VALIDATION
        assert "fixed step size" in capsys.readouterr().err


class TestMalformedScalars:
    """`validate` and `run` share one parser: a bad scalar field is a parse
    error (exit 2) for both, never a traceback or a silent default."""

    @pytest.mark.parametrize("override", [
        {"alpha": "fast"},
        {"alpha": {"schedule": "cubic"}},
        {"iterations": "300"},
        {"iterations": -5},
        {"x0": "ones"},
        {"seed": "nine"},
        {"alpha": 10 ** 400},
        {"algorithm": ["diging"]},
    ], ids=["alpha-string", "alpha-cubic", "iterations-string",
            "iterations-negative", "x0-ones", "seed-string", "alpha-400-digits",
            "algorithm-list"])
    def test_validate_and_run_both_reject(self, tmp_path, capsys, monkeypatch,
                                          override):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(tmp_path, graph={"type": "static-path", "n": 4},
                              **override)
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_PARSE
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.count(f"error: {next(iter(override))}:") == 2
        assert "config valid" not in captured.out
        assert not (tmp_path / "trace.csv").exists()


class TestMalformedBlocks:
    """A graph, objective or theory_audit block with a missing key or a value
    of the wrong type is a parse error (exit 2) naming the block, for
    `validate` and `run` alike."""

    @pytest.mark.parametrize("override,block", [
        ({"graph": {"type": "static-path"}}, "graph"),
        ({"graph": 5}, "graph"),
        ({"theory_audit": {"B": [1]}}, "theory_audit"),
        ({"theory_audit": {"B": 1, "eta": "x"}}, "theory_audit"),
        ({"graph": {"type": "subsample", "fraction": "x",
                    "base": {"type": "static-path", "n": 4}}}, "graph"),
        ({"objective": {"family": "quadratic", "p": 2, "seed": 5}}, "objective"),
        ({"graph": {"type": "static-edges", "n": 4, "kind": "directd",
                    "links": [[1, 2], [2, 3], [3, 4], [4, 1]]}}, "graph"),
        ({"graph": {"type": "static-path", "n": 4, "directed_view": "no"}}, "graph"),
        ({"graph": {"type": "static-path", "n": 4, "directed_view": 1}}, "graph"),
        ({"graph": {"type": "static-path", "n": 4, "declared_B": 0}}, "graph"),
        ({"graph": {"type": "static-path", "n": 4, "declared_B": -2}}, "graph"),
        ({"graph": {"type": "static-path", "n": 4, "declared_B": True}}, "graph"),
        ({"graph": {"type": "static-path", "n": 4, "declaredB": 3}}, "graph"),
        ({"graph": {"type": "block-connected", "n": 4, "window": 2, "windw": 2}},
         "graph"),
        ({"graph": {"type": "subsample", "fraction": 0.5,
                    "base": {"type": "static-path", "n": 4, "sede": 1}}}, "graph.base"),
        ({"objective": {"family": "quadratic", "n": 4, "p": 2, "sede": 5}}, "objective"),
        ({"mixing": {"rule": "custom", "path": "matrix.csv", "mdoe": "doubly"}},
         "mixing"),
        ({"theory_audit": {"B": 1, "lamda": 0.5}}, "theory_audit"),
        ({"theory_audit": {"B": 1, "delta": float("nan")}}, "theory_audit"),
        ({"theory_audit": {"B": 1, "eta": float("inf")}}, "theory_audit"),
        ({"theory_audit": {"B": 1, "lambda": float("nan")}}, "theory_audit"),
        ({"objective": {"family": "quadratic", "n": 4, "p": 2,
                        "target_scale": float("nan")}}, "objective"),
        # unreadable files: "." is the working directory
        ({"graph": {"type": "file", "path": "missing/graph.txt"}}, "graph"),
        ({"graph": {"type": "file", "path": "."}}, "graph"),
        ({"graph": {"type": "subsample", "fraction": 0.5,
                    "base": {"type": "file", "path": "missing/graph.txt"}}},
         "graph.base"),
        ({"objective": {"family": "bundle", "path": "missing/bundle"}}, "objective"),
        ({"mixing": {"rule": "custom", "path": "missing/w.csv"}}, "mixing"),
        # list entries are checked entry by entry
        ({"objective": {"family": "quadratic", "n": 4, "p": 2,
                        "curvature_range": [float("nan"), 1.0]}}, "objective"),
        ({"objective": {"family": "quadratic", "n": 4, "p": 2,
                        "curvature_range": [0.5, 1, 2]}}, "objective"),
        ({"objective": {"family": "quadratic",
                        "targets": [[float("nan")], [1.0], [2.0], [3.0]],
                        "curvatures": [1.0, 1.0, 1.0, 1.0]}}, "objective"),
        ({"objective": {"family": "quadratic",
                        "targets": [[0.0], [1.0, 2.0], [2.0], [3.0]],
                        "curvatures": [1.0, 1.0, 1.0, 1.0]}}, "objective"),
        ({"objective": {"family": "quadratic",
                        "targets": [[0.0], [1.0], [2.0], [3.0]],
                        "curvatures": [1.0, 1.0, float("inf"), 1.0]}}, "objective"),
        ({"graph": {"type": "static-edges", "n": 4,
                    "links": [[1, 2], [2, 3], [3, 4], [3, True]]}}, "graph"),
        ({"graph": {"type": "block-connected", "n": 4, "window": 2,
                    "extra_edges": -3}}, "graph"),
        ({"graph": {"type": "static-random-connected", "n": 4, "extra_edges": -1}},
         "graph"),
        ({"objective": {"family": "quadratic", "n": 4, "p": 0}}, "objective"),
        ({"objective": {"family": "zero", "n": 4, "p": 0}}, "objective"),
        # sizes are positive integers, seeds nonnegative ones
        ({"graph": {"type": "static-path", "n": 0}}, "graph"),
        ({"graph": {"type": "block-connected", "n": 0, "window": 2}}, "graph"),
        ({"graph": {"type": "block-connected", "n": 4, "window": 0}}, "graph"),
        ({"objective": {"family": "quadratic", "n": 0, "p": 2}}, "objective"),
        ({"objective": {"family": "zero", "n": 0}}, "objective"),
        ({"graph": {"type": "static-random-connected", "n": 4, "seed": -1}}, "graph"),
        ({"graph": {"type": "block-connected", "n": 4, "window": 2, "seed": -1}},
         "graph"),
        ({"graph": {"type": "subsample", "fraction": 0.5, "seed": -1,
                    "base": {"type": "static-path", "n": 4}}}, "graph"),
        ({"graph": {"type": "subsample", "fraction": 0.5,
                    "base": {"type": "static-random-connected", "n": 4, "seed": -1}}},
         "graph.base"),
        ({"objective": {"family": "quadratic", "n": 4, "p": 2, "seed": -2}}, "objective"),
        ({"objective": {"family": "huber-benchmark", "seed": -1}}, "objective"),
        ({"graph": {"type": "subsample", "fraction": 0,
                    "base": {"type": "static-path", "n": 4}}}, "graph"),
        ({"graph": {"type": "subsample", "fraction": 1.5,
                    "base": {"type": "static-path", "n": 4}}}, "graph"),
        ({"theory_audit": {"B": 0}}, "theory_audit"),
        ({"theory_audit": {"B": 1, "delta_horizon": 0}}, "theory_audit"),
    ], ids=["graph-without-n", "graph-number", "audit-B-list", "audit-eta-string",
            "fraction-string", "objective-without-n", "kind-misspelt",
            "directed-view-string", "directed-view-integer", "declared-B-zero",
            "declared-B-negative", "declared-B-boolean", "declared-B-misspelt",
            "window-misspelt", "base-key-misspelt", "objective-key-misspelt",
            "mixing-key-misspelt", "audit-key-misspelt", "audit-delta-nan",
            "audit-eta-infinite", "audit-lambda-nan", "target-scale-nan",
            "graph-file-missing", "graph-file-directory", "base-file-missing",
            "bundle-missing", "mixing-matrix-missing", "curvature-range-nan",
            "curvature-range-three", "target-nan", "targets-ragged",
            "curvature-infinite", "link-boolean", "block-extra-edges-negative",
            "static-extra-edges-negative", "quadratic-p-zero", "zero-p-zero",
            "graph-n-zero", "block-n-zero", "window-zero", "quadratic-n-zero",
            "zero-n-zero", "graph-seed-negative", "block-seed-negative",
            "subsample-seed-negative", "base-seed-negative", "objective-seed-negative",
            "huber-seed-negative", "fraction-zero", "fraction-above-one",
            "audit-B-zero", "delta-horizon-zero"])
    def test_validate_and_run_both_reject(self, tmp_path, capsys, monkeypatch,
                                          override, block):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(tmp_path, **{"graph": {"type": "static-path", "n": 4},
                                           **override})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_PARSE
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.count(f"error: {block}:") == 2
        assert "config valid" not in captured.out
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("manifest", [
        {"n": 4, "p": 2},
        [{"family": "quadratic"}],
        {"family": 3, "n": 4, "p": 2},
        {"family": "huber", "p": 2, "xi": 1.0},
        {"family": "huber", "n": 4, "p": 2, "xi": "x"},
        {"family": "huber", "n": 0, "p": 2, "xi": 1.0},
        {"family": "huber", "n": 4, "p": 2, "xi": float("nan")},
        {"family": "huber", "n": 4, "p": 2, "xi": 1.0, "ix": 1.0},
    ], ids=["without-family", "list-root", "family-number", "huber-without-n",
            "huber-xi-string", "huber-no-agents", "huber-xi-nan",
            "key-misspelt"])
    def test_malformed_bundle_manifest(self, tmp_path, capsys, monkeypatch,
                                       manifest):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        rng = np.random.default_rng(5)
        bundle = tmp_path / "bundle"
        objectives.save_suite(objectives.huber_regression_suite(
            [rng.normal(size=(2, 2)) for _ in range(4)],
            [rng.normal(size=2) for _ in range(4)], xi=1.0), bundle)
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        config = write_config(tmp_path, objective={"family": "bundle",
                                                   "path": str(bundle)})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_PARSE
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.count("error: objective: bundle") == 2
        assert not (tmp_path / "trace.csv").exists()


    @pytest.mark.parametrize("family,n,emptied,name", [
        ("huber", 5, False, "rows.csv"), ("huber", 3, False, "rows.csv"),
        ("huber", 4, True, "rows.csv"), ("quadratic", 5, False, "targets.csv"),
        ("quadratic", 3, False, "targets.csv"), ("quadratic", 4, True, "targets.csv")],
        ids=["huber-n-above", "huber-n-below", "huber-rows-empty",
             "quadratic-n-above", "quadratic-n-below", "quadratic-targets-empty"])
    def test_bundle_data_disagrees_with_manifest_n(self, tmp_path, capsys, monkeypatch,
                                                   family, n, emptied, name):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        rng = np.random.default_rng(5)
        suite = (objectives.quadratic_suite(rng.normal(size=(4, 2)), np.ones(4))
                 if family == "quadratic" else objectives.huber_regression_suite(
                     [rng.normal(size=(2, 2)) for _ in range(4)],
                     [rng.normal(size=2) for _ in range(4)], xi=1.0))
        bundle = tmp_path / "bundle"
        objectives.save_suite(suite, bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        (bundle / "manifest.json").write_text(json.dumps({**manifest, "n": n}))
        if emptied:
            (bundle / name).write_text("")
        config = write_config(tmp_path, graph={"type": "static-path", "n": n},
                              objective={"family": "bundle", "path": str(bundle)})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_PARSE
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.count(f"error: objective: bundle {name}") == 2
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("family,name,cell", [
        ("quadratic", "targets.csv", -1), ("quadratic", "curvatures.csv", 0),
        ("huber", "rows.csv", 1), ("huber", "rows.csv", -1)],
        ids=["targets", "curvatures", "huber-rows", "huber-targets"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_bundle_data(self, tmp_path, capsys, monkeypatch,
                                    family, name, cell, bad):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        rng = np.random.default_rng(5)
        suite = (objectives.quadratic_suite(rng.normal(size=(4, 2)), np.ones(4))
                 if family == "quadratic" else objectives.huber_regression_suite(
                     [rng.normal(size=(2, 2)) for _ in range(4)],
                     [rng.normal(size=2) for _ in range(4)], xi=1.0))
        bundle = tmp_path / "bundle"
        objectives.save_suite(suite, bundle)
        lines = (bundle / name).read_text().splitlines()
        cells = lines[0].split(",")
        cells[cell] = bad
        (bundle / name).write_text("\n".join([",".join(cells), *lines[1:]]) + "\n")
        config = write_config(tmp_path, objective={"family": "bundle",
                                                   "path": str(bundle)})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_PARSE
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "must be" in captured.err
        assert captured.err.count("error: objective: bundle") == 2
        assert not (tmp_path / "trace.csv").exists()


# numbers that Python's json reads but that no double holds
NON_FINITE_PARAMS = [
    {"n": 12, "B": 1, "delta": float("nan"), "mu_bar": 1.0, "L": 2.0},
    {"n": 12, "B": 1, "delta": 0.5, "mu_bar": 1.0, "L": float("inf")},
    {"n": 12, "B": 1, "mu_bar": 10 ** 400, "L": 2.0},
]
NON_FINITE_IDS = ["delta-nan", "L-infinite", "mu-bar-400-digits"]


class TestBounds:
    def test_formula_values_printed(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n": 12, "B": 1, "delta": 0.0,
                                      "mu_bar": 1.0, "kappa_bar": 1.0,
                                      "mu_hat": 1.0}))
        assert cli.main(["bounds", "--params", str(params)]) == 0
        out = capsys.readouterr().out
        assert "J1 = 44.569" in out
        assert "0.033655" in out

    def test_push_constants_section(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n": 2, "B": 1, "delta": 0.0,
                                      "mu_bar": 1.0, "L": 1.0, "mu_hat": 1.0,
                                      "B_minus": 1}))
        assert cli.main(["bounds", "--params", str(params)]) == 0
        out = capsys.readouterr().out
        assert "push-sum" in out and "Q1=" in out

    @pytest.mark.parametrize("raw", [
        {"B": 1, "mu_bar": 1.0, "L": 2.0}, [12, 1],
        {"n": 12, "B": 1, "mu_bar": 1.0, "L": 2.0, "alhpa": 0.01},
        {"n": 0, "B": 1, "mu_bar": 1.0, "L": 2.0},
        {"n": 12, "B": 0, "mu_bar": 1.0, "L": 2.0},
        *NON_FINITE_PARAMS,
    ], ids=["without-n", "list-root", "key-misspelt", "n-zero", "B-zero",
            *NON_FINITE_IDS])
    def test_malformed_params_is_parse_error(self, tmp_path, capsys, raw):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(raw))
        assert cli.main(["bounds", "--params", str(params)]) == cli.EXIT_PARSE
        assert "error: params:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", NON_FINITE_PARAMS, ids=NON_FINITE_IDS)
    def test_non_finite_params_print_no_table(self, tmp_path, capsys, raw):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(raw))
        assert cli.main(["bounds", "--params", str(params)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("extra,code", [
        ({"tau": -1}, cli.EXIT_PARSE), ({"B_minus": 0}, cli.EXIT_PARSE),
        ({"alpha": -1}, cli.EXIT_PARSE), ({"alpha": 1.0}, cli.EXIT_VALIDATION),
    ], ids=["tau-negative", "B-minus-zero", "alpha-negative", "alpha-beyond-window"])
    def test_failing_params_print_nothing(self, tmp_path, capsys, extra, code):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n": 3, "mu_bar": 1.0, "L": 2.0, **extra}))
        assert cli.main(["bounds", "--params", str(params)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err and "Traceback" not in captured.err

    def test_missing_L_and_kappa(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n": 2, "B": 1, "mu_bar": 1.0}))
        assert cli.main(["bounds", "--params", str(params)]) == cli.EXIT_PARSE


def audit_constant(key, value):
    """A sidecar edit that sets one entry of its theory_audit block."""
    def edit(d):
        block = {**d["metadata"]["theory_audit"], key: value}
        return {**d, "metadata": {**d["metadata"], "theory_audit": block}}
    return edit


class TestAuditAndReproduce:
    def test_audit_of_run_with_theory_block(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        # a step inside the certified window so the product must stay below 1
        config = write_config(
            tmp_path, iterations=400, alpha=0.0004,
            theory_audit={"B": 1, "delta": "empirical", "lambda": "certified"})
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["audit", "--trace", str(tmp_path / "trace.csv")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_main_calls_share_no_state(self, tmp_path, capsys, monkeypatch):
        # one parser serves every call: a --lambda given to one audit must not
        # stay for the next, which falls back to the trace's stored rate
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(
            tmp_path, iterations=400, alpha=0.0004,
            theory_audit={"B": 1, "delta": "empirical", "lambda": "certified"})
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == 0
        trace = str(tmp_path / "trace.csv")
        stored = RunTrace.read(trace).metadata["theory_audit"]["lambda"]
        capsys.readouterr()
        given = round((1 + stored) / 2, 6)   # slower than the stored rate
        assert cli.main(["audit", "--trace", trace, "--lambda", str(given)]) == 0
        assert capsys.readouterr().out.startswith(f"audit at lambda={given:.12g}, ")
        assert cli.main(["audit", "--trace", trace]) == 0
        assert capsys.readouterr().out.startswith(f"audit at lambda={stored:.12g}, ")
        assert cli._build_parser() is cli._build_parser()

    def test_audit_missing_sidecar(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(tmp_path)
        cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
        code = cli.main(["audit", "--trace", str(tmp_path / "trace.csv")])
        assert code == cli.EXIT_PARSE

    def test_audit_sidecar_without_constants(self, tmp_path, capsys):
        # a library run records the audit series but no theory_audit block,
        # so a given --lambda has no constants to audit against
        suite = objectives.quadratic_suite(np.array([[0.0], [2.0]]), np.ones(2))
        seq = graphs.static_sequence(graphs.undirected(2, [(1, 2)]))
        algorithms.run("diging", seq, mixing.metropolis, suite, 0.1, 20,
                       record_audit=True).write(tmp_path / "trace.csv")
        code = cli.main(["audit", "--trace", str(tmp_path / "trace.csv"),
                         "--lambda", "0.9"])
        assert code == cli.EXIT_PARSE
        assert "theory_audit: needs 'n'" in capsys.readouterr().err

    def test_unaudited_rerun_leaves_no_stale_sidecar(self, tmp_path, capsys,
                                                     monkeypatch):
        # an audited run, then a shorter one without the block into the same
        # --out: the first run's ledger must not be printed for the second
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        trace = tmp_path / "out" / "trace.csv"
        audited = write_config(
            tmp_path, iterations=300, alpha=0.0004,
            theory_audit={"B": 1, "delta": "empirical", "lambda": "certified"})
        assert cli.main(["run", "--config", str(audited), "--out",
                         str(trace.parent)]) == 0
        assert (tmp_path / "out" / "trace.csv.audit.json").exists()
        plain = write_config(tmp_path, iterations=50, alpha=0.0004)
        assert cli.main(["run", "--config", str(plain), "--out",
                         str(trace.parent)]) == 0
        assert not (tmp_path / "out" / "trace.csv.audit.json").exists()
        capsys.readouterr()
        assert cli.main(["audit", "--trace", str(trace)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "K=" not in captured.out
        assert "no audit sidecar" in captured.err

    def test_audit_rejects_sidecar_of_other_length(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        audited = write_config(
            tmp_path, iterations=300, alpha=0.0004,
            theory_audit={"B": 1, "delta": "empirical", "lambda": "certified"})
        cli.main(["run", "--config", str(audited), "--out", str(tmp_path / "a")])
        plain = write_config(tmp_path, iterations=50, alpha=0.0004)
        cli.main(["run", "--config", str(plain), "--out", str(tmp_path / "b")])
        sidecar = "trace.csv.audit.json"
        (tmp_path / "b" / sidecar).write_bytes((tmp_path / "a" / sidecar).read_bytes())
        capsys.readouterr()
        code = cli.main(["audit", "--trace", str(tmp_path / "b" / "trace.csv")])
        assert code == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "301 q_norm values" in captured.err and "51 rows" in captured.err

    @pytest.mark.parametrize("edit,code,message", [
        (lambda d: {k: v for k, v in d.items() if k != "z_norm"},
         cli.EXIT_VALIDATION, "trace.csv.audit.json: needs 'z_norm'"),
        (lambda d: {k: v for k, v in d.items() if k != "xbar0_error"},
         cli.EXIT_VALIDATION, "trace.csv.audit.json: needs 'xbar0_error'"),
        (lambda d: [d], cli.EXIT_VALIDATION,
         "trace.csv.audit.json: must be an object"),
        (lambda d: {**d, "q_norm": 5.0}, cli.EXIT_VALIDATION,
         "trace.csv.audit.json: q_norm=5.0 is not a list"),
        (lambda d: {**d, "r0": "x"}, cli.EXIT_VALIDATION,
         "trace.csv.audit.json: r0='x' is not a number"),
        (lambda d: {**d, "metadata": [1]}, cli.EXIT_VALIDATION,
         "trace.csv.audit.json: metadata=[1] is not an object"),
        (lambda d: {**d, "metadata": {**d["metadata"], "theory_audit": [1]}},
         cli.EXIT_PARSE, "trace.csv.audit.json theory_audit: must be an object"),
        (audit_constant("lambda", "x"), cli.EXIT_PARSE,
         "trace.csv.audit.json theory_audit: lambda='x' is not a number"),
        (audit_constant("n", 4.5), cli.EXIT_PARSE,
         "trace.csv.audit.json theory_audit: n=4.5 is not a positive integer"),
        # series entries are numbers, NaN and infinities included
        (lambda d: {**d, "q_norm": ["1.0", "2.0"]}, cli.EXIT_VALIDATION,
         "trace.csv.audit.json: q_norm=['1.0', '2.0'] is not a list of numbers"),
        (lambda d: {**d, "z_norm": [[1, 2], [3, 4]]}, cli.EXIT_VALIDATION,
         "trace.csv.audit.json: z_norm=[[1, 2], [3, 4]] is not a list of numbers"),
        (lambda d: {**d, "grad_norm": [None, 1.0]}, cli.EXIT_VALIDATION,
         "trace.csv.audit.json: grad_norm=[None, 1.0] is not a list of numbers"),
        (lambda d: {**d, "q_norm": [True, 1.0]}, cli.EXIT_VALIDATION,
         "trace.csv.audit.json: q_norm=[True, 1.0] is not a list of numbers"),
    ], ids=["without-z_norm", "without-xbar0_error", "list-root", "q_norm-number",
            "r0-string", "metadata-list", "theory-audit-list", "lambda-string",
            "n-fraction", "q_norm-strings", "z_norm-pairs", "grad_norm-nulls",
            "q_norm-booleans"])
    def test_audit_rejects_malformed_sidecar(self, tmp_path, capsys,
                                             monkeypatch, edit, code, message):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        audited = write_config(
            tmp_path, iterations=50, alpha=0.0004,
            theory_audit={"B": 1, "delta": "empirical", "lambda": "certified"})
        assert cli.main(["run", "--config", str(audited), "--out",
                         str(tmp_path)]) == 0
        sidecar = tmp_path / "trace.csv.audit.json"
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        capsys.readouterr()
        assert cli.main(["audit", "--trace", str(tmp_path / "trace.csv")]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "PASS" not in captured.out
        assert message in captured.err

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
    def test_audit_of_unreadable_trace_is_parse_error(self, tmp_path, capsys, name):
        assert cli.main(["audit", "--trace", str(tmp_path / name)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "error: trace: cannot read" in captured.err and captured.out == ""

    def test_reproduce_prints_summary(self, tmp_path, capsys):
        code = cli.main(["reproduce", "--case", "tv-directed", "--seed", "0",
                         "--iterations", "120", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "push-diging" in out and "subgradient-push" in out
        assert (tmp_path / "tv-directed-push-diging.csv").exists()

    @pytest.mark.parametrize("count, message", [("-5", "-5 is not a nonnegative"),
                                                ("x", "'x' is not an integer")])
    def test_reproduce_bad_iterations_is_usage_error(self, capsys, count, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "--case", "tv-directed", "--iterations", count])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestNegativeSeeds:
    def test_reproduce_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "--case", "tv-directed", "--seed", "-1",
                      "--iterations", "0"])
        assert exc.value.code == 2
        assert "-1 is not a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ("-3", "DIGRATE_SEED: -3 is not a nonnegative integer"),
        ("x", "DIGRATE_SEED: 'x' is not an integer")])
    def test_negative_env_seed_is_parse_error(self, tmp_path, capsys,
                                              monkeypatch, raw, message):
        monkeypatch.setenv(cli.SEED_ENV, raw)
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "trace.csv").exists()


class TestFailureExits:
    def test_diverging_run_exits_runtime(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(
            tmp_path, graph={"type": "static-path", "n": 4}, alpha=50.0,
            iterations=2000)
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "residual is not finite" in captured.err
        assert "final residual nan" not in captured.out

    def test_diverging_run_warns_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(
            tmp_path, graph={"type": "static-path", "n": 4}, alpha=50.0,
            iterations=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", "--config", str(config),
                             "--out", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        assert "Warning" not in capsys.readouterr().err

    def test_push_diging_audit_block_rejected(self, tmp_path, capsys,
                                              monkeypatch):
        # the config path has no push-sum constants, so it cannot certify
        # a push-diging run
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(
            tmp_path, algorithm="push-diging", mixing="out-degree",
            graph={"type": "static-random-connected", "n": 4, "extra_edges": 2,
                   "seed": 3, "directed_view": True},
            theory_audit={"B": 1, "delta": "empirical", "lambda": "certified"})
        assert cli.main(["validate", "--config", str(config)]) == cli.EXIT_VALIDATION
        assert "invalid: theory_audit:" in capsys.readouterr().err
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert "theory_audit:" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "trace.csv.audit.json").exists()

    def test_audit_window_with_delta_one_fails_fast(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config = write_config(tmp_path, **DELTA_ONE_AUDIT)
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert "certifies nothing" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "trace.csv.audit.json").exists()


class TestWindowDraws:
    """The benchmark's audited block-connected config draws each window of
    its sequence once per command, whatever order the command reads it in."""

    def test_validate_and_run_draw_each_window_once(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        drawn = []
        real = streams.seed_state

        def counted(rows, words):
            # a window's (seed, w) row is hashed once for its sub-seed
            drawn.extend(rows if words == 1 else [])
            return real(rows, words)

        monkeypatch.setattr(streams, "seed_state", counted)
        config = write_config(
            tmp_path,
            graph={"type": "block-connected", "n": 12, "window": 2, "seed": 0},
            objective={"family": "quadratic", "n": 12, "p": 4, "seed": 0},
            alpha=0.3, iterations=4000, seed=0,
            theory_audit={"B": 3, "delta": "empirical", "lambda": "certified"})
        assert cli.main(["validate", "--config", str(config)]) == 0
        # the first read draws block 0 alone: its 32 windows of 2
        assert drawn == [(0, w) for w in range(32)]
        drawn.clear()
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path)]) == 0
        assert len(set(drawn)) == len(drawn)
        # every window the 4,000 iterations step through was drawn
        assert {w for _, w in drawn} >= set(range(2000))
