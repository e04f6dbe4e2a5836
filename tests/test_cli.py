"""Command-line contract: exit codes, determinism, printed bound values."""

import json
import warnings

import numpy as np
import pytest

from digrate import algorithms, cli, graphs, mixing, objectives


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
# window straddles two blocks and its union graph is not connected, so
# delta = 1 and the audit block certifies nothing
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
    ], ids=["alpha-string", "alpha-cubic", "iterations-string",
            "iterations-negative", "x0-ones", "seed-string"])
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

    def test_missing_L_and_kappa(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n": 2, "B": 1, "mu_bar": 1.0}))
        assert cli.main(["bounds", "--params", str(params)]) == cli.EXIT_PARSE


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
        assert "audit constants" in capsys.readouterr().err

    def test_reproduce_prints_summary(self, tmp_path, capsys):
        code = cli.main(["reproduce", "--case", "tv-directed", "--seed", "0",
                         "--iterations", "120", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "push-diging" in out and "subgradient-push" in out
        assert (tmp_path / "tv-directed-push-diging.csv").exists()


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
