"""The three benchmark workloads.

Each workload has a set-up (inputs built from the seed), a pass (the timed
work), `observe` (the outputs checked against the recorded values) and
`replay_key` (what two passes with the same seed must reproduce exactly).
The program only ever sees the generated inputs, never the seed argument.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

# residuals at or below this level are only required to stay below it;
# above it they must match the recorded value within RESIDUAL_RTOL
RESIDUAL_FLOOR = 1e-10
RESIDUAL_RTOL = 1e-9


def checkpoints(trace, ks) -> list:
    """(k, residual) at the listed iterations that the trace reached, plus
    the final row."""
    last = len(trace) - 1
    picked = sorted({k for k in ks if k <= last} | {last})
    return [[int(trace.k[i]), float(trace.residual[i])] for i in picked]


def diverged(trace) -> bool:
    final = float(trace.residual[-1])
    return (not math.isfinite(final) or final > 1.0
            or trace.metadata.get("terminated") is not None)


class Reproduce:
    """`harness.reproduce_section6` over the paper's three graph cases with
    the shipped step sizes and iteration counts (10 runs, 37,000 algorithm
    iterations on the 12-agent Huber problem)."""

    name = "reproduce"
    checkpoint_ks = (0, 10, 100, 1000, 2000, 3000)
    # layers that must see calls on this workload (see README)
    layers = ("graphs.snapshot", "mixing.build", "objectives.grad",
              "objectives.reference", "algorithms.run", "algorithms.step",
              "harness.problem", "harness.rate_fit")

    def setup(self, dg, seed: int, workdir: Path) -> dict:
        # reproduce_section6 rebuilds both inside the pass, as the CLI does;
        # set-up times what building them costs on its own
        problem = dg.harness.section6_problem(seed)
        dg.objectives.solve_reference(problem.suite, tolerance=1e-12)
        return {"dg": dg, "seed": seed}

    def run(self, ctx: dict, span) -> dict:
        harness = ctx["dg"].harness
        out = {}
        for case in harness.CASES:
            with span("harness.reproduce", case):
                result = harness.reproduce_section6(case, seed=ctx["seed"])
            for algo, trace in result["traces"].items():
                out[f"{case}/{algo}"] = trace
        return out

    def observe(self, ctx: dict, out: dict) -> dict:
        return {key: {"checkpoints": checkpoints(trace, self.checkpoint_ks),
                      "terminated": trace.metadata.get("terminated") is not None}
                for key, trace in out.items()}

    def replay_key(self, out: dict) -> dict:
        return out


SWEEP_GRID = (0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.2)


class SweepStatic:
    """DIGing and DIGing-ATC over the README step grid (times 1/L) on one
    static random graph with 48 agents and a seeded quadratic suite."""

    name = "sweep-static"
    n, p, extra_edges, iterations = 48, 8, 48, 500
    checkpoint_ks = (0, 10, 100, 250)
    layers = ("graphs.snapshot", "mixing.build", "objectives.grad",
              "algorithms.run", "algorithms.step")

    def setup(self, dg, seed: int, workdir: Path) -> dict:
        graph = dg.graphs.random_connected_graph(self.n, self.extra_edges, seed)
        seq = dg.graphs.static_sequence(graph, "benchmark sweep graph")
        suite = dg.harness.build_suite({"family": "quadratic", "n": self.n,
                                        "p": self.p, "seed": seed})
        x0 = np.random.default_rng((seed, 1)).normal(size=(self.n, self.p))
        return {"dg": dg, "seq": seq, "suite": suite, "x0": x0,
                "x_star": suite.x_star, "L": suite.L}

    def run(self, ctx: dict, span) -> dict:
        dg = ctx["dg"]
        out = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for algo in ("diging", "diging-atc"):
                for f in SWEEP_GRID:
                    out[f"{algo}/{f:g}"] = dg.algorithms.run(
                        algo, ctx["seq"], dg.mixing.metropolis, ctx["suite"],
                        f / ctx["L"], self.iterations, x0=ctx["x0"],
                        x_star=ctx["x_star"])
        return out

    def observe(self, ctx: dict, out: dict) -> dict:
        obs = {}
        for key, trace in out.items():
            if diverged(trace):
                obs[key] = {"diverged": True}
            else:
                obs[key] = {"diverged": False,
                            "checkpoints": checkpoints(trace, self.checkpoint_ks)}
        return obs

    def replay_key(self, out: dict) -> dict:
        return out


class AuditCli:
    """In-process `digrate` CLI: validate, run, audit, bounds on DIGing over
    a block-connected sequence (n=12, window 2) with a theory-audit block."""

    name = "audit-cli"
    iterations = 4000
    checkpoint_ks = (0, 10, 100, 1000, 2000, 3000)
    commands = ("validate", "run", "audit", "bounds")
    printed = ("validate", "audit", "bounds")  # stdout compared line by line
    layers = ("graphs.snapshot", "graphs.connectivity", "mixing.build",
              "mixing.estimate_delta", "mixing.spectral", "objectives.grad",
              "algorithms.run", "algorithms.step", "rates.certificate",
              "rates.audit", "traces.write", "traces.read", "cli.validate",
              "cli.run", "cli.audit", "cli.bounds")

    def setup(self, dg, seed: int, workdir: Path) -> dict:
        config = {
            "algorithm": "diging",
            "graph": {"type": "block-connected", "n": 12, "window": 2,
                      "seed": seed},
            "mixing": "metropolis",
            "objective": {"family": "quadratic", "n": 12, "p": 4, "seed": seed},
            "alpha": 0.3,
            "iterations": self.iterations,
            "seed": seed,
            "output": "trace.csv",
            # an audit window of 2*window-1 always holds one aligned block,
            # so every sliding window product contracts (delta < 1)
            "theory_audit": {"B": 3, "delta": "empirical", "lambda": "certified"},
        }
        # the CLI rebuilds sequence and suite inside the pass; set-up times
        # building them and takes the constants for the bounds table
        dg.harness.build_sequence(config["graph"])
        suite = dg.harness.build_suite(config["objective"])
        params = {"n": 12, "B": 3, "delta": 0.9, "mu_bar": suite.mu_bar,
                  "L": suite.L}
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / "config.json"
        params_path = workdir / "params.json"
        config_path.write_text(json.dumps(config))
        params_path.write_text(json.dumps(params))
        out_dir = workdir / "run"
        trace_path = out_dir / "trace.csv"
        argv = {
            "validate": ["validate", "--config", str(config_path)],
            "run": ["run", "--config", str(config_path), "--out", str(out_dir)],
            "audit": ["audit", "--trace", str(trace_path)],
            "bounds": ["bounds", "--params", str(params_path)],
        }
        return {"dg": dg, "argv": argv, "out_dir": out_dir,
                "trace_path": trace_path}

    def run(self, ctx: dict, span) -> dict:
        cli = ctx["dg"].cli
        shutil.rmtree(ctx["out_dir"], ignore_errors=True)
        codes, stdout = {}, {}
        for cmd in self.commands:
            # stdout is kept for the checks; error messages stay on stderr
            out = io.StringIO()
            with span(f"cli.{cmd}"), contextlib.redirect_stdout(out):
                codes[cmd] = cli.main(ctx["argv"][cmd])
            stdout[cmd] = out.getvalue()
        path = ctx["trace_path"]
        return {"codes": codes, "stdout": stdout,
                "csv": path.read_bytes() if path.exists() else b""}

    def observe(self, ctx: dict, out: dict) -> dict:
        points = []
        if out["csv"]:
            trace = ctx["dg"].traces.RunTrace.from_csv(out["csv"].decode())
            points = checkpoints(trace, self.checkpoint_ks)
        # `run` prints the trace path, which differs between checkouts; its
        # output is checked through the trace instead
        return {"exit_codes": out["codes"],
                "stdout": {cmd: out["stdout"][cmd].splitlines()
                           for cmd in self.printed},
                "run": {"checkpoints": points}}

    def replay_key(self, out: dict) -> bytes:
        return out["csv"]


WORKLOADS = {w.name: w for w in (Reproduce(), SweepStatic(), AuditCli())}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _check_checkpoints(label: str, want: list, got: list) -> list:
    got_at = dict((k, r) for k, r in got)
    results = []
    for k, r_want in want:
        r_got = got_at.get(k)
        if r_got is None:
            ok = False
        elif r_want > RESIDUAL_FLOOR:
            ok = (math.isfinite(r_got)
                  and abs(r_got - r_want) <= RESIDUAL_RTOL * abs(r_want))
        else:
            ok = r_got < RESIDUAL_FLOOR
        results.append((f"{label} residual at k={k}", ok))
    return results


def compare(expected: dict, observed: dict) -> list:
    """(check name, passed) for every recorded output of one pass."""
    results = []
    if "exit_codes" in expected:
        for cmd, code in observed["exit_codes"].items():
            results.append((f"exit code of {cmd}", code == 0))
        for cmd, lines in expected["stdout"].items():
            results.append((f"stdout of {cmd}", observed["stdout"][cmd] == lines))
        return results + _check_checkpoints(
            "run", expected["run"]["checkpoints"], observed["run"]["checkpoints"])
    for key, want in expected.items():
        got = observed.get(key)
        if got is None:
            results.append((f"{key} present", False))
            continue
        if "diverged" in want:
            results.append((f"{key} divergence", got["diverged"] == want["diverged"]))
            if want["diverged"] or got["diverged"]:
                continue
        if "terminated" in want:
            results.append((f"{key} termination",
                            got["terminated"] == want["terminated"]))
        results += _check_checkpoints(key, want["checkpoints"], got["checkpoints"])
    return results


def replay_equal(first, again) -> list:
    """(check name, passed): a second pass must reproduce the first exactly."""
    if isinstance(first, bytes):
        return [("trace CSV byte-identical on replay", first == again)]
    return [(f"{key} same rows on replay",
             key in again and trace.same_rows(again[key]))
            for key, trace in first.items()]
