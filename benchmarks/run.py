"""Layered benchmark for digrate.

    python3 benchmarks/run.py --workload reproduce --seed 0 --seconds 55 --trace 0

Builds the workload's inputs from --seed, sets them up several times (the
median is `setup_s`), then runs untraced passes for up to --seconds seconds
(at least two, so the replay check has a pair) and reports the median pass as
`wall_s`. With --trace 1 each untraced pass is followed by a traced
one, in which every wrapped function records spans; the per-layer metrics
come from the first traced pass.
Every pass is checked against the outputs recorded in expected.json. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics. `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import os

# pinned before numpy loads; recorded in the fingerprint
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
DEFAULT_SEED = 0  # held-out seed for confirming claims: 11 (README)

# metric -> (unit, span, how the value is read from that span's calls).
# A metric needs calls of its span; µs are per algorithm iteration. The
# metrics in BENCHMARK.json's `per_layer` list go into the --trace 1 JSON
# line; the rest apply to one workload only and are printed in the layer
# table and written to out/layers-<workload>.json (see README).
LAYER_METRICS = {
    "graphs.snapshot_calls": ("count", "graphs.snapshot", "calls"),
    "graphs.snapshot_us_per_iter": ("us", "graphs.snapshot", "us_per_iter"),
    "mixing.build_calls": ("count", "mixing.build", "calls"),
    "mixing.build_us_per_iter": ("us", "mixing.build", "us_per_iter"),
    "mixing.build_useful_ratio": ("ratio", "mixing.build", "distinct_ratio"),
    "objectives.grad_calls": ("count", "objectives.grad", "calls"),
    "objectives.grad_us_per_iter": ("us", "objectives.grad", "us_per_iter"),
    "algorithms.iterations": ("count", "algorithms.step", "calls"),
    "algorithms.step_self_us_per_iter": ("us", "algorithms.step", "self_us_per_iter"),
    "algorithms.loop_self_us_per_iter": ("us", "algorithms.run", "self_us_per_iter"),
    "graphs.self_share": ("ratio", "graphs.snapshot", "module_share"),
    "mixing.self_share": ("ratio", "mixing.build", "module_share"),
    "objectives.self_share": ("ratio", "objectives.grad", "module_share"),
    "algorithms.self_share": ("ratio", "algorithms.step", "module_share"),
    "trace_overhead_frac": ("ratio", "pass", "overhead"),
    "graphs.connectivity_s": ("s", "graphs.connectivity", "total_s"),
    "mixing.estimate_delta_s": ("s", "mixing.estimate_delta", "total_s"),
    "mixing.spectral_calls": ("count", "mixing.spectral", "calls"),
    "objectives.reference_s": ("s", "objectives.reference", "total_s"),
    "objectives.reference_iters": ("count", "objectives.reference", "extra_sum"),
    "rates.certificate_s": ("s", "rates.certificate", "total_s"),
    "rates.audit_s": ("s", "rates.audit", "total_s"),
    "traces.write_s": ("s", "traces.write", "total_s"),
    "traces.read_s": ("s", "traces.read", "total_s"),
    "traces.bytes_written": ("bytes", "traces.write", "extra_sum"),
    "cli.validate_s": ("s", "cli.validate", "total_s"),
    "cli.run_s": ("s", "cli.run", "total_s"),
    "cli.audit_s": ("s", "cli.audit", "total_s"),
    "cli.bounds_s": ("s", "cli.bounds", "total_s"),
    "harness.problem_s": ("s", "harness.problem", "total_s"),
    "harness.rate_fit_s": ("s", "harness.rate_fit", "total_s"),
}
PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def no_span(*args):
    """Stand-in for `Tracer.span` in untraced passes."""
    return contextlib.nullcontext()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_digrate():
    """Fresh import of the package from this checkout's src/ (never from an
    installed copy)."""
    for name in [m for m in sys.modules if m == "digrate" or m.startswith("digrate.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    dg = importlib.import_module("digrate")
    for sub in ("algorithms", "cli", "graphs", "harness", "mixing",
                "objectives", "rates", "traces"):
        importlib.import_module(f"digrate.{sub}")
    if Path(dg.__file__).resolve().parent != SRC / "digrate":
        raise ImportError(f"digrate imported from {dg.__file__}, not {SRC}")
    return dg


def fingerprint() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "digrate").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": ",".join(f"{v}={os.environ[v]}" for v in BLAS_VARS),
            "src_lines": src_lines}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, results: list, where: str) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{where}: {name}")


def layer_metrics(work, spans, overhead: float):
    """Per-layer numbers from one traced pass, for the metrics that apply to
    the workload, and the layers it must call whose wrapper saw no call.
    A missing layer's metrics are left out rather than reported as 0."""
    stats = tracing.LayerStats(spans)
    iters = stats.calls.get("algorithms.step", 0)
    per_iter = 1e6 / iters if iters else float("nan")
    pass_wall = stats.total["pass"]

    def distinct_ratio(span):
        extras = stats.extras.get(span, [])
        return len(set(extras)) / len(extras) if extras else 0.0

    read = {
        "calls": lambda span: stats.calls.get(span, 0),
        "total_s": lambda span: stats.total.get(span, 0.0),
        "us_per_iter": lambda span: stats.total.get(span, 0.0) * per_iter,
        "self_us_per_iter": lambda span: stats.self_time.get(span, 0.0) * per_iter,
        "extra_sum": lambda span: sum(stats.extras.get(span, [])),
        "distinct_ratio": distinct_ratio,
        "module_share":
            lambda span: stats.module_self(span.split(".")[0]) / pass_wall,
        "overhead": lambda span: overhead,
    }
    missing = [span for span in work.layers if stats.calls.get(span, 0) == 0]
    values = {metric: read[how](span)
              for metric, (_, span, how) in LAYER_METRICS.items()
              if (span == "pass" or span in work.layers) and span not in missing}
    return values, missing


def print_layer_table(work, spans, values, missing):
    print(f"per-layer metrics ({work.name}, traced pass):")
    for metric, (unit, span, _) in LAYER_METRICS.items():
        if metric in values:
            shown = f"{values[metric]:.6g} {unit}"
        elif span in missing:
            shown = "MISSING (wrapper saw no calls)"
        else:
            shown = "n/a on this workload"
        print(f"  {metric:34s} {shown}")
    # split of the pass, and of each reproduce case and CLI command, by module
    modules = ("graphs", "mixing", "objectives", "algorithms")
    starts = [sid for sid, s in enumerate(spans)
              if s[0] == "harness.reproduce" or s[0].startswith("cli.")]
    rows = [("pass", 0, len(spans))] + [
        (spans[sid][0] if spans[sid][4] is None else spans[sid][4], sid, hi)
        for sid, hi in zip(starts, starts[1:] + [len(spans)])]
    print("self-time share by module:")
    print(f"  {'segment':16s} {'wall_s':>8s} "
          + " ".join(f"{m:>11s}" for m in modules + ("other",)))
    for label, lo, hi in rows:
        part = tracing.LayerStats(spans, lo, hi)
        wall = spans[lo][2] - spans[lo][1]
        shares = [part.module_self(m) / wall for m in modules]
        print(f"  {label:16s} {wall:8.3f} "
              + " ".join(f"{v:11.1%}" for v in shares + [1.0 - sum(shares)]))


def run_workload(args) -> int:
    work = workloads.WORKLOADS[args.workload]
    expected_all = json.loads(EXPECTED.read_text())
    n_recorded = expected_all["recorded_seeds"]
    input_seed = args.seed % n_recorded
    expected = expected_all["workloads"][work.name][str(input_seed)]
    workdir = OUT / work.name
    shutil.rmtree(workdir, ignore_errors=True)
    os.environ.pop("DIGRATE_SEED", None)  # inputs come from --seed only

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        dg = import_digrate()
        ctx = work.setup(dg, input_seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    checks = Checks()
    first_key = None

    def timed_pass(span):
        gc.collect()
        t0 = time.perf_counter()
        with span("pass"):
            out = work.run(ctx, span)
        return time.perf_counter() - t0, out

    def check(out, where):
        nonlocal first_key
        checks.add(workloads.compare(expected, work.observe(ctx, out)), where)
        key = work.replay_key(out)
        if first_key is None:
            first_key = key
        else:
            checks.add(workloads.replay_equal(first_key, key), where)

    # with --trace 1 every untraced pass is followed by a traced one, so the
    # overhead is measured between neighbouring passes; the per-layer
    # metrics come from the first traced pass
    pass_times, overheads, tracer = [], [], None
    started = time.perf_counter()
    while True:
        elapsed, out = timed_pass(no_span)
        pass_times.append(elapsed)
        check(out, f"pass {len(pass_times)}")
        if args.trace:
            traced = tracing.Tracer(dg)
            traced.install()
            try:
                elapsed, out = timed_pass(traced.span)
            finally:
                traced.uninstall()
            overheads.append(elapsed / pass_times[-1] - 1.0)
            check(out, "traced pass")
            tracer = tracer or traced
        del out
        # stop before a pass that would likely end past the budget
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(pass_times)
        if len(pass_times) >= 2 and elapsed + per_round > args.seconds:
            break
    wall = statistics.median(pass_times)

    fp = fingerprint()
    print(f"workload {work.name}: seed {args.seed} (inputs from recorded seed "
          f"{input_seed}), {len(pass_times)} untraced passes, "
          f"{len(overheads)} traced passes, {SETUP_REPEATS} set-ups")
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    print("  pass times (s): " + " ".join(f"{t:.4f}" for t in pass_times))
    print("  setup times (s): " + " ".join(f"{t:.4f}" for t in setup_times))

    if args.trace:
        values, missing = layer_metrics(
            work, tracer.spans, statistics.median(overheads))
        # a layer the workload must call but whose wrapper saw no call (a
        # renamed function) fails a check, so it cannot pass for a speed-up
        checks.add([(f"{span} wrapper saw calls", span not in missing)
                    for span in work.layers], "traced pass")
        if tracer.unpatched:
            print("wrapped names not found: " + ", ".join(tracer.unpatched))
        print_layer_table(work, tracer.spans, values, missing)
        tracer.write(OUT / f"spans-{work.name}.csv")
        (OUT / f"layers-{work.name}.json").write_text(json.dumps({
            "workload": work.name, "seed": args.seed, "fingerprint": fp,
            "missing": missing, "metrics": values,
        }, indent=1) + "\n")
        metrics = {m: {"value": values[m], "unit": LAYER_METRICS[m][0]}
                   for m in PER_LAYER if m in values}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    failed = len(checks.failures)
    for failure in checks.failures[:20]:
        print(f"  CHECK FAILED {failure}")
    print("end-to-end metrics:" if not args.trace else "end-to-end (untraced):")
    print(f"  wall_s       {wall:.4f} s (median of {len(pass_times)} passes)")
    print(f"  setup_s      {statistics.median(setup_times):.4f} s "
          f"(median of {SETUP_REPEATS})")
    print(f"  peak_rss_mb  {peak_rss_mb():.1f} MB")
    print(f"  fail_frac    {failed / checks.attempted:.4g} "
          f"({failed} of {checks.attempted} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "digrate" / "__init__.py").is_file():
        print(f"error: no digrate sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
