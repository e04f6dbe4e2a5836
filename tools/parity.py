"""SHA-256 digests of the outputs a behaviour-preserving change must keep.

Run it once per checkout and compare the printed lines:

    PYTHONPATH=<checkout>/src python3 tools/parity.py > digests.txt

It covers:
- the trace CSV and audit sidecar of every `reproduce_section6` run (all
  three graph cases) at seeds 0 and 11;
- the block-connected DIGing config with a theory-audit block, through
  the CLI at seeds 0, 1 and 11: trace CSV, audit sidecar, and the stdout
  of `validate`, `audit` and `bounds`;
- the entries of the three mixing builders and `snapshot_to_text` on 40
  seeded random graphs of 1 to 15 vertices;
- `snapshot_to_text` of the seeded generators' output: random trees,
  connected graphs and strongly connected digraphs, and the snapshots of
  subsampled and block-connected sequences;
- subsample snapshots of iterations 0 to 129 (two draw-block boundaries),
  undirected, their directed view and directed, read in shuffled order:
  `snapshot_to_text` of each, and the entries and certificate fields of
  their Metropolis, lazy Metropolis and out-degree builds;
- block-connected snapshots of iterations 0 to 129 (windows of 1 to 3
  iterations), read in shuffled order: `snapshot_to_text` of each, and the
  entries and certificate fields of their Metropolis and lazy Metropolis
  builds;
- the `sweep-static` grid at seed 0: the trace CSV of DIGing and
  DIGing-ATC at each step size of the eight-point grid (times 1/L) on one
  static random graph, n = 48, p = 8, 500 iterations, each through its own
  `run` call (p > 1, and the upper grid points diverge);
- every trace written above, read back with `RunTrace.read` and written
  again: its CSV plus its sidecar;
- a zero-iteration audited run and an audited run that ends on a NaN
  residual (its last row must read `nan`): trace CSV and sidecar, for
  DIGing, DIGing-ATC and DGD in one lockstep call;
- block-connected snapshots with windows of 5, 64 and 65 iterations and
  extra edges, over three draw blocks each (a block holds the whole windows
  that fit in `graphs._BLOCK` iterations, at least one), read in shuffled
  order: `snapshot_to_text` of each, and the entries and certificate fields
  of their Metropolis and lazy Metropolis builds;
- static and periodic sequences (periods 1, 4 and 5, a period repeating a
  snapshot object), undirected with their directed views and directed,
  over six periods read in shuffled order: `snapshot_to_text` of each, and
  the entries and certificate fields of their builds;
- `digrate bounds` on 300 seeded params files in three groups of 100
  (delta in [0, 0.99), delta within 1e-1 to 1e-14 of 1, and with
  `B_minus` on 1 to 6 vertices), each with a step far below the window
  end, on either branch, beyond the window, or none: the stdout of all
  files of a group, and a tally of their exit codes;
- the gradient paths on seeded suites: a quadratic and a Huber suite with
  stacked oracles, a ragged Huber suite and the quadratic's components
  without its oracle (the per-agent loop), and a one-dimensional quadratic
  on five agents: the `r` and `s_dev` series of `algorithms.run_igd` at
  radius 0 and 0.3, `average_gradient` at 60 seeded points, and
  `solve_reference`'s solution, gradient norm and iteration count. Every
  suite has p > 1 or fewer than eight agents: a sum down a single column
  of eight or more rows is pairwise in numpy, not in agent order;
- valid configs through the CLI, one path through the config reader each:
  every graph type (a `file` graph, a `subsample` with a `base`,
  `block-connected`, `directed_view` and `declared_B` among them), every
  objective family (a saved `bundle` too), the three mixing rules and a
  custom matrix, `alpha` as a number, as the sqrt block and as the sqrt
  block without `a`, `x0: random` and `theory_audit` blocks: the stdout of
  `validate`, the exit codes of `validate` and `run`, and the trace CSV
  plus sidecar that `run` writes.
- `load_suite` on a saved quadratic and a saved Huber bundle: the loaded
  data and `block_gradient` at seeded points; and an audited DIGing run
  read back with `RunTrace.read`: its series, metadata and start norms, and
  every field of `audit_small_gain`'s ledger on the constants the sidecar
  holds.
- audited runs over 300 iterations whose draw blocks do not line up with
  `run`'s chunks of 64: block-connected windows of 3 (blocks of 63) and 70,
  and a period-5 sequence, with the undirected methods and, on the
  directed views, the push methods; and one lockstep call in which a
  Push-DIGing member ends mid-chunk on the weight floor while a DIGing and
  a Push-DIGing member on a drawn sequence run on: trace CSV and sidecar.
- snapshots read in shuffled order over the two blocks on each side of the
  end of the first batch of 16 blocks that a block-connected sequence draws
  in one pass: block-connected windows of 1, 2, 3, 5 and 65 with extra
  edges, and a subsample sequence (`snapshot_to_text` of each, and the
  entries and certificate fields of their Metropolis and lazy Metropolis
  builds); and audited runs of DIGing, DIGing-ATC and DGD in one lockstep
  call whose horizon ends inside the second batch: trace CSV and sidecar.
- lockstep runs whose horizons end mid-chunk, past a period's end: a
  period-3 sequence that repeats a snapshot, with the undirected methods,
  and its directed view, with the push methods; and custom matrices chosen
  by snapshot on a static and on a subsample sequence, the latter past a
  draw-block boundary: trace CSV and sidecar.

The first line names the `digrate` package that was imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np

import digrate
from digrate import algorithms, cli, graphs, harness, mixing, objectives, rates
from digrate.traces import AUDIT_SERIES, AUDIT_SUFFIX, RunTrace

REPRODUCE_SEEDS = (0, 11)
AUDIT_SEEDS = (0, 1, 11)
RANDOM_GRAPHS = 40
BLOCK_SPAN = 130   # iterations 0..129 cross the draw blocks at 64 and 128
WINDOWS = ((5, 3), (64, 20), (65, 30))   # (b_tilde, extra_edges), n = 12
WINDOW_BLOCKS = 3   # draw blocks read per window length
CYCLE_PERIODS = 6   # periods read per static or periodic sequence
SWEEP_GRID = (0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.2)
BOUNDS_GROUPS = ("delta moderate", "delta near 1", "B_minus")
BOUNDS_FILES = 100  # params files per group
IGD_RADII = (0.0, 0.3)
IGD_ITERATIONS = 120
CHUNK_ITERATIONS = 300   # crosses run's chunks of 64 and blocks of 63 and 70
BATCH_BLOCKS = 16   # block-connected draw blocks drawn in one pass
BATCH_WINDOWS = (1, 2, 3, 5, 65)   # window lengths read across a batch's end
LOCKSTEP_HORIZONS = (62, 130)   # mid-chunk, past period ends and a block's end
UNDIRECTED_ALGOS = ("diging", "diging-atc", "dgd")
PUSH_ALGOS = ("push-diging", "subgradient-push")


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def written(path: Path) -> bytes:
    """A trace CSV's bytes followed by its sidecar's, when it has one."""
    sidecar = path.with_name(path.name + AUDIT_SUFFIX)
    return path.read_bytes() + (sidecar.read_bytes() if sidecar.exists() else b"")


def reread_digest(path: Path) -> str:
    """Digest of a written trace read back and written again."""
    again = path.with_name("again-" + path.name)
    RunTrace.read(path).write(again)
    return digest(written(again))


def reproduce_digests(work: Path):
    for seed in REPRODUCE_SEEDS:
        out = work / f"reproduce-{seed}"
        for case in harness.CASES:
            harness.reproduce_section6(case, seed=seed, out_dir=out)
        # each trace CSV and its `.csv.audit.json` sidecar
        paths = sorted(out.glob("*.csv*"))
        for path in paths:
            yield f"reproduce seed={seed} {path.name}", digest(path.read_bytes())
        for path in paths:
            if path.suffix == ".csv":
                yield f"reproduce seed={seed} {path.name} reread", reread_digest(path)


def audit_cli_digests(work: Path):
    for seed in AUDIT_SEEDS:
        config = {
            "algorithm": "diging",
            "graph": {"type": "block-connected", "n": 12, "window": 2,
                      "seed": seed},
            "mixing": "metropolis",
            "objective": {"family": "quadratic", "n": 12, "p": 4, "seed": seed},
            "alpha": 0.3,
            "iterations": 4000,
            "seed": seed,
            "output": "trace.csv",
            "theory_audit": {"B": 3, "delta": "empirical", "lambda": "certified"},
        }
        suite = harness.build_suite(config["objective"])
        params = {"n": 12, "B": 3, "delta": 0.9, "mu_bar": suite.mu_bar,
                  "L": suite.L}
        base = work / f"audit-{seed}"
        base.mkdir()
        config_path, params_path = base / "config.json", base / "params.json"
        config_path.write_text(json.dumps(config))
        params_path.write_text(json.dumps(params))
        trace_path = base / "run" / "trace.csv"
        commands = {
            "validate": ["validate", "--config", str(config_path)],
            "run": ["run", "--config", str(config_path), "--out",
                    str(base / "run")],
            "audit": ["audit", "--trace", str(trace_path)],
            "bounds": ["bounds", "--params", str(params_path)],
        }
        for name, argv in commands.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            # `run` prints the trace path, which differs between checkouts
            if name != "run":
                yield f"audit-cli seed={seed} {name} stdout", digest(out.getvalue())
            yield f"audit-cli seed={seed} {name} exit", str(code)
        yield f"audit-cli seed={seed} trace.csv", digest(trace_path.read_bytes())
        sidecar = trace_path.with_name(trace_path.name + ".audit.json")
        yield f"audit-cli seed={seed} trace.csv.audit.json", digest(sidecar.read_bytes())
        yield f"audit-cli seed={seed} trace.csv reread", reread_digest(trace_path)


def bounds_params(rng, group: str) -> dict:
    """One seeded params file. Its step, when it has one, is placed against
    the window end 1.5 (1 - delta)^2 / (mu_bar J1) and the branch point,
    computed here: far below, on either branch or beyond the window. A step
    within 1e-9 of the window end is left out, as the endpoint rule decides
    there."""
    n = int(rng.integers(1, 7 if group == "B_minus" else 40))
    B = int(rng.integers(1, 6))
    mu, kappa = float(10 ** rng.uniform(-2, 1)), float(10 ** rng.uniform(0, 3))
    if group == "delta near 1":
        delta = 1 - float(10 ** -rng.uniform(1, 14))
    else:
        delta = float(rng.uniform(0, 0.99)) if rng.uniform() < 0.8 else 0.0
    params = {"n": n, "B": B, "delta": delta, "mu_bar": mu, "mu_hat": mu}
    if rng.uniform() < 0.5:
        params["L"] = mu * kappa
    else:
        params["kappa_bar"] = kappa
    if group == "B_minus":
        params["B_minus"] = int(rng.integers(1, 4))
    j1 = 3 * kappa * B * B * (1 + 4 * np.sqrt(n * kappa))
    alpha_max = 1.5 * (1 - delta) ** 2 / (mu * j1)
    ratio = ((1 + delta) / (np.sqrt(1 + (1 - delta * delta) / j1) + delta)) ** 2
    fraction = float(rng.choice([
        0.0, 1e-6 * rng.uniform(), ratio * rng.uniform(0.1, 1),
        ratio + rng.uniform(0.05, 0.95) * (1 - ratio), rng.uniform(1.01, 2)]))
    if fraction > 0 and abs(1 - fraction) > 1e-9:
        params["alpha"] = fraction * alpha_max
    return params


def bounds_digests(work: Path):
    rng = np.random.default_rng(1607)
    for group in BOUNDS_GROUPS:
        stdout, codes = hashlib.sha256(), {}
        for t in range(BOUNDS_FILES):
            path = work / f"bounds-{group.replace(' ', '-')}-{t}.json"
            path.write_text(json.dumps(bounds_params(rng, group)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["bounds", "--params", str(path)])
            stdout.update(f"{out.getvalue()}\n--\n".encode())
            codes[code] = codes.get(code, 0) + 1
        yield f"bounds {BOUNDS_FILES} params {group} stdout", stdout.hexdigest()
        tally = ",".join(f"{code}:{count}" for code, count in sorted(codes.items()))
        yield f"bounds {BOUNDS_FILES} params {group} exit codes", tally


def random_graphs():
    rng = np.random.default_rng(2016)
    for t in range(RANDOM_GRAPHS):
        n = int(rng.integers(1, 16))
        density = 0.0 if t == 0 else float(rng.uniform(0, 1))
        edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.uniform() < density]
        arcs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                if j != i and rng.uniform() < density]
        yield graphs.undirected(n, edges), graphs.directed(n, arcs)


def builder_digests():
    hashes = {name: hashlib.sha256() for name in
              ("metropolis", "lazy_metropolis", "out_degree_column",
               "snapshot_to_text")}
    for und, dig in random_graphs():
        hashes["metropolis"].update(mixing.metropolis(und).entries.tobytes())
        hashes["lazy_metropolis"].update(mixing.lazy_metropolis(und).entries.tobytes())
        hashes["out_degree_column"].update(mixing.out_degree_column(dig).entries.tobytes())
        hashes["snapshot_to_text"].update(
            (graphs.snapshot_to_text(und) + graphs.snapshot_to_text(dig)).encode())
    for name, h in hashes.items():
        yield f"builders {RANDOM_GRAPHS} graphs {name}", h.hexdigest()


def generator_digests():
    snaps = {name: [] for name in ("random_spanning_tree", "random_connected_graph",
                                   "random_strongly_connected_digraph",
                                   "subsample_sequence", "block_connected_sequence")}
    for seed in range(20):
        n = 2 + seed % 11
        snaps["random_spanning_tree"].append(graphs.random_spanning_tree(n, seed))
        connected = graphs.random_connected_graph(n, seed % 7, seed)
        snaps["random_connected_graph"].append(connected)
        m = n + seed % (n * (n - 2) + 1)  # n <= m <= n(n-1)
        digraph = graphs.random_strongly_connected_digraph(n, m, seed)
        snaps["random_strongly_connected_digraph"].append(digraph)
        for base in (connected, digraph):
            seq = graphs.subsample_sequence(base, 0.5, seed)
            snaps["subsample_sequence"] += [seq.snapshot(k) for k in range(5)]
        seq = graphs.block_connected_sequence(n, 1 + seed % 3, seed, seed % 4)
        snaps["block_connected_sequence"] += [seq.snapshot(k) for k in range(6)]
    for name, listed in snaps.items():
        yield (f"generators {name}",
               digest("".join(graphs.snapshot_to_text(s) for s in listed)))


def block_digests():
    for seed in range(4):
        und = graphs.subsample_sequence(
            graphs.random_connected_graph(12, 11, seed), 0.4, seed)
        dig = graphs.subsample_sequence(
            graphs.random_strongly_connected_digraph(12, 24, seed), 0.8, seed)
        windows = graphs.block_connected_sequence(12, 1 + seed % 3, seed, seed % 4)
        cases = (("undirected", und, (mixing.metropolis, mixing.lazy_metropolis)),
                 ("directed view", harness.directed_view(und),
                  (mixing.out_degree_column,)),
                 ("directed", dig, (mixing.out_degree_column,)),
                 ("block-connected", windows,
                  (mixing.metropolis, mixing.lazy_metropolis)))
        for label, seq, rules in cases:
            order = np.random.default_rng((seed, 5)).permutation(BLOCK_SPAN)
            yield from slice_digests(f"blocks seed={seed} {label}", seq, rules,
                                     order.tolist())


def window_digests():
    for seed, (b_tilde, extra_edges) in enumerate(WINDOWS):
        seq = graphs.block_connected_sequence(12, b_tilde, seed, extra_edges)
        # whole windows per draw block, or one window longer than a block
        span = WINDOW_BLOCKS * b_tilde * max(1, graphs._BLOCK // b_tilde)
        order = np.random.default_rng((seed, 6)).permutation(span)
        yield from slice_digests(
            f"windows seed={seed} b_tilde={b_tilde} extra={extra_edges}", seq,
            (mixing.metropolis, mixing.lazy_metropolis), order.tolist())


def cycle_digests():
    und_rules = (mixing.metropolis, mixing.lazy_metropolis)
    dig_rules = (mixing.out_degree_column,)
    for seed in range(2):
        und = [graphs.random_connected_graph(12, j, 10 * seed + j) for j in range(4)]
        dig = [graphs.random_strongly_connected_digraph(12, 12 + 3 * j, 10 * seed + j)
               for j in range(5)]
        static = graphs.static_sequence(und[0])
        periodic = graphs.periodic_sequence([und[1], und[2], und[1], und[3]])
        cases = (("static", static, 1, und_rules),
                 ("static directed view", harness.directed_view(static), 1, dig_rules),
                 ("static directed", graphs.static_sequence(dig[0]), 1, dig_rules),
                 ("periodic", periodic, 4, und_rules),
                 ("periodic directed view", harness.directed_view(periodic), 4,
                  dig_rules),
                 ("periodic directed", graphs.periodic_sequence(dig), 5, dig_rules))
        for label, seq, period, rules in cases:
            order = np.random.default_rng((seed, 7)).permutation(CYCLE_PERIODS * period)
            yield from slice_digests(f"cycles seed={seed} {label}", seq, rules,
                                     order.tolist())


def slice_digests(label: str, seq, rules, order: list):
    """Snapshots of the iterations in `order`, read in that order:
    `snapshot_to_text` of each, and per rule the entries and certificate
    fields of their matrices, built in the same order; digested by
    iteration."""
    snaps = {k: seq.snapshot(k) for k in order}
    yield (f"{label} snapshot_to_text",
           digest("".join(graphs.snapshot_to_text(snaps[k])
                          for k in sorted(order))))
    for rule in rules:
        mats = {k: rule(snaps[k]) for k in order}
        h = hashlib.sha256()
        for k in sorted(order):
            h.update(mats[k].entries.tobytes())
            h.update(repr(dataclasses.astuple(mats[k].certificate)).encode())
        yield f"{label} {rule.__name__}", h.hexdigest()


def batch_digests(work: Path):
    """Snapshots read in shuffled order over the last two blocks of the
    first draw batch and the first two of the next, and an audited run
    whose horizon ends inside a batch."""
    rules = (mixing.metropolis, mixing.lazy_metropolis)
    for seed, b_tilde in enumerate(BATCH_WINDOWS):
        seq = graphs.block_connected_sequence(12, b_tilde, 30 + seed, 3)
        yield from slice_digests(f"batch seed={30 + seed} b_tilde={b_tilde} extra=3",
                                 seq, rules, batch_order(seq, seed))
    base = graphs.random_connected_graph(12, 11, 40)
    seq = graphs.subsample_sequence(base, 0.4, 41)
    yield from slice_digests("batch seed=41 subsample", seq, rules, batch_order(seq, 41))
    suite = harness.build_suite({"family": "quadratic", "n": 12, "p": 2, "seed": 42})
    seq = graphs.block_connected_sequence(12, 2, 43, 3)
    iterations = BATCH_BLOCKS * seq.size + 100
    traces = algorithms.run(UNDIRECTED_ALGOS, seq, mixing.metropolis, suite,
                            (0.05, 0.08, 0.05), iterations, x0="random", seed=44,
                            record_audit=True)
    for algo, trace in zip(UNDIRECTED_ALGOS, traces):
        path = work / f"batch-{algo}.csv"
        trace.write(path)
        yield f"batch seed=43 {algo} {len(trace)} rows", digest(written(path))


def batch_order(seq, seed: int) -> list:
    """Iterations of the two blocks on each side of the first batch's end,
    in a seeded shuffle."""
    end, size = BATCH_BLOCKS * seq.size, seq.size
    order = np.random.default_rng((seed, 8)).permutation(end + np.arange(-2 * size, 2 * size))
    return order.tolist()


def sweep_static_digests(seed: int = 0):
    n, p = 48, 8
    seq = graphs.static_sequence(graphs.random_connected_graph(n, 48, seed))
    suite = harness.build_suite({"family": "quadratic", "n": n, "p": p,
                                 "seed": seed})
    x0 = np.random.default_rng((seed, 1)).normal(size=(n, p))
    with np.errstate(over="ignore", invalid="ignore"):
        for algo in ("diging", "diging-atc"):
            for f in SWEEP_GRID:
                trace = algorithms.run(algo, seq, mixing.metropolis, suite,
                                       f / suite.L, 500, x0=x0,
                                       x_star=suite.x_star)
                yield (f"sweep-static seed={seed} {algo} alpha={f:g}/L",
                       digest(trace.to_csv()))


def edge_run_digests(work: Path):
    n, p = 6, 2
    seq = graphs.static_sequence(graphs.random_connected_graph(n, 3, 0))
    suite = harness.build_suite({"family": "quadratic", "n": n, "p": p,
                                 "seed": 0})

    def guarded(c):
        # the gradient turns NaN once the iterate leaves [-1e3, 1e3]
        return dataclasses.replace(
            c, grad=lambda x, g=c.grad: g(x) if np.abs(x).max() < 1e3
            else np.full(p, np.nan))

    nan_suite = objectives.ObjectiveSuite(
        tuple(map(guarded, suite.components)), x_star=suite.x_star)
    algos = ("diging", "diging-atc", "dgd")
    runs = {"zero-iteration": (suite, 0.1, 0), "nan-residual": (nan_suite, 5.0, 400)}
    for label, (run_suite, alpha, iterations) in runs.items():
        traces = algorithms.run(algos, seq, mixing.metropolis, run_suite, alpha,
                                iterations, x0="random", record_audit=True)
        for algo, trace in zip(algos, traces):
            path = work / f"{label}-{algo}.csv"
            trace.write(path)
            last = path.read_text().splitlines()[-1].split(",")
            if label == "nan-residual" and last[1] != "nan":
                raise SystemExit(f"{path.name}: last row {last} has no nan residual")
            yield f"{label} {algo} {len(trace)} rows", digest(written(path))


def chunk_digests(work: Path):
    """Audited runs on draw blocks that do not align with `run`'s chunks
    (windows of 3 and 70), on a period-5 sequence, and a lockstep call in
    which a push member ends mid-chunk on the weight floor."""
    n, p = 6, 2
    suite = harness.build_suite({"family": "quadratic", "n": n, "p": p, "seed": 4})
    base = graphs.random_connected_graph(n, 4, 5)
    a, b = graphs.undirected(n, [(1, 2), (3, 4)]), graphs.undirected(n, [(2, 3), (5, 6)])
    seqs = {"window 3": graphs.block_connected_sequence(n, 3, 6, 2),
            "window 70": graphs.block_connected_sequence(n, 70, 7, 2),
            "period 5": graphs.periodic_sequence([a, b, a, a, base], declared_B=5)}
    # vertex 1 only sends, so its push-sum weight halves every iteration
    leaky = graphs.static_sequence(graphs.directed(n, [(1, 2), (2, 3), (3, 4), (4, 5),
                                                       (5, 6), (6, 2)]))
    calls = [(label, UNDIRECTED_ALGOS, seq, mixing.metropolis, (0.05, 0.08, 0.05), None)
             for label, seq in seqs.items()]
    calls += [(label + " directed view", PUSH_ALGOS, graphs.directed_view(seq),
               mixing.out_degree_column, (0.03, 0.5), None) for label, seq in seqs.items()]
    calls.append(("floor breach", ("push-diging", "diging", "push-diging"),
                  (leaky, seqs["window 3"], graphs.directed_view(seqs["window 3"])),
                  (mixing.out_degree_column, mixing.metropolis, mixing.out_degree_column),
                  (0.02, 0.05, 0.02), 1e-9))
    for label, algos, seq, rule, alphas, floor in calls:
        traces = algorithms.run(algos, seq, rule, suite, alphas, CHUNK_ITERATIONS,
                                x0="random", seed=8, record_audit=True, v_floor=floor)
        for i, (algo, trace) in enumerate(zip(algos, traces)):
            ended = trace.metadata["terminated"]
            if floor is not None and (i == 0) != (ended is not None):
                raise SystemExit(f"{label} {algo}: ended {ended!r}")
            path = work / f"chunks-{label.replace(' ', '-')}-{i}-{algo}.csv"
            trace.write(path)
            yield f"chunks {label} {algo} {len(trace)} rows", digest(written(path))


def lockstep_digests(work: Path):
    """Lockstep runs on a period-3 sequence that repeats a snapshot and on
    its directed view, and with custom matrices chosen by snapshot on a
    static and on a subsample sequence."""
    n, p = 6, 2
    suite = harness.build_suite({"family": "quadratic", "n": n, "p": p, "seed": 9})
    a = graphs.undirected(n, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    base = graphs.random_connected_graph(n, 4, 10)
    periodic = graphs.periodic_sequence([a, a, base], declared_B=3)
    customs = [mixing.custom_mixing(m, mixing.DOUBLY) for m in (
        np.full((n, n), 1 / n), mixing.metropolis(a).entries,
        mixing.lazy_metropolis(base).entries)]

    def by_snapshot(snap):
        return customs[int(snap.adj.sum()) % len(customs)]

    static = graphs.static_sequence(base)
    drawn = graphs.subsample_sequence(base, 0.6, 11)
    calls = (("period 3", UNDIRECTED_ALGOS, periodic, mixing.metropolis,
              (0.05, 0.08, 0.05)),
             ("period 3 directed view", PUSH_ALGOS, graphs.directed_view(periodic),
              mixing.out_degree_column, (0.03, 0.5)),
             ("custom static subsample", UNDIRECTED_ALGOS + ("diging",),
              (static, static, drawn, drawn), by_snapshot, (0.05, 0.08, 0.05, 0.05)))
    for iterations in LOCKSTEP_HORIZONS:
        for label, algos, seq, rule, alphas in calls:
            traces = algorithms.run(algos, seq, rule, suite, alphas, iterations,
                                    x0="random", seed=12, record_audit=True)
            for i, (algo, trace) in enumerate(zip(algos, traces)):
                path = work / f"lockstep-{label.replace(' ', '-')}-{i}-{algo}.csv"
                trace.write(path)
                yield (f"lockstep {label} {algo} member {i} {len(trace)} rows",
                       digest(written(path)))


def gradient_suites():
    rng = np.random.default_rng(1903)
    n, p = 10, 4
    quadratic = objectives.quadratic_suite(rng.normal(size=(n, p)),
                                           rng.uniform(0.5, 2.0, n))
    sizes = [int(r) for r in rng.integers(1, 5, size=n)]
    yield "quadratic", quadratic
    yield "huber", objectives.huber_regression_suite(
        [rng.normal(size=(3, p)) for _ in range(n)],
        [3.0 * rng.normal(size=3) for _ in range(n)], xi=1.0)
    yield "ragged huber", objectives.huber_regression_suite(
        [rng.normal(size=(r, p)) for r in sizes],
        [3.0 * rng.normal(size=r) for r in sizes], xi=0.5)
    yield "quadratic loop", objectives.ObjectiveSuite(quadratic.components,
                                                      x_star=quadratic.x_star)
    yield "quadratic p=1", objectives.quadratic_suite(rng.normal(size=(5, 1)),
                                                      rng.uniform(0.5, 2.0, 5))


def gradient_digests():
    for label, suite in gradient_suites():
        theta = 1.0 / (2 * suite.L_bar)
        for rho in IGD_RADII:
            run = algorithms.run_igd(suite, np.ones(suite.p), theta,
                                     algorithms.radius_perturbation(rho),
                                     IGD_ITERATIONS)
            yield (f"igd {label} rho={rho:g}",
                   digest(run.r.tobytes() + run.s_dev.tobytes()))
        rng = np.random.default_rng(1904)
        points = [scale * rng.normal(size=suite.p) for scale in (1e-2, 1.0, 1e2)
                  for _ in range(20)]
        yield (f"average_gradient {label}",
               digest(b"".join(suite.average_gradient(x).tobytes() for x in points)))
        ref = objectives.solve_reference(suite)
        yield (f"solve_reference {label}",
               digest(ref.x_star.tobytes() + f" {ref.grad_norm!r} {ref.iterations}".encode()))


def reader_configs(work: Path) -> dict:
    """Valid configs, by label, that each take a path through the reader;
    the files they name are written into `work`."""
    ring = graphs.random_connected_graph(6, 2, 21)
    (work / "ring.txt").write_text(graphs.snapshot_to_text(ring))
    path4 = mixing.metropolis(graphs.undirected(4, [(1, 2), (2, 3), (3, 4)]))
    lines = [",".join(repr(float(w)) for w in row) for row in path4.entries]
    (work / "path4.csv").write_text("\n".join(lines) + "\n")
    rng = np.random.default_rng(2020)
    objectives.save_suite(objectives.huber_regression_suite(
        [rng.normal(size=(2, 3)) for _ in range(6)],
        [rng.normal(size=2) for _ in range(6)], xi=1.0), work / "bundle")
    quadratic = {"family": "quadratic", "n": 6, "p": 2, "seed": 7}
    digraph = {"type": "static-random-digraph", "n": 6, "m": 10, "seed": 3}
    return {
        "static-edges undirected": dict(
            algorithm="diging", mixing="metropolis", objective=quadratic, alpha=0.2,
            graph={"type": "static-edges", "n": 6,
                   "links": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1]]}),
        "static-edges directed": dict(
            algorithm="push-diging", mixing="out-degree", objective=quadratic,
            alpha=0.05, graph={"type": "static-edges", "n": 6, "kind": "directed",
                               "links": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6],
                                         [6, 1], [1, 4]]}),
        "static-path x0 random": dict(
            algorithm="diging-atc", mixing="lazy-metropolis", x0="random",
            objective={"family": "zero", "n": 6, "p": 2}, alpha=0.3,
            graph={"type": "static-path", "n": 6}),
        "static-clique explicit quadratic": dict(
            algorithm="dgd", mixing="metropolis", alpha=0.05,
            objective={"family": "quadratic", "targets": [[1.0], [-2.0], [0.5], [3.0]],
                       "curvatures": [1.0, 2.0, 0.5, 1.5]},
            graph={"type": "static-clique", "n": 4}),
        "static-random-connected huber-benchmark": dict(
            algorithm="diging", mixing="metropolis", alpha=0.2,
            objective={"family": "huber-benchmark", "seed": 4},
            graph={"type": "static-random-connected", "n": 12, "extra_edges": 4,
                   "seed": 2}),
        "static-random-digraph sqrt": dict(
            algorithm="subgradient-push", mixing="out-degree", objective=quadratic,
            alpha={"schedule": "sqrt", "a": 0.5}, graph=digraph),
        "static-random-digraph sqrt without a": dict(
            algorithm="subgradient-push", mixing="out-degree", objective=quadratic,
            alpha={"schedule": "sqrt"}, graph=digraph),
        "file bundle": dict(
            algorithm="diging", mixing="metropolis", alpha=0.1,
            objective={"family": "bundle", "path": str(work / "bundle")},
            graph={"type": "file", "path": str(work / "ring.txt")}),
        "subsample base file": dict(
            algorithm="diging", mixing="metropolis", objective=quadratic, alpha=0.1,
            graph={"type": "subsample", "fraction": 0.6, "seed": 4, "declared_B": 4,
                   "base": {"type": "file", "path": str(work / "ring.txt")}}),
        "subsample directed_view declared_B": dict(
            algorithm="push-diging", mixing="out-degree", objective=quadratic,
            alpha=0.05, graph={"type": "subsample", "fraction": 0.8, "seed": 5,
                               "base": {"type": "static-clique", "n": 6},
                               "directed_view": True, "declared_B": 2}),
        "block-connected theory_audit": dict(
            algorithm="diging", mixing="metropolis", objective=quadratic, alpha=0.2,
            graph={"type": "block-connected", "n": 6, "window": 2, "seed": 6},
            theory_audit={"B": 3, "delta": "empirical", "lambda": "certified"}),
        "custom matrix theory_audit given": dict(
            algorithm="diging", alpha=0.1,
            mixing={"rule": "custom", "path": str(work / "path4.csv"), "mode": "doubly"},
            objective={"family": "quadratic", "n": 4, "p": 3, "seed": 8},
            graph={"type": "static-path", "n": 4},
            theory_audit={"B": 1, "delta": 0.9, "lambda": 0.999, "eta": 1.0,
                          "beta": 4.0, "delta_horizon": 6}),
    }


def reader_digests(work: Path):
    base = work / "reader"
    base.mkdir()
    for label, fields in reader_configs(base).items():
        config = {"iterations": 200, "seed": 3, "output": "trace.csv", **fields}
        config_path = base / "config.json"
        config_path.write_text(json.dumps(config))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["validate", "--config", str(config_path)])
        yield f"configs {label} validate stdout", digest(out.getvalue())
        yield f"configs {label} validate exit", str(code)
        run_dir = base / label.replace(" ", "-")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", "--config", str(config_path), "--out", str(run_dir)])
        yield f"configs {label} run exit", str(code)
        yield f"configs {label} trace.csv", digest(written(run_dir / "trace.csv"))


def loader_digests(work: Path):
    rng = np.random.default_rng(2022)
    points = rng.normal(size=(3, 5, 3))
    for label, suite in (
            ("quadratic", objectives.quadratic_suite(rng.normal(size=(5, 3)),
                                                     rng.uniform(0.5, 2.0, 5))),
            ("huber", objectives.huber_regression_suite(
                [rng.normal(size=(2, 3)) for _ in range(5)],
                [rng.normal(size=2) for _ in range(5)], xi=0.7))):
        objectives.save_suite(suite, work / f"load-{label}")
        back = objectives.load_suite(work / f"load-{label}")
        data = json.dumps(back.data, default=lambda a: np.asarray(a).tolist())
        grads = b"".join(objectives.block_gradient(back, x).tobytes() for x in points)
        yield f"load_suite {label}", digest(data.encode() + grads)
    config = {"algorithm": "diging", "mixing": "metropolis", "alpha": 0.01,
              "graph": {"type": "block-connected", "n": 5, "window": 2, "seed": 6},
              "objective": {"family": "quadratic", "n": 5, "p": 3, "seed": 7},
              "iterations": 300, "seed": 3, "output": "trace.csv",
              "theory_audit": {"B": 3, "delta": "empirical", "lambda": "certified"}}
    (work / "loader.json").write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", "--config", str(work / "loader.json"), "--out",
                  str(work / "loader")])
    trace = RunTrace.read(work / "loader" / "trace.csv")
    series = b"".join(getattr(trace, name).tobytes()
                      for name in AUDIT_SERIES)
    yield "RunTrace.read audited run", digest(
        series + json.dumps(trace.metadata, sort_keys=True).encode()
        + f" {trace.xbar0_error!r} {trace.r0!r}".encode())
    meta = dict(trace.metadata["theory_audit"])
    lam = meta.pop("lambda")
    meta.pop("lambda_source")
    ledger = rates.audit_small_gain(trace, rates.TheoryParams(**meta), lam)
    yield "audit ledger audited run", digest(repr(dataclasses.asdict(ledger)))


def main() -> None:
    print(f"# digrate from {Path(digrate.__file__).parent}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in (reproduce_digests(work), audit_cli_digests(work),
                     builder_digests(), generator_digests(), block_digests(),
                     sweep_static_digests(), edge_run_digests(work),
                     window_digests(), cycle_digests(), bounds_digests(work),
                     gradient_digests(), reader_digests(work),
                     loader_digests(work), chunk_digests(work),
                     batch_digests(work), lockstep_digests(work)):
            for label, value in part:
                print(f"{value}  {label}", flush=True)


if __name__ == "__main__":
    main()
