"""Experiment assembly: configs, rate fitting, and the benchmark problem
(robust Huber estimation on a 12-agent network) with its three graph cases.

Shipped step sizes were picked by a coarse grid search per case (see
README); the acceptance suite asserts qualitative behavior, not any exact
curve.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import algorithms, graphs, mixing, objectives
from .config import ConfigBlock, ConfigError, decode_json, read_input
from .graphs import directed_view
from .rates import (NoGuaranteeError, TheoryParams, diging_rate,
                    diging_step_size_window)
from .traces import RunTrace


XI = 2.0  # Huber threshold of the benchmark problem


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log10(residual) vs iteration."""

    slope: float          # decades per iteration (negative for decay)
    r_squared: float
    curvature: float      # quadratic coefficient; ~0 for clean geometric decay
    rows_used: int
    truncated: bool       # residual hit exact zero; fit used the positive prefix


def rate_fit(trace, burn_in: float = 0.2, min_rows: int = 50) -> RateFit:
    """Fit a geometric rate to the residual tail after discarding the burn-in
    fraction. Positive curvature of the semilog fit flags sublinear decay."""
    if isinstance(trace, RunTrace):
        k, residual = trace.k, trace.residual
    else:
        k, residual = trace
    k = np.asarray(k, dtype=float)
    residual = np.asarray(residual, dtype=float)
    start = int(math.floor(len(k) * burn_in))
    k, residual = k[start:], residual[start:]
    truncated = False
    nonpos = np.nonzero(residual <= 0)[0]
    if len(nonpos):
        k, residual = k[:nonpos[0]], residual[:nonpos[0]]
        truncated = True
    if len(residual) < min_rows:
        raise ValueError(f"need at least {min_rows} positive rows after burn-in, "
                         f"have {len(residual)}")
    y = np.log10(residual)
    slope, intercept = np.polyfit(k, y, 1)
    fitted = slope * k + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    curvature = float(np.polyfit(k, y, 2)[0]) if len(k) >= 3 else 0.0
    return RateFit(float(slope), r2, curvature, len(residual), truncated)


def geometric_segment(trace: RunTrace, upper: float = 1e-3,
                      lower: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """The descent stretch between the two residual levels: from the first
    crossing under `upper` to the first crossing under `lower` (exclusive),
    so neither the slow early phase nor the numerical floor pollutes a rate
    fit."""
    below_upper = np.nonzero(trace.residual <= upper)[0]
    if len(below_upper) == 0:
        raise ValueError(f"residual never drops below {upper:g}")
    start = int(below_upper[0])
    under = np.nonzero(trace.residual[start:] < lower)[0]
    stop = start + int(under[0]) if len(under) else len(trace)
    if stop - start < 2:
        raise ValueError("descent segment between the levels is empty")
    sl = slice(start, stop)
    return trace.k[sl], trace.residual[sl]


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    algorithm: str
    graph: dict
    mixing: "str | dict"
    objective: dict
    alpha: "float | dict"     # a step size, or {"schedule": "sqrt", "a": scale}
    iterations: int
    seed: int = 0
    x0: str = "zeros"
    output: str | None = None
    theory_audit: dict | None = None

    @property
    def step_size(self) -> float:
        """The fixed step size, or the scale a of alpha_k = a / sqrt(k+1)."""
        return self.alpha["a"] if isinstance(self.alpha, dict) else self.alpha

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Read every field through one ConfigBlock; a bad one raises
        ConfigError naming the field."""
        get = ConfigBlock(raw)
        if isinstance(get.raw.get("alpha"), dict):
            schedule = get.block("alpha")
            if schedule("schedule", "a string") != "sqrt":
                raise ConfigError("alpha: only the 'sqrt' diminishing schedule "
                                  'is defined, as {"schedule": "sqrt", "a": scale}')
            alpha = {"schedule": "sqrt", "a": float(schedule("a", "a positive number", 1.0))}
            schedule.done()
        else:
            alpha = float(get("alpha", "a positive number"))
        config = cls(algorithm=get("algorithm", "a string"),
                     graph=get("graph", "an object"),
                     mixing=get("mixing", "a string or an object"),
                     objective=get("objective", "an object"), alpha=alpha,
                     iterations=get("iterations", "a nonnegative integer"),
                     seed=get("seed", "a nonnegative integer", 0),
                     x0=get("x0", "'zeros' or 'random'", "zeros"),
                     output=get("output", "a string", None),
                     theory_audit=get("theory_audit", "an object", None))
        get.done()
        return config

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(decode_json(text, "config"))

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_json(read_input(path, "config"))


def _static_snapshot(get: ConfigBlock) -> graphs.GraphSnapshot:
    gtype = get("type", "a string")
    if gtype == "static-edges":
        n = get("n", "a positive integer")
        links = get("links", "a list of integer pairs")
        if get("kind", "'undirected' or 'directed'", graphs.UNDIRECTED) == graphs.DIRECTED:
            return graphs.directed(n, links)
        return graphs.undirected(n, links)
    if gtype == "static-path":
        n = get("n", "a positive integer")
        return graphs.undirected(n, [(i, i + 1) for i in range(1, n)])
    if gtype == "static-clique":
        n = get("n", "a positive integer")
        return graphs.undirected(n, [(a, b) for a in range(1, n + 1)
                                     for b in range(a + 1, n + 1)])
    if gtype == "static-random-connected":
        return graphs.random_connected_graph(
            get("n", "a positive integer"), get("extra_edges", "a nonnegative integer", 0),
            get("seed", "a nonnegative integer", 0))
    if gtype == "static-random-digraph":
        return graphs.random_strongly_connected_digraph(
            get("n", "a positive integer"), get("m"), get("seed", "a nonnegative integer", 0))
    if gtype == "file":
        return graphs.snapshot_from_text(read_input(get("path", "a string"), get.name))
    raise ConfigError(f"unknown static graph type {gtype!r}")


def build_sequence(cfg) -> graphs.GraphSequence:
    """Instantiate the graph sequence described by a config block."""
    get = ConfigBlock(cfg, "graph")
    gtype = get("type", "a string")
    if gtype == "subsample":
        base = get.block("base")
        snap = _static_snapshot(base)
        base.done()
        seq = graphs.subsample_sequence(snap, get("fraction", "a number in (0, 1]"),
                                        get("seed", "a nonnegative integer", 0))
    elif gtype == "block-connected":
        seq = graphs.block_connected_sequence(
            get("n", "a positive integer"), get("window", "a positive integer"),
            get("seed", "a nonnegative integer", 0),
            get("extra_edges", "a nonnegative integer", 0))
    else:
        seq = graphs.static_sequence(_static_snapshot(get),
                                     description=f"static {gtype}")
    declared_B = get("declared_B", "a positive integer", None)
    view = get("directed_view", "a boolean", False)
    get.done()
    if declared_B is not None:
        seq = replace(seq, declared_B=declared_B)
    return directed_view(seq) if view else seq


def build_suite(cfg) -> objectives.ObjectiveSuite:
    get = ConfigBlock(cfg, "objective")
    family = get("family", "a string")
    if family == "quadratic" and "targets" in cfg:
        suite = objectives.quadratic_suite(get("targets", "a matrix of numbers"),
                                           get("curvatures", "a list of numbers"))
    elif family == "quadratic":
        rng = np.random.default_rng(get("seed", "a nonnegative integer", 0))
        n, p = get("n", "a positive integer"), get("p", "a positive integer", 1)
        lo, hi = get("curvature_range", "two positive numbers", (0.5, 2.0))
        curv = rng.uniform(lo, hi, size=n)
        targets = rng.normal(scale=get("target_scale", "a number", 1.0), size=(n, p))
        suite = objectives.quadratic_suite(targets, curv)
    elif family == "zero":
        suite = objectives.zero_suite(get("n", "a positive integer"),
                                      get("p", "a positive integer", 1))
    elif family == "bundle":
        path = get("path", "a string")
        try:
            suite = objectives.load_suite(path)
        except ValueError as exc:
            raise ConfigError(f"objective: bundle {exc}") from exc
    elif family == "huber-benchmark":
        suite = section6_problem(get("seed", "a nonnegative integer", 0)).suite
    else:
        raise ConfigError(f"unknown objective family {family!r}")
    get.done()
    return suite


def build_rule(cfg):
    """Mixing rule name (or custom block) -> callable snapshot -> matrix; a
    custom rule gives its one matrix whatever the snapshot, a slice of a
    build repeating it over the snapshot's block (`mixing.constant_rule`)."""
    if isinstance(cfg, dict):
        get = ConfigBlock(cfg, "mixing")
        if get("rule", "a string") != "custom":
            raise ConfigError("mixing block form is only for custom matrices")
        path, mode = get("path", "a string"), get("mode", "a string", mixing.DOUBLY)
        get.done()
        mat = mixing.custom_mixing(mixing.matrix_from_csv(read_input(path, "mixing")), mode)
        return mixing.constant_rule(mat)
    if cfg == "metropolis":
        return mixing.metropolis
    if cfg == "lazy-metropolis":
        return mixing.lazy_metropolis
    if cfg == "out-degree":
        return mixing.out_degree_column
    raise ConfigError(f"unknown mixing rule {cfg!r}")


def push_weight_floor(seq: graphs.GraphSequence) -> float | None:
    """Fatal push-sum weight floor 1e-3 * n^(-n * B_minus) when the sequence
    declares its connectivity window; None keeps only the positivity check."""
    if seq.declared_B is None:
        return None
    b_minus = 2 * seq.declared_B - 1
    ln_floor = math.log(1e-3) - seq.n * b_minus * math.log(seq.n)
    return math.exp(ln_floor) if ln_floor > -700 else 0.0


def _assemble(config: ExperimentConfig):
    """(seq, suite, rule, problems, audit) of a parsed config, each built
    once: `problems` lists the method and input rules they break; with none,
    `audit` is the theory_audit block's sidecar dict, or the NoGuaranteeError
    saying why it certifies nothing (None without a block)."""
    seq = build_sequence(config.graph)
    suite = build_suite(config.objective)
    rule = build_rule(config.mixing)
    problems = algorithms.input_problems(
        config.algorithm, seq, suite, schedule=isinstance(config.alpha, dict))
    size = rule.matrix.n if isinstance(config.mixing, dict) else seq.n
    if size != seq.n:
        problems.append(f"size: custom matrix is {size}x{size}, graph has {seq.n} vertices")
    audit = None
    if not problems and config.theory_audit is not None:
        try:
            audit = _audit_params(config, seq, suite, rule)
        except ConfigError:  # a malformed block is a parse error
            raise
        except ValueError as exc:
            audit = NoGuaranteeError(f"theory_audit: {exc}")
    return seq, suite, rule, problems, audit


def validate_config(config: ExperimentConfig) -> list[str]:
    """Dry-run checks; returns human-readable problems (empty means valid).
    A block that does not build raises, as it does for run_experiment."""
    seq, suite, rule, problems, audit = _assemble(config)
    if problems:
        return problems
    B = seq.declared_B or 1
    check = graphs.is_jointly_connected(seq, B, max(4 * B, 8))
    if not check.ok:
        problems.append(f"connectivity: union over window {check.first_failure} "
                        f"(iterations {check.first_failure * B}.."
                        f"{check.first_failure * B + B - 1}) is not "
                        "connected")

    method = algorithms.METHODS[config.algorithm]
    for k in range(4):
        try:
            algorithms.require_certificate(method, rule(seq.snapshot(k)))
        except algorithms.CertificateError as exc:
            problems.append(f"stochasticity: snapshot {k}: {exc}")
            break

    if isinstance(audit, NoGuaranteeError):
        problems.append(str(audit))

    fd = objectives.check_gradients(suite, seed=config.seed)
    if fd > 1e-4:
        problems.append(f"gradients: finite-difference mismatch {fd:.3e}")
    return problems


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None,
                   seed_override: int | None = None) -> RunTrace:
    """Execute one configured run; writes the trace CSV (plus audit sidecar
    when a theory-audit block is present) if an output path is set."""
    if seed_override is not None:
        graph = dict(config.graph)
        if "seed" in graph:
            graph["seed"] = seed_override
        config = replace(config, graph=graph, seed=seed_override)
    seq, suite, rule, problems, audit = _assemble(config)
    if problems:
        raise ValueError(problems[0])
    # an audit block that certifies nothing fails here, before any iteration
    if isinstance(audit, NoGuaranteeError):
        raise audit
    trace = algorithms.run(
        config.algorithm, seq, rule, suite, config.step_size,
        iterations=config.iterations, seed=config.seed,
        x0="random" if config.x0 == "random" else None,
        record_audit=audit is not None, v_floor=push_weight_floor(seq))
    if audit is not None:
        trace.metadata["theory_audit"] = audit
    if config.output is not None:
        path = Path(config.output)
        if out_dir is not None:
            path = Path(out_dir) / path
            path.parent.mkdir(parents=True, exist_ok=True)
        trace.write(path)
        trace.metadata["written_to"] = str(path)
    return trace


def _audit_params(config: ExperimentConfig, seq, suite, rule) -> dict:
    """Resolve the theory-audit block into the audit sidecar's constants for
    a run at the config's step size: the fields of one TheoryParams, plus
    lambda and where it came from. Raises NoGuaranteeError when the block
    certifies nothing."""
    get = ConfigBlock(config.theory_audit, "theory_audit")
    B = get("B", "a positive integer", seq.declared_B or 1)
    delta = get("delta", "a number or 'empirical'", "empirical")
    horizon = get("delta_horizon", "a positive integer", max(3 * B, 6))
    beta, eta = get("beta", "a number", None), get("eta", "a number", 1.0)
    lam = get("lambda", "a number or 'certified'", "certified")
    get.done()
    if config.algorithm != "diging":
        raise NoGuaranteeError(
            f"no certified rate for {config.algorithm} from a config; only "
            "diging is audited here (push-diging needs the push-sum "
            "constants q1 and vinv_bound)")
    source = "given"
    if delta == "empirical":
        delta = mixing.estimate_delta(seq, rule, B, horizon).delta_empirical
        source = "empirical"
    params = TheoryParams(n=suite.n, B=B, delta=float(delta),
                          mu_bar=suite.mu_bar, L=suite.L,
                          mu_hat=suite.mu_hat or None, beta=beta,
                          eta=eta, delta_source=source)
    if lam == "certified":
        window = diging_step_size_window(params)
        # a step outside the certified window is audited against the rate
        # at the branch point, and says so
        inside = config.step_size <= window.alpha_max
        lam = diging_rate(config.step_size if inside else window.breakpoint,
                          params).lam
        lam_source = "certified" if inside else "certified-at-breakpoint"
    else:
        lam, lam_source = float(lam), "given"
    return {**asdict(params), "lambda": lam, "lambda_source": lam_source}


# ---------------------------------------------------------------------------
# benchmark problem (12 agents, Huber regression) and its three graph cases
# ---------------------------------------------------------------------------

@dataclass
class Section6Problem:
    """The benchmark estimation problem: unit-Lipschitz scalar rows, solution
    placed 300 away from the common all-zeros start, noise orthogonal to the
    row span so the placed point is the exact minimizer, and small enough
    that every residual at the solution stays in the quadratic branch."""

    suite: objectives.ObjectiveSuite
    rows: np.ndarray            # n x p stacked unit rows
    noise: np.ndarray
    x_star: np.ndarray
    base_digraph: graphs.GraphSnapshot
    base_undirected: graphs.GraphSnapshot
    seed: int

    @property
    def initial_clipped(self) -> int:
        """How many components see a clipped residual at the zero start."""
        y = np.array([t[0] for t in self.suite.data["targets"]])
        return int(np.sum(np.abs(y) > XI))


def section6_problem(seed: int, n: int = 12, p: int = 3) -> Section6Problem:
    rng = np.random.default_rng((seed, 6))
    m = rng.normal(size=(n, p))
    m /= np.linalg.norm(m, axis=1, keepdims=True)          # L_i = 1 exactly
    direction = rng.normal(size=p)
    direction /= np.linalg.norm(direction)
    x_star = 300.0 * direction

    # noise orthogonal to the stacked rows: the clipped-gradient sum then
    # vanishes at x_star, making it the exact (and unique) minimizer
    e = np.zeros(n)
    for attempt in range(64):
        e = rng.normal(size=n)
        e -= m @ np.linalg.solve(m.T @ m, m.T @ e)
        if np.abs(e).max() > 1e-6:
            break
    e *= (0.5 * XI) / np.abs(e).max()   # strictly inside the quadratic branch
    y = m @ x_star + e

    suite = objectives.huber_regression_suite(
        [m[i:i + 1] for i in range(n)], [y[i:i + 1] for i in range(n)], xi=XI)
    suite.x_star = x_star.copy()
    suite.mu_bar_override = float(np.linalg.eigvalsh(m.T @ m / n)[0])

    digraph = None
    for attempt in range(512):
        cand = graphs.random_strongly_connected_digraph(
            n, 2 * n, seed=int(np.random.SeedSequence((seed, 7, attempt))
                               .generate_state(1)[0]))
        # the benchmark's undirected support has exactly 2n-1 edges (one
        # antiparallel arc pair), each two entries of its symmetric
        # adjacency matrix; filter the sampler to match
        if np.count_nonzero(cand.as_undirected().adj) == 2 * (2 * n - 1):
            digraph = cand
            break
    if digraph is None:
        raise RuntimeError("digraph sampler never produced the target support")
    return Section6Problem(suite, m, e, x_star, digraph,
                           digraph.as_undirected(), seed)


CASES = ("ti-directed", "tv-undirected", "tv-directed")

# step sizes from a coarse grid search per case (see README); iteration
# counts sized so the tracking methods bottom out below 1e-9 residual
TUNED = {
    "ti-directed": {"diging": 0.2, "diging-atc": 0.3, "push-diging": 0.2,
                    "subgradient-push": 2.0, "iterations": 3000},
    "tv-undirected": {"diging": 0.6, "diging-atc": 0.6, "push-diging": 0.3,
                      "subgradient-push": 2.0, "iterations": 4000},
    "tv-directed": {"push-diging": 0.15, "subgradient-push": 2.0,
                    "iterations": 4500},
}


def reproduce_section6(case: str, seed: int = 0,
                       out_dir: str | Path | None = None,
                       iterations: int | None = None) -> dict:
    """Rebuild the benchmark problem and run every applicable algorithm on
    the requested graph case, returning traces and a comparison summary."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; pick one of {CASES}")
    problem = section6_problem(seed)
    suite = problem.suite
    params = TUNED[case]
    iters = params["iterations"] if iterations is None else iterations

    reference = objectives.solve_reference(suite, tolerance=1e-12)
    x_star = reference.x_star

    sub_seed = int(np.random.SeedSequence((seed, 8)).generate_state(1)[0])
    if case == "ti-directed":
        seq_w = graphs.static_sequence(problem.base_undirected,
                                       "benchmark undirected support (static)")
        seq_c = graphs.static_sequence(problem.base_digraph,
                                       "benchmark digraph (static)")
    elif case == "tv-undirected":
        seq_w = graphs.subsample_sequence(problem.base_undirected, 0.4, sub_seed)
        seq_c = directed_view(seq_w)
    else:
        seq_w = None  # the case runs the push methods only
        seq_c = graphs.subsample_sequence(problem.base_digraph, 0.8, sub_seed)

    methods = tuple(a for a in algorithms.ALGORITHMS if a in TUNED[case])
    pushes = [algorithms.METHODS[a].push for a in methods]
    # one lockstep run: one snapshot draw per sequence and one mixing build
    # per (sequence, rule) on each draw block, the directed view reading the
    # block its undirected sequence drew
    runs = dict(zip(methods, algorithms.run(
        methods, tuple(seq_c if push else seq_w for push in pushes),
        tuple(mixing.out_degree_column if push else mixing.metropolis
              for push in pushes),
        suite, tuple(params[a] for a in methods), iterations=iters, seed=seed,
        x_star=x_star, record_audit=True)))

    traces: dict[str, RunTrace] = {}
    summary: dict[str, dict] = {}
    for algo in methods:
        trace = runs[algo]
        trace.metadata["case"] = case
        traces[algo] = trace
        entry = {"final_residual": float(trace.residual[-1]),
                 "min_residual": float(trace.residual.min()),
                 "alpha": params[algo]}
        try:
            k_seg, r_seg = geometric_segment(trace)
            fit = rate_fit((k_seg, r_seg), burn_in=0.0)
            entry["tail_slope"] = fit.slope
            entry["tail_r_squared"] = fit.r_squared
        except ValueError:
            entry["tail_slope"] = None
            entry["tail_r_squared"] = None
        summary[algo] = entry
        if out_dir is not None:
            path = Path(out_dir) / f"{case}-{algo}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            trace.write(path)
    return {"case": case, "seed": seed, "iterations": iters,
            "problem": {
                "n": suite.n, "p": suite.p,
                "x_star_distance": float(np.linalg.norm(x_star)),
                "initial_clipped": problem.initial_clipped,
                "reference_grad_norm": reference.grad_norm,
            },
            "traces": traces, "summary": summary}
