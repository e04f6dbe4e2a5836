"""Iteration engines: one step function, configured per method by the
`METHODS` table, runs DIGing, its adapt-then-combine variant, Push-DIGing
and two baselines (distributed gradient descent, subgradient-push); a
centralized inexact gradient method sits beside it.

Every step is a pure function from explicit state to the next state; no
randomness lives inside a step, so runs replay bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .graphs import DIRECTED, GraphSequence
from .mixing import COLUMN, DOUBLY, MixingMatrix
from .objectives import ObjectiveSuite, block_gradient, solve_reference
from .traces import RunTrace


class CertificateError(ValueError):
    """A step received a matrix without the stochasticity certificate it needs."""


class PushSumViolation(RuntimeError):
    """Push-sum weights lost positivity or fell under the declared floor,
    which signals a graph sequence violating its connectivity assumptions."""

    def __init__(self, k: int, v: np.ndarray, floor: float | None):
        self.k = k
        self.v_min = float(v.min())
        self.floor = floor
        detail = f"min weight {self.v_min:.3e} at iteration {k}"
        if floor is not None:
            detail += f" (floor {floor:.3e})"
        super().__init__("push-sum weight degenerated: " + detail)


@dataclass(frozen=True)
class Method:
    """The switches that tell the five recursions apart."""

    tracking: bool      # descend along the tracker y, not the raw gradient
    push: bool          # column stochastic mixing with push-sum weights v
    atc: bool           # adapt then combine: mix after the local step
    diminishing: bool   # step sizes alpha_k = alpha / sqrt(k+1)


METHODS = {
    "diging": Method(tracking=True, push=False, atc=False, diminishing=False),
    "diging-atc": Method(tracking=True, push=False, atc=True, diminishing=False),
    "push-diging": Method(tracking=True, push=True, atc=False, diminishing=False),
    "dgd": Method(tracking=False, push=False, atc=False, diminishing=False),
    "subgradient-push": Method(tracking=False, push=True, atc=False,
                               diminishing=True),
}
ALGORITHMS = tuple(METHODS)


@dataclass(frozen=True)
class State:
    """Iterates of any method. Without push the weights v stay at ones and
    the mass u is the readout x; without tracking y is the raw gradient."""

    k: int
    u: np.ndarray        # n x p push-sum mass
    v: np.ndarray        # positive push-sum weights, sum preserved at n
    x: np.ndarray        # n x p readout u / v
    y: np.ndarray        # n x p gradient trackers
    grad: np.ndarray     # cached block gradient at x


@dataclass(frozen=True)
class IgdState:
    k: int
    p: np.ndarray                 # central iterate
    s: np.ndarray                 # n x p evaluation points used at this step
    theta: float


def _require(mat: MixingMatrix, modes: tuple[str, ...]) -> None:
    cert = mat.certificate
    if cert is None or not cert.ok:
        raise CertificateError("mixing matrix carries no valid stochasticity "
                               "certificate")
    if cert.mode not in modes:
        raise CertificateError(f"need a {' or '.join(modes)} stochastic matrix, "
                               f"got {cert.mode}")


def _check_block(x: np.ndarray, suite: ObjectiveSuite) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (suite.n, suite.p):
        raise ValueError(f"iterate block must be {suite.n}x{suite.p}, got {x.shape}")
    return x


def init(suite: ObjectiveSuite, x0: np.ndarray) -> State:
    """Unit weights, mass and readout at x0, tracker at the initial block
    gradient."""
    x0 = _check_block(x0, suite)
    g = block_gradient(suite, x0)
    return State(0, x0.copy(), np.ones(suite.n), x0.copy(), g.copy(), g)


def step(method: Method, state: State, mat: MixingMatrix, suite: ObjectiveSuite,
         alpha: float, v_floor: float | None = None) -> State:
    """One iteration of `method`.

    The local step descends along the tracker, or along the raw gradient
    without tracking. Mixing follows the local step under push-sum or
    adapt-then-combine and precedes it otherwise. Push-sum also mixes the
    weights and reads out x = u / v, undoing the uneven mass distribution
    of column stochastic mixing; a nonpositive (or under-floor) weight is
    fatal by design. The tracker then adds the newest gradient difference,
    mixed after it under adapt-then-combine.
    """
    _require(mat, (COLUMN, DOUBLY) if method.push else (DOUBLY,))
    if method.tracking and alpha <= 0:
        raise ValueError("step size must be positive")
    w = mat.entries
    d = state.y if method.tracking else state.grad
    if method.push:
        u1 = w @ (state.u - alpha * d)
        v1 = w @ state.v
        if np.any(v1 <= 0) or (v_floor is not None and v1.min() < v_floor):
            raise PushSumViolation(state.k + 1, v1, v_floor)
        x1 = u1 / v1[:, None]
    else:
        x1 = w @ (state.x - alpha * d) if method.atc else w @ state.x - alpha * d
        u1, v1 = x1, state.v
    g1 = block_gradient(suite, x1)
    if not method.tracking:
        y1 = g1
    elif method.atc:
        y1 = w @ (state.y + g1 - state.grad)
    else:
        y1 = w @ state.y + g1 - state.grad
    return State(state.k + 1, u1, v1, x1, y1, g1)


# one preset per method; `run` reaches every iteration through these names
diging_step = partial(step, METHODS["diging"])
diging_atc_step = partial(step, METHODS["diging-atc"])
push_diging_step = partial(step, METHODS["push-diging"])
dgd_step = partial(step, METHODS["dgd"])
subgradient_push_step = partial(step, METHODS["subgradient-push"])


def radius_perturbation(rho: float) -> Callable[[int, int, int], np.ndarray]:
    """Deterministic offsets of exact norm rho: direction varies with the
    agent and the iteration through an incommensurate angle sweep."""

    def offset(i: int, k: int, p: int) -> np.ndarray:
        t = 0.7548776662 * (i + 1) + 0.5698402910 * k  # plastic-constant angles
        raw = np.cos(t * (1.0 + np.arange(p)) + i)
        nrm = np.linalg.norm(raw)
        if nrm == 0.0:
            raw = np.ones(p)
            nrm = math.sqrt(p)
        return rho * raw / nrm

    return offset


def igd_init(suite: ObjectiveSuite, p0: np.ndarray, theta: float,
             perturbation: Callable[[int, int, int], np.ndarray]) -> IgdState:
    p0 = np.asarray(p0, dtype=float).reshape(suite.p)
    s = np.vstack([p0 + perturbation(i, 0, suite.p) for i in range(suite.n)])
    return IgdState(0, p0, s, theta)


def igd_step(state: IgdState, suite: ObjectiveSuite,
             perturbation: Callable[[int, int, int], np.ndarray]) -> IgdState:
    """Centralized descent along the average of gradients taken at perturbed
    evaluation points s_i instead of the iterate itself."""
    g = np.zeros(suite.p)
    for i, c in enumerate(suite.components):
        g += c.grad(state.s[i])
    p1 = state.p - state.theta * g / suite.n
    k1 = state.k + 1
    s1 = np.vstack([p1 + perturbation(i, k1, suite.p) for i in range(suite.n)])
    return IgdState(k1, p1, s1, state.theta)


@dataclass(frozen=True)
class IgdRun:
    """Distance-to-optimum and perturbation-size series of an inexact run."""

    r: np.ndarray                  # ||p^k - p*|| per iteration
    s_dev: np.ndarray              # n columns: ||p^k - s_i^k|| per iteration
    p_final: np.ndarray


def run_igd(suite: ObjectiveSuite, p0: np.ndarray, theta: float,
            perturbation: Callable[[int, int, int], np.ndarray],
            iterations: int, p_star: np.ndarray | None = None) -> IgdRun:
    if p_star is None:
        p_star = suite.x_star if suite.x_star is not None \
            else solve_reference(suite).x_star
    state = igd_init(suite, p0, theta, perturbation)
    r = [float(np.linalg.norm(state.p - p_star))]
    s_dev = [np.linalg.norm(state.s - state.p, axis=1)]
    for _ in range(iterations):
        state = igd_step(state, suite, perturbation)
        r.append(float(np.linalg.norm(state.p - p_star)))
        s_dev.append(np.linalg.norm(state.s - state.p, axis=1))
    return IgdRun(np.array(r), np.vstack(s_dev), state.p)


@dataclass(frozen=True)
class EquivalentRecursionReport:
    max_state_deviation: float
    max_rowsum_deviation: float


def equivalent_recursion_check(states: list[State],
                               mixers: list[MixingMatrix],
                               alpha: float) -> EquivalentRecursionReport:
    """Replay a recorded Push-DIGing run through its weighted row stochastic
    form and report the worst elementwise disagreement.

    The rescaled mixing matrix R(k) = diag(v(k+1))^-1 C(k) diag(v(k)) is row
    stochastic; the readout x and the rescaled tracker h = y / v satisfy the
    same two-recursion shape as the undirected algorithm. Both facts are
    exact algebra, so deviations beyond roundoff indicate a broken run.
    """
    if len(states) < 2:
        raise ValueError("need at least two recorded states")
    if len(mixers) < len(states) - 1:
        raise ValueError("need one mixing matrix per transition")
    max_dev = 0.0
    max_row = 0.0
    for k in range(len(states) - 1):
        s0, s1 = states[k], states[k + 1]
        r = mixers[k].entries * (s0.v[None, :] / s1.v[:, None])
        max_row = max(max_row, float(np.abs(r.sum(axis=1) - 1.0).max()))
        h0 = s0.y / s0.v[:, None]
        x1 = r @ (s0.x - alpha * h0)
        max_dev = max(max_dev, float(np.abs(x1 - s1.x).max()))
        z1 = s1.grad - s0.grad
        h1 = r @ h0 + z1 / s1.v[:, None]
        max_dev = max(max_dev, float(np.abs(h1 - s1.y / s1.v[:, None]).max()))
    return EquivalentRecursionReport(max_dev, max_row)


def _frobenius(a: np.ndarray) -> float:
    """np.linalg.norm(a) without its argument handling: the same ddot over
    the raveled block, then the square root."""
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def input_problems(algorithm: str, seq: GraphSequence, suite: ObjectiveSuite,
                   schedule: bool = False) -> list[str]:
    """One message per rule that a method and its inputs break: unknown tag,
    wrong sequence kind, a schedule on a fixed-step method, mismatched
    sizes. `run` raises the first; a config's validation lists them all."""
    method = METHODS.get(algorithm)
    if method is None:
        return [f"algorithm: unknown tag {algorithm!r}"]
    problems = []
    if method.push and seq.kind != DIRECTED:
        problems.append(f"kind: {algorithm} needs a directed sequence; set "
                        "graph.directed_view for undirected bases")
    if not method.push and seq.kind == DIRECTED:
        problems.append(f"kind: {algorithm} needs an undirected sequence")
    if schedule and not method.diminishing:
        problems.append(f"alpha: {algorithm} takes a fixed step size, "
                        "not a schedule")
    if seq.n != suite.n:
        problems.append(f"size: graph has {seq.n} vertices, objective has "
                        f"{suite.n} agents")
    return problems


def run(algorithm: str, seq: GraphSequence, rule, suite: ObjectiveSuite,
        alpha: float, iterations: int, seed: int = 0, x0: np.ndarray | None = None,
        x_star: np.ndarray | None = None, record_audit: bool = False,
        record_states: bool = False, v_floor: float | None = None) -> RunTrace:
    """Drive one algorithm over a graph sequence and record per-iteration
    metrics; deterministic in all inputs.

    `alpha` is the fixed step size; a diminishing method reads it as the
    scale a of alpha_k = a / sqrt(k+1). `input_problems` lists what `run`
    rejects with a ValueError.
    `rule` maps a snapshot to a MixingMatrix; it is called again only when
    the snapshot differs from the previous iteration's. `v_floor` is the
    fatal lower bound on push-sum weights; methods without push ignore it.
    When `x0` is None the run starts from zeros; the string "random" draws a
    standard normal block from `seed`. A push-sum violation or the first
    non-finite residual ends the run early; that row is kept and
    `metadata["terminated"]` says why.
    """
    problems = input_problems(algorithm, seq, suite)
    if problems:
        raise ValueError(problems[0])
    method = METHODS[algorithm]

    n, p = suite.n, suite.p
    if isinstance(x0, str) and x0 == "random":
        x0 = np.random.default_rng(seed).normal(size=(n, p))
    elif x0 is None:
        x0 = np.zeros((n, p))
    x0 = np.asarray(x0, dtype=float)

    if x_star is None:
        x_star = suite.x_star
    if x_star is None:
        if suite.L_bar == 0:
            x_star = x0.mean(axis=0)  # consensus run: target is the start average
        else:
            x_star = solve_reference(suite).x_star
    x_star = np.asarray(x_star, dtype=float).reshape(p)

    state = init(suite, x0)
    # the preset is looked up per call, so a rebound module name takes effect
    advance = globals()[algorithm.replace("-", "_") + "_step"]

    r0 = float(np.linalg.norm(x0 - x_star[None, :]))
    rows = {name: [] for name in ("k", "residual", "cons_viol_x", "cons_viol_y",
                                  "conservation_err", "v_min")}
    q_norms, z_norms, grad_norms = [], [], []
    states = [state] if record_states else None
    mixers = [] if record_states else None
    prev_grad = None
    terminated = None

    def record(st) -> float:
        """Append one metrics row (each value as np.linalg.norm and
        consensus_violation compute it) and return the residual."""
        nonlocal prev_grad
        q = _frobenius(st.x - x_star)
        residual = q / r0 if r0 > 0 else q
        rows["k"].append(st.k)
        rows["residual"].append(residual)
        rows["cons_viol_x"].append(_frobenius(st.x - st.x.sum(axis=0) / n))
        if method.tracking:
            y = st.y / st.v[:, None] if method.push else st.y
            rows["cons_viol_y"].append(_frobenius(y - y.sum(axis=0) / n))
            drift = st.y.sum(axis=0) - st.grad.sum(axis=0)
            rows["conservation_err"].append(_frobenius(drift))
        else:
            rows["cons_viol_y"].append(float("nan"))
            rows["conservation_err"].append(float("nan"))
        rows["v_min"].append(float(st.v.min()) if method.push else float("nan"))
        q_norms.append(q)
        z_norms.append(0.0 if prev_grad is None else _frobenius(st.grad - prev_grad))
        grad_norms.append(_frobenius(st.grad))
        prev_grad = st.grad
        return residual

    residual = record(state)
    snap = mat = None
    # a diverging run overflows on its way to the first non-finite residual,
    # where the loop stops and says so
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iterations):
            if not math.isfinite(residual):
                break
            current = seq.snapshot(k)
            # a rule is a function of the snapshot: rebuild only on a change
            if current is not snap and current != snap:
                snap, mat = current, rule(current)
            a_k = alpha / math.sqrt(k + 1) if method.diminishing else alpha
            try:
                state = advance(state, mat, suite, a_k, v_floor=v_floor)
            except PushSumViolation as exc:
                terminated = str(exc)
                break
            if record_states:
                states.append(state)
                mixers.append(mat)
            residual = record(state)
    if not math.isfinite(residual):
        terminated = f"residual is not finite at iteration {state.k}"

    trace = RunTrace(
        k=np.array(rows["k"], dtype=int),
        residual=np.array(rows["residual"]),
        cons_viol_x=np.array(rows["cons_viol_x"]),
        cons_viol_y=np.array(rows["cons_viol_y"]),
        conservation_err=np.array(rows["conservation_err"]),
        v_min=np.array(rows["v_min"]),
        metadata={
            "algorithm": algorithm,
            "alpha": float(alpha),
            "iterations": iterations,
            "seed": seed,
            "graph": seq.description,
            "graph_seed": seq.seed,
            "n": n, "p": p,
            "terminated": terminated,
        },
    )
    if record_audit:
        trace.q_norm = np.array(q_norms)
        trace.z_norm = np.array(z_norms)
        trace.grad_norm = np.array(grad_norms)
        trace.xbar0_error = float(np.linalg.norm(x0.mean(axis=0) - x_star))
        trace.r0 = r0
    if record_states:
        trace.history = {"states": states, "mixers": mixers}
    return trace
