"""Iteration engines: one step function, configured per method by the
`METHODS` table, runs DIGing, its adapt-then-combine variant, Push-DIGing
and two baselines (distributed gradient descent, subgradient-push); the
centralized inexact gradient method `run_igd` is one loop beside it. Both
evaluate every gradient through `block_gradient`.

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
from .traces import AUDIT_SERIES, SERIES, RunTrace


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


def require_certificate(method: Method, mat: MixingMatrix) -> None:
    """Raise CertificateError unless `mat` carries a passing certificate in a
    mode `method` steps on: column or doubly stochastic under push-sum,
    doubly otherwise. `step` and a config's validation both apply it."""
    cert = mat.certificate
    if cert is None or not cert.ok:
        raise CertificateError("mixing matrix carries no valid stochasticity "
                               "certificate")
    modes = (COLUMN, DOUBLY) if method.push else (DOUBLY,)
    if cert.mode not in modes:
        raise CertificateError(f"need a {' or '.join(modes)} stochastic matrix, "
                               f"got {cert.mode}")


def init(suite: ObjectiveSuite, x0: np.ndarray) -> State:
    """Unit weights, mass and readout at x0, tracker at the initial block
    gradient; `block_gradient` rejects a block of the wrong shape."""
    x0 = np.asarray(x0, dtype=float)
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
    require_certificate(method, mat)
    if method.tracking and alpha <= 0:
        raise ValueError("step size must be positive")
    w = mat.entries
    d = state.y if method.tracking else state.grad
    if method.push:
        u1 = w @ (state.u - alpha * d)
        v1 = w @ state.v
        if (v1 <= 0).any() or (v_floor is not None and v1.min() < v_floor):
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


@dataclass(frozen=True)
class IgdRun:
    """Distance-to-optimum and perturbation-size series of an inexact run."""

    r: np.ndarray                  # ||p^k - p*|| per iteration
    s_dev: np.ndarray              # n columns: ||p^k - s_i^k|| per iteration


def run_igd(suite: ObjectiveSuite, p0: np.ndarray, theta: float,
            perturbation: Callable[[int, int, int], np.ndarray],
            iterations: int, p_star: np.ndarray | None = None) -> IgdRun:
    """Centralized descent p^k = p^(k-1) - theta (1/n) sum_i grad f_i(s_i^(k-1))
    along gradients taken at the perturbed points s_i^k = p^k +
    perturbation(i, k, p) instead of the iterate itself."""
    if p_star is None:
        p_star = suite.x_star if suite.x_star is not None \
            else solve_reference(suite).x_star
    pk = np.asarray(p0, dtype=float).reshape(suite.p)
    r, s_dev = [], []
    for k in range(iterations + 1):
        if k:
            g = np.sum(block_gradient(suite, s), axis=0, initial=0.0)
            pk = pk - theta * g / suite.n
        s = np.vstack([pk + perturbation(i, k, suite.p) for i in range(suite.n)])
        r.append(float(np.linalg.norm(pk - p_star)))
        s_dev.append(np.linalg.norm(s - pk, axis=1))
    return IgdRun(np.array(r), np.vstack(s_dev))


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


# a member's row buffer: row i holds one series, column k iteration k; the
# last two are filled only for a run that records audit series
_SERIES = SERIES + AUDIT_SERIES
# states a member holds before it fills their batched series
_CHUNK = 64


def _norms(a: np.ndarray) -> np.ndarray:
    """`_frobenius` of each block a[c]: a 1 x m @ m x 1 matmul slice runs the
    same ddot over the raveled block."""
    c = len(a)
    return np.sqrt(np.matmul(a.reshape(c, 1, -1), a.reshape(c, -1, 1))).ravel()


class _Member:
    """One run of a lockstep call: its method, step size, sequence, rule and
    state, and its metrics written into a buffer preallocated for every
    iteration.

    The residual is recorded on every iteration, since the first non-finite
    one ends the run. The other series are filled by `flush` from the states
    held since the last flush, a few stacked numpy calls per `_CHUNK`
    iterations, each value bit-equal to np.linalg.norm and
    consensus_violation on its own state.
    """

    def __init__(self, algorithm: str, alpha: float, seq: GraphSequence, rule,
                 suite: ObjectiveSuite, x0: np.ndarray, x_star: np.ndarray,
                 r0: float, iterations: int, record_states: bool, audit: bool):
        self.algorithm = algorithm
        self.seq = seq
        self.rule = rule
        self.method = METHODS[algorithm]
        # looked up per `run` call, so a rebound module name takes effect
        self.advance = globals()[algorithm.replace("-", "_") + "_step"]
        self.alpha = alpha
        self.x_star = x_star
        self.r0 = r0
        self.audit = audit
        self.rows = np.empty((len(_SERIES), iterations + 1))
        if not self.method.tracking:
            self.rows[2:4] = float("nan")   # cons_viol_y, conservation_err
        if not self.method.push:
            self.rows[4] = float("nan")     # v_min
        self.held: list[State] = []
        self.last_grad = None   # gradient of the state before the held ones
        self.terminated = None
        self.state = init(suite, x0)
        self.states = [self.state] if record_states else None
        self.mixers = [] if record_states else None
        self.residual = self.record(self.state)

    def record(self, st: State) -> float:
        """Write the residual and the raw distance to x* of one state, hold
        the state for the next flush, and return the residual."""
        q = _frobenius(st.x - self.x_star)
        residual = q / self.r0 if self.r0 > 0 else q
        self.rows[0, st.k] = residual
        self.rows[5, st.k] = q
        self.held.append(st)
        if len(self.held) == _CHUNK:
            self.flush()
        return residual

    def flush(self) -> None:
        """Fill the batched series of the held states and drop them."""
        held, self.held = self.held, []
        if not held:
            return
        method, rows = self.method, self.rows
        cols = slice(held[0].k, held[-1].k + 1)
        x = np.array([st.x for st in held])
        n = x.shape[1]
        rows[1, cols] = _norms(x - x.sum(axis=1, keepdims=True) / n)
        if method.push:
            v = np.array([st.v for st in held])
            rows[4, cols] = v.min(axis=1)
        if method.tracking or self.audit:
            g = np.array([st.grad for st in held])
        if method.tracking:
            y = np.array([st.y for st in held])
            y_read = y / v[:, :, None] if method.push else y
            rows[2, cols] = _norms(y_read - y_read.sum(axis=1, keepdims=True) / n)
            rows[3, cols] = _norms(y.sum(axis=1) - g.sum(axis=1))
        if self.audit:
            first = held[0].grad if self.last_grad is None else self.last_grad
            rows[6, cols] = _norms(np.diff(g, axis=0, prepend=first[None]))
            if self.last_grad is None:
                rows[6, 0] = 0.0   # z(0) = 0
            rows[7, cols] = _norms(g)
            self.last_grad = held[-1].grad

    def step(self, k: int, mat: MixingMatrix, suite: ObjectiveSuite,
             v_floor: float | None) -> bool:
        """Advance one iteration and record it; False once the run has ended
        on a push-sum violation or a non-finite residual."""
        a_k = self.alpha / math.sqrt(k + 1) if self.method.diminishing else self.alpha
        try:
            self.state = self.advance(self.state, mat, suite, a_k, v_floor=v_floor)
        except PushSumViolation as exc:
            self.terminated = str(exc)
            return False
        if self.states is not None:
            self.states.append(self.state)
            self.mixers.append(mat)
        self.residual = self.record(self.state)
        return math.isfinite(self.residual)


def _lockstep_members(**values) -> list[tuple]:
    """One tuple of values per member, in keyword order: a tuple value gives
    one member per entry and a single value is shared by every member."""
    sizes = {name: len(v) for name, v in values.items() if isinstance(v, tuple)}
    if len(set(sizes.values())) > 1:
        lengths = " and ".join(f"{name} {size}" for name, size in sizes.items())
        raise ValueError(f"lockstep tuples differ in length: {lengths}")
    size = sizes.popitem()[1] if sizes else 1
    if size == 0:
        raise ValueError("a lockstep run needs at least one member")
    return list(zip(*(v if isinstance(v, tuple) else (v,) * size
                      for v in values.values())))


def _schedule(live: list[_Member]) -> dict:
    """{sequence: {rule: members}} of the live members, in member order."""
    plan: dict = {}
    for m in live:
        plan.setdefault(m.seq, {}).setdefault(m.rule, []).append(m)
    return plan


def run(algorithm: str | tuple[str, ...],
        seq: GraphSequence | tuple[GraphSequence, ...], rule,
        suite: ObjectiveSuite, alpha: float | tuple[float, ...], iterations: int,
        seed: int = 0, x0: np.ndarray | None = None,
        x_star: np.ndarray | None = None, record_audit: bool = False,
        record_states: bool = False,
        v_floor: float | None = None) -> RunTrace | tuple[RunTrace, ...]:
    """Drive one algorithm, or several in lockstep, over a graph sequence and
    record per-iteration metrics; deterministic in all inputs.

    `alpha` is the fixed step size; a diminishing method reads it as the
    scale a of alpha_k = a / sqrt(k+1). `algorithm`, `seq`, `rule` and
    `alpha` may each be a tuple (of equal length when several are): one
    member runs per entry and a tuple of traces comes back, each equal to
    that member's own `run`. Every member shares the other inputs. Each
    iteration draws the snapshot of every distinct sequence once and, when
    it differs from the previous iteration's, builds its matrix once per
    distinct rule on it; every live member then advances on its matrix.
    `input_problems` lists what `run` rejects with a ValueError.
    `rule` maps a snapshot to a MixingMatrix. `v_floor` is the fatal lower
    bound on push-sum weights; methods without push ignore it.
    When `x0` is None the run starts from zeros; the string "random" draws a
    standard normal block from `seed`. A push-sum violation or the first
    non-finite residual ends a member early, the others going on; that row
    is kept and `metadata["terminated"]` says why.
    """
    entries = _lockstep_members(algorithm=algorithm, alpha=alpha, seq=seq,
                                rule=rule)
    for algo, _, member_seq, _ in entries:
        problems = input_problems(algo, member_seq, suite)
        if problems:
            raise ValueError(problems[0])
    if iterations < 0:
        raise ValueError(f"iteration count must be nonnegative, got {iterations}")

    n, p = suite.n, suite.p
    if isinstance(x0, str) and x0 == "random":
        x0 = np.random.default_rng(seed).normal(size=(n, p))
    elif x0 is None:
        x0 = np.zeros((n, p))
    # C order: equal values give one trace whatever their memory layout
    x0 = np.ascontiguousarray(x0, dtype=float)

    if x_star is None:
        x_star = suite.x_star
    if x_star is None:
        if suite.L_bar == 0:
            x_star = x0.mean(axis=0)  # consensus run: target is the start average
        else:
            x_star = solve_reference(suite).x_star
    x_star = np.asarray(x_star, dtype=float).reshape(p)

    r0 = float(np.linalg.norm(x0 - x_star[None, :]))
    members = [_Member(algo, a, member_seq, member_rule, suite, x0, x_star, r0,
                       iterations, record_states, record_audit)
               for algo, a, member_seq, member_rule in entries]
    live = [m for m in members if math.isfinite(m.residual)]
    plan = _schedule(live)
    snaps: dict = {}    # sequence -> its last snapshot
    mats: dict = {}     # (sequence, rule) -> the matrix of that snapshot
    # a diverging run overflows on its way to the first non-finite residual,
    # where that member stops and says so
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iterations):
            if not plan:
                break
            ended = []
            for member_seq, by_rule in plan.items():
                current, last = member_seq.snapshot(k), snaps.get(member_seq)
                # a rule is a function of the snapshot: rebuild only on a change
                changed = current is not last and current != last
                snaps[member_seq] = current
                for member_rule, group in by_rule.items():
                    if changed:
                        mats[member_seq, member_rule] = member_rule(current)
                    mat = mats[member_seq, member_rule]
                    ended += [m for m in group
                              if not m.step(k, mat, suite, v_floor)]
            if ended:
                live = [m for m in live if m not in ended]
                plan = _schedule(live)
        # inside the errstate block: a diverging member's held states overflow
        for m in members:
            m.flush()

    traces = []
    for m in members:
        if not math.isfinite(m.residual):
            m.terminated = f"residual is not finite at iteration {m.state.k}"
        rows = m.rows[:, :m.state.k + 1]
        audit = {}
        if record_audit:
            audit = dict(zip(AUDIT_SERIES, rows[len(SERIES):]), r0=r0,
                         xbar0_error=float(np.linalg.norm(x0.mean(axis=0) - x_star)))
        traces.append(RunTrace(
            k=np.arange(rows.shape[1]), **dict(zip(SERIES, rows)), **audit,
            metadata={
                "algorithm": m.algorithm,
                "alpha": float(m.alpha),
                "iterations": iterations,
                "seed": seed,
                "graph": m.seq.description,
                "graph_seed": m.seq.seed,
                "n": n, "p": p,
                "terminated": m.terminated,
            },
            history={"states": m.states, "mixers": m.mixers}
            if record_states else None,
        ))
    lockstep = any(isinstance(v, tuple) for v in (algorithm, alpha, seq, rule))
    return tuple(traces) if lockstep else traces[0]
