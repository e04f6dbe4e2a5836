"""Iteration engines: one step function, configured per method by the
`METHODS` table, runs DIGing, its adapt-then-combine variant, Push-DIGing
and two baselines (distributed gradient descent, subgradient-push); the
centralized inexact gradient method `run_igd` is one loop beside it. Both
evaluate every gradient through `block_gradient`.

Every step is a pure function from explicit state to the next state; no
randomness lives inside a step, so runs replay bit-for-bit. `run` calls a
method's step once per chunk of iterations, on the matrices its sequence
serves for the chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .graphs import DIRECTED, DrawnBlock, GraphSequence
from .mixing import COLUMN, DOUBLY, MixingMatrix, StochasticityReport
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
    _require(method, mat.certificate)


def _require(method: Method, cert) -> None:
    if not cert.ok:
        raise CertificateError("mixing matrix carries no valid stochasticity "
                               "certificate")
    modes = (COLUMN, DOUBLY) if method.push else (DOUBLY,)
    if cert.mode not in modes:
        raise CertificateError(f"need a {' or '.join(modes)} stochastic matrix, "
                               f"got {cert.mode}")


class Mixers:
    """The mixing matrices of consecutive iterations, for one `step` call:
    `weights[j]` is the entries of the j-th, and `certificates` holds the
    report that decides each run of them, consecutive slices of one build."""

    __slots__ = ("weights", "certificates", "runs")

    def __init__(self):
        self.weights: list[np.ndarray] = []
        self.certificates: list[StochasticityReport] = []
        self.runs: list[tuple] = []   # (matrix, snapshots, lo, hi)

    def slices(self, mat: MixingMatrix, lo: int, hi: int, snaps) -> None:
        """Slices lo .. hi - 1 of the build `mat` is a slice of, each read
        modulo the build's size, on the next hi - lo iterations; `snaps[i]`
        is the snapshot of slice i."""
        stack, certificates = mat.source[0]
        # the stack's slices repeated as far as hi reaches
        self.weights += (list(stack) * -(-hi // len(stack)))[lo:hi]
        self.certificates.append(certificates.decisive(lo, hi))
        self.runs.append((mat, snaps, lo, hi))

    def alone(self, mat: MixingMatrix) -> None:
        """`mat` on the next iteration: the one slice of its build it is."""
        i = mat.source[1]
        self.slices(mat, i, i + 1, {i: mat.snapshot})

    def matrices(self) -> list[MixingMatrix]:
        """One MixingMatrix per iteration, as its rule gives it."""
        out = []
        for mat, snaps, lo, hi in self.runs:
            size = len(mat.source[0][0])
            out += [mat.sibling(i % size, snaps[i % size]) for i in range(lo, hi)]
        return out


def init(suite: ObjectiveSuite, x0: np.ndarray) -> State:
    """Unit weights, mass and readout at x0, tracker at the initial block
    gradient; `block_gradient` rejects a block of the wrong shape."""
    x0 = np.asarray(x0, dtype=float)
    g = block_gradient(suite, x0)
    return State(0, x0.copy(), np.ones(suite.n), x0.copy(), g.copy(), g)


def step(method: Method, state: State, mat: MixingMatrix | Mixers,
         suite: ObjectiveSuite, alpha: float | list[float],
         v_floor: float | None = None):
    """One iteration of `method` on one matrix, or one per matrix of
    `Mixers`, each with its step size when `alpha` is a list.

    The local step descends along the tracker, or along the raw gradient
    without tracking. Mixing follows the local step under push-sum or
    adapt-then-combine and precedes it otherwise. Push-sum also mixes the
    weights and reads out x = u / v, undoing the uneven mass distribution
    of column stochastic mixing; a nonpositive (or under-floor) weight is
    fatal by design. The tracker then adds the newest gradient difference,
    mixed after it under adapt-then-combine. One matrix gives the next
    State or raises PushSumViolation. `Mixers` give (iterates, violation):
    the (u, v, x, y, grad) of each iteration taken, and the violation that
    ended them early, or None.
    """
    single = not isinstance(mat, Mixers)
    chunk = mat
    if single:
        chunk = Mixers()
        chunk.alone(mat)
    for cert in chunk.certificates:
        _require(method, cert)
    alphas = alpha if isinstance(alpha, list) else [alpha] * len(chunk.weights)
    if method.tracking and min(alphas, default=1.0) <= 0:
        raise ValueError("step size must be positive")
    tracking, push, atc = method.tracking, method.push, method.atc
    gradient = block_gradient
    k, u, v, x, y, g = state.k, state.u, state.v, state.x, state.y, state.grad
    iterates, violation = [], None
    for w, a in zip(chunk.weights, alphas):
        d = y if tracking else g
        if push:
            u1 = w @ (u - a * d)
            v1 = w @ v
            if (v1 <= 0).any() or (v_floor is not None and v1.min() < v_floor):
                violation = PushSumViolation(k + 1, v1, v_floor)
                break
            x1 = u1 / v1[:, None]
        else:
            x1 = w @ (x - a * d) if atc else w @ x - a * d
            u1, v1 = x1, v
        g1 = gradient(suite, x1)
        if not tracking:
            y1 = g1
        elif atc:
            y1 = w @ (y + g1 - g)
        else:
            y1 = w @ y + g1 - g
        k, u, v, x, y, g = k + 1, u1, v1, x1, y1, g1
        iterates.append((u, v, x, y, g))
    if not single:
        return iterates, violation
    if violation is not None:
        raise violation
    return State(k, u, v, x, y, g)


# one preset per method; `run` reaches every member's steps through these names
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
# iterations each member steps per call of its preset
_CHUNK = 64


def _norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each block a[c], bit for bit: a 1 x m @ m x 1 matmul
    slice runs the same ddot over the raveled block."""
    c = len(a)
    return np.sqrt(np.matmul(a.reshape(c, 1, -1), a.reshape(c, -1, 1))).ravel()


class _Member:
    """One run of a lockstep call: its method, step size, sequence, rule and
    last state, and its metrics written into a buffer preallocated for every
    iteration. It steps a chunk of iterations per call of its method's
    preset and records every series of the chunk at once, each value
    bit-equal to np.linalg.norm and consensus_violation on its own state;
    the first non-finite residual ends the run there."""

    def __init__(self, algorithm: str, alpha: float, seq: GraphSequence, rule,
                 suite: ObjectiveSuite, x0: np.ndarray, x_star: np.ndarray,
                 r0: float, iterations: int, record_states: bool, audit: bool):
        self.algorithm = algorithm
        self.seq = seq
        self.rule = rule
        self.method = METHODS[algorithm]
        # looked up per `run` call, so a rebound module name takes effect
        self.preset = globals()[algorithm.replace("-", "_") + "_step"]
        self.alpha = alpha
        self.x_star = x_star
        self.r0 = r0
        self.audit = audit
        self.rows = np.empty((len(_SERIES), iterations + 1))
        if not self.method.tracking:
            self.rows[2:4] = float("nan")   # cons_viol_y, conservation_err
        if not self.method.push:
            self.rows[4] = float("nan")     # v_min
        self.terminated = None
        st = self.state = init(suite, x0)
        self.states = [st] if record_states else None
        self.mixers = [] if record_states else None
        self.record(0, [(st.u, st.v, st.x, st.y, st.grad)], None)

    def record(self, k0: int, iterates: list[tuple], before: np.ndarray | None) -> int:
        """Write every series of the (u, v, x, y, grad) iterates k0, k0 + 1,
        ... up to the first with a non-finite residual, and return how many
        were written. `before` is the gradient of iterate k0 - 1, None for
        k0 = 0."""
        method, rows = self.method, self.rows
        _, vs, xs, ys, gs = zip(*iterates)
        x = np.array(xs)
        q = _norms(x - self.x_star)
        residual = q / self.r0 if self.r0 > 0 else q
        bad = np.flatnonzero(~np.isfinite(residual))
        count = int(bad[0]) + 1 if bad.size else len(x)
        cols = slice(k0, k0 + count)
        rows[0, cols], rows[5, cols] = residual[:count], q[:count]
        self.residual = float(residual[count - 1])
        x = x[:count]
        n = x.shape[1]
        rows[1, cols] = _norms(x - x.sum(axis=1, keepdims=True) / n)
        if method.push:
            v = np.array(vs[:count])
            rows[4, cols] = v.min(axis=1)
        if method.tracking or self.audit:
            g = np.array(gs[:count])
        if method.tracking:
            y = np.array(ys[:count])
            y_read = y / v[:, :, None] if method.push else y
            rows[2, cols] = _norms(y_read - y_read.sum(axis=1, keepdims=True) / n)
            rows[3, cols] = _norms(y.sum(axis=1) - g.sum(axis=1))
        if self.audit:
            first = g[:1] if before is None else before[None]
            rows[6, cols] = _norms(np.diff(g, axis=0, prepend=first))
            rows[6, 0] = 0.0   # z(0) = 0
            rows[7, cols] = _norms(g)
        return count

    def advance(self, k0: int, mixers: Mixers, suite: ObjectiveSuite,
                v_floor: float | None) -> bool:
        """Step iterations k0, k0 + 1, ... on `mixers` and record them; False
        once the run has ended on a non-finite residual or a push-sum
        violation, whichever came first."""
        count = len(mixers.weights)
        alpha = ([self.alpha / math.sqrt(k + 1) for k in range(k0, k0 + count)]
                 if self.method.diminishing else self.alpha)
        iterates, violation = self.preset(self.state, mixers, suite, alpha,
                                          v_floor=v_floor)
        kept = self.record(k0 + 1, iterates, self.state.grad) if iterates else 0
        if kept:
            # a State for the last iterate kept, or for each under record_states
            first = 0 if self.states is not None else kept - 1
            states = [State(k0 + 1 + j, *iterates[j]) for j in range(first, kept)]
            self.state = states[-1]
            if self.states is not None:
                self.states += states
                self.mixers += mixers.matrices()[:kept]
        if not math.isfinite(self.residual):
            return False
        self.terminated = violation and str(violation)
        return violation is None


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


class _Group:
    """The live members on one sequence and rule, the rule's last matrix,
    and the chunk being served."""

    __slots__ = ("rule", "members", "mat", "mixers")

    def __init__(self, rule):
        self.rule, self.members, self.mat = rule, [], None

    def serve(self, drawn: DrawnBlock, lo: int, hi: int) -> None:
        """Iterations on slices lo .. hi - 1 of a block, i serving slice i
        mod the block's size (a periodic block serves past its end). The
        rule is asked at slice lo unless its last matrix is a slice of this
        block's build, and a matrix that is serves every slice left from
        that build. A matrix that is not (a custom one, or one built on
        another block) serves its own slice alone, and the rule is asked
        again at the next."""
        for i in range(lo, hi):
            if not self.built_on(drawn.block):
                self.mat = self.rule(drawn[i % len(drawn)])
            if self.built_on(drawn.block):
                self.mixers.slices(self.mat, i, hi, drawn)
                return
            self.mixers.alone(self.mat)

    def built_on(self, block) -> bool:
        """Whether the last matrix is a slice of `block`'s build."""
        mat = self.mat
        return mat is not None and block.built.get(mat.rule) is mat.source[0]


def _plan(members: list[_Member]) -> list[tuple[GraphSequence, list[_Group]]]:
    """The members grouped by sequence, then by rule, in member order."""
    plan: dict = {}
    for m in members:
        groups = plan.setdefault(m.seq, {})
        if m.rule not in groups:
            groups[m.rule] = _Group(m.rule)
        groups[m.rule].members.append(m)
    return [(seq, list(groups.values())) for seq, groups in plan.items()]


def _serve(seq: GraphSequence, groups: list[_Group], k0: int, k1: int) -> None:
    """Fill each group's mixers for iterations k0 .. k1 - 1, reading the
    snapshot at the first iteration of each block's segment; a periodic
    sequence's one block serves the rest of the chunk."""
    for group in groups:
        group.mixers = Mixers()
    k = k0
    while k < k1:
        seq.snapshot(k)   # draws block t unless it is kept
        t, i = divmod(k, seq.size)
        drawn = seq.snapshots(t)
        hi = i + k1 - k if seq.repeats else min(seq.size, i + k1 - k)
        for group in groups:
            group.serve(drawn, i, hi)
        k += hi - i


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
    that member's own `run`. Every member shares the other inputs. The run
    goes `_CHUNK` iterations at a time: each distinct sequence serves the
    chunk's matrices once per distinct rule on it, and every live member
    then steps the chunk in one call of its method's preset. A block's rule
    is asked once, and its other slices read from that build; a matrix not
    built on the block (a custom one, or one built on another block) is
    asked for at every slice. `input_problems` lists what `run` rejects
    with a ValueError.
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
    # a diverging run overflows on its way to the first non-finite residual,
    # where that member stops and says so
    with np.errstate(over="ignore", invalid="ignore"):
        members = [_Member(algo, a, member_seq, member_rule, suite, x0, x_star, r0,
                           iterations, record_states, record_audit)
                   for algo, a, member_seq, member_rule in entries]
        plan = _plan([m for m in members if math.isfinite(m.residual)])
        for k0 in range(0, iterations, _CHUNK):
            ended = []
            for member_seq, groups in plan:
                _serve(member_seq, groups, k0, min(k0 + _CHUNK, iterations))
                ended += [m for group in groups for m in group.members
                          if not m.advance(k0, group.mixers, suite, v_floor)]
            if ended:   # the groups left keep their last matrices
                for _, groups in plan:
                    for group in groups:
                        group.members = [m for m in group.members if m not in ended]
                plan = [(s, left) for s, gs in plan
                        if (left := [g for g in gs if g.members])]

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
