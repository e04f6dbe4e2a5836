"""Iteration engines: one step function, configured per method by the
`METHODS` table, runs DIGing, its adapt-then-combine variant, Push-DIGing
and two baselines (distributed gradient descent, subgradient-push); the
centralized inexact gradient method `run_igd` is one loop beside it. Both
evaluate every gradient through `block_gradient`.

Every step is a pure function from explicit state to the next state; no
randomness lives inside a step, so runs replay bit-for-bit. `run` steps
all live members of a call as one batch: one `step` call per chunk of
iterations, on state with a leading member axis and the entries each
member's group (its sequence and rule) serves for the chunk, each member
bit-equal to its own run. A group refuses each run of slices it serves
whose certificate its members cannot step on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .graphs import DIRECTED, DrawnBlock, GraphSequence
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
    doubly otherwise. `step`, a config's validation and `_Group` apply its test."""
    _require(method, mat.certificate)


def _require_step_size(alpha) -> None:   # or a diminishing method's scale
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"step size must be positive and finite, got {alpha}")


def _require(method: Method, cert) -> None:
    if not cert.ok:
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


def step(method: Method, state: State, mat: MixingMatrix | tuple[np.ndarray, ...],
         suite: ObjectiveSuite, alpha, v_floor: float | None = None,
         methods: tuple[Method, ...] | None = None):
    """One iteration of `method` on one matrix, or a chunk of iterations of
    a batch of members.

    The local step descends along the tracker, or along the raw gradient
    without tracking. Mixing follows the local step under push-sum or
    adapt-then-combine and precedes it otherwise. Push-sum also mixes the
    weights and reads out x = u / v, undoing the uneven mass distribution
    of column stochastic mixing; a nonpositive (or under-floor) weight is
    fatal by design. The tracker then adds the newest gradient difference,
    mixed after it under adapt-then-combine. One matrix, refused unless it
    carries a certificate `method` steps on, and a positive finite step
    size give the next State or raise PushSumViolation.

    A batch has `methods`, one per member, a State whose arrays have a
    leading member axis, one (iterations, n, n) stack of entries per member
    and each member's step size or list of them; it checks no certificate
    or step size, which `run` has checked. An iteration makes one stacked
    matmul per mixing product and one `block_gradient` call on the (A, n, p)
    block. A switch is True when every member does it, False when none
    does, else an (A, 1, 1) mask picking each member's formula; a
    one-member batch steps on its own n x p blocks. Every method steps
    along y (a non-tracking member's y is its gradient), and a member
    without push-sum keeps v = 1 exactly, so u / v is u. A weight under the
    floor (or the least positive double) ends its member, which steps on to
    the chunk's end on weights of one. A batch gives the (u, v, x, y, grad)
    buffers, (iterations, members, ...), and {member: (iterations taken,
    PushSumViolation)} for each member a breach ended.
    """
    if single := methods is None:
        require_certificate(method, mat)
        _require_step_size(alpha)
        methods, alpha, mat = (method,), (alpha,), (mat.entries[None],)
        state = State(state.k, *(a[None] for a in (state.u, state.v, state.x,
                                                   state.y, state.grad)))
    c, size = len(mat[0]), len(methods)
    alphas = [a if isinstance(a, list) else [a] * c for a in alpha]
    # mixing after the local step (push-sum or adapt-then-combine), push-sum,
    # adapt-then-combine, tracking
    late, push, atc, tracking = (all(f) or (any(f) and np.array(f)[:, None, None])
                                 for f in zip(*((m.push or m.atc, m.push, m.atc, m.tracking)
                                                for m in methods)))
    least = v_floor if v_floor is not None and v_floor > 0 else 5e-324
    k, u, v, y, g = state.k, state.u, state.v[..., None], state.y, state.grad
    if size == 1:   # numpy's cost per call grows with the axes: a lone member
        # steps on its own n x p blocks, with Python floats for step sizes
        weights, steps, floor = mat[0], alphas[0], least
        u, v, y, g = u[0], v[0], y[0], g[0]
    else:
        weights = np.stack(mat, axis=1)
        steps = np.array(alphas).T[:, :, None, None]
        floor = np.array([least if m.push else -np.inf for m in methods])[:, None, None]
    xs, gs, vs, ends = [], [], [], {}
    us = xs if push is False else []   # u is x without push-sum
    ys = gs if tracking is False else []   # and y is the gradient without tracking
    # each product's local part, on the loop's current ad, g1 and g
    descent, tracked = (lambda b: b - ad), (lambda b: b + g1 - g)
    for w, a in zip(weights, steps):
        ad = a * y
        u1 = x1 = _mixed(w, u, late, descent)
        if push is not False:
            v1 = w @ v
            if push is not True:
                np.copyto(v1, 1.0, where=~push)
            low = v1 < floor
            if low.any():
                j, weak = len(xs), v1.reshape(size, -1)
                for b in np.flatnonzero(low.reshape(size, -1).any(axis=1)).tolist():
                    if b not in ends:
                        ends[b] = (j, PushSumViolation(k + j + 1, weak[b], v_floor))
                v1[low] = 1.0
            x1 = u1 / v1
            us.append(u1)
            vs.append(v1)
            v = v1
        g1 = block_gradient(suite, x1)
        y1 = g1
        if tracking is not False:
            y1 = _mixed(w, y, atc, tracked)
            if tracking is not True:
                y1 = np.where(tracking, y1, g1)
            ys.append(y1)
        xs.append(x1)
        gs.append(g1)
        u, y, g = u1, y1, g1
    shape = (c, size) + state.u.shape[1:]
    x, g = np.array(xs).reshape(shape), np.array(gs).reshape(shape)
    u = x if us is xs else np.array(us).reshape(shape)
    y = g if ys is gs else np.array(ys).reshape(shape)
    v = np.array(vs).reshape(shape[:3]) if vs else np.ones(shape[:3])
    if not single:
        return (u, v, x, y, g), ends
    if ends:
        raise ends[0][1]
    return State(state.k + 1, u[0, 0], v[0, 0], x[0, 0], y[0, 0], g[0, 0])


def _mixed(w: np.ndarray, a: np.ndarray, after, more: Callable) -> np.ndarray:
    """more(w @ a) where `after` is False, w @ more(a) where it is True, and
    under an (A, 1, 1) mask each member's own of the two."""
    if after is False:
        return more(w @ a)
    if after is True:
        return w @ more(a)
    m = w @ np.where(after, more(a), a)
    return np.where(after, m, more(m))


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
# iterations a batch steps per `step` call
_CHUNK = 64


def _norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each a[j, i], bit for bit: a 1 x m @ m x 1 matmul
    slice runs the same ddot over the raveled block."""
    flat = a.reshape(a.shape[0] * a.shape[1], 1, -1)
    return np.sqrt(np.matmul(flat, flat.reshape(len(flat), -1, 1))).reshape(a.shape[:2])


class _Member:
    """One run of a lockstep call: its method, step size, sequence, rule and
    group, its rows of series (row i one series, column k iteration k), its
    last iterate's index, how it ended, and its history under record_states."""

    def __init__(self, algorithm: str, alpha: float, seq: GraphSequence, rule,
                 iterations: int, record_states: bool):
        self.algorithm, self.alpha, self.seq, self.rule = algorithm, alpha, seq, rule
        self.method = METHODS[algorithm]
        self.rows = np.empty((len(_SERIES), iterations + 1))
        self.k, self.terminated, self.group = 0, None, None
        self.states = [] if record_states else None
        self.mixers = [] if record_states else None


class _Batch:
    """The live members of a `run` call, stepped as one `step` call per
    chunk through the preset named for the first member; every series of a
    chunk is computed for all members at once, each value bit-equal to
    np.linalg.norm and consensus_violation on its own state. A member's
    first non-finite residual, or a push-sum breach before it, ends it."""

    def __init__(self, members: list[_Member], suite: ObjectiveSuite,
                 x0: np.ndarray, x_star: np.ndarray, r0: float, audit: bool):
        self.members, self.x_star, self.r0, self.audit = members, x_star, r0, audit
        st = init(suite, x0)
        self.record(0, [np.repeat(a[None, None], len(members), axis=1)
                        for a in (st.u, st.v, st.x, st.y, st.grad)], None, {})

    def advance(self, k0: int, k1: int, suite: ObjectiveSuite,
                v_floor: float | None) -> None:
        """Step iterations k0 + 1 .. k1 on the chunk each member's group
        served, stacked once per group, and record them."""
        live = self.members
        alphas = tuple([m.alpha / math.sqrt(k + 1) for k in range(k0, k1)]
                       if m.method.diminishing else m.alpha for m in live)
        stacks = {group: group.stack() for group in {m.group for m in live}}
        # looked up per call, so a rebound module name takes effect
        preset = globals()[live[0].algorithm.replace("-", "_") + "_step"]
        before = self.state.grad
        iterates, ends = preset(self.state, tuple(stacks[m.group] for m in live), suite,
                                alphas, v_floor=v_floor, methods=tuple(m.method for m in live))
        self.record(k0 + 1, iterates, before, ends)

    def record(self, k: int, iterates, before: np.ndarray | None, ends: dict) -> None:
        """Write every series of the members' iterates k, k + 1, ... (the
        (u, v, x, y, grad) buffers `step` gives), each member's up to its
        first non-finite residual or the breach `ends` gives, and under
        record_states the matrices its group served. `before` holds the
        gradients of iterate k - 1, None for k = 0."""
        u, v, x, y, g = iterates
        live = self.members
        c, size, n = x.shape[:3]
        push = np.array([m.method.push for m in live])
        tracking = np.array([m.method.tracking for m in live])
        block = np.empty((len(_SERIES) if self.audit else len(SERIES), c, size))
        q = _norms(x - self.x_star)
        block[0] = residual = q / self.r0 if self.r0 > 0 else q
        block[1] = _norms(x - x.sum(axis=2, keepdims=True) / n)
        if tracking.any():   # y / v is y where v = 1 exactly, without push-sum
            y_read = y / v[..., None] if push.any() else y
            block[2] = _norms(y_read - y_read.sum(axis=2, keepdims=True) / n)
            block[3] = _norms(y.sum(axis=2) - g.sum(axis=2))
        block[4] = v.min(axis=2)
        # NaN where a member has no such series
        block[2:5] = np.where(np.array([~tracking, ~tracking, ~push])[:, None], np.nan,
                              block[2:5])
        if self.audit:
            z = np.empty_like(g)   # np.diff's differences, z(0) = 0
            np.subtract(g[1:], g[:-1], out=z[1:])
            z[0] = 0.0 if before is None else g[0] - before
            block[5], block[6], block[7] = q, _norms(z), _norms(g)
        finite = np.isfinite(residual)
        keep = []
        for a, m in enumerate(live):
            m.rows[:len(block), k:k + c] = block[:, :, a]
            count = ends[a][0] if a in ends else c
            bad = np.flatnonzero(~finite[:count, a])
            count = int(bad[0]) + 1 if bad.size else count
            m.k = k + count - 1
            if m.states is not None:
                m.states += [State(k + j, *(b[j, a] for b in iterates)) for j in range(count)]
                m.mixers += m.group.matrices()[:count]
            if bad.size:
                m.terminated = f"residual is not finite at iteration {m.k}"
            elif a in ends:
                m.terminated = str(ends[a][1])
            keep.append(not bad.size and a not in ends)
        if not all(keep):
            self.members = [m for m, kept in zip(live, keep) if kept]
        self.state = State(k + c - 1, *(b[-1, keep] if not all(keep) else b[-1]
                                        for b in iterates))


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
    """The members on one sequence and rule: the rule, a method whose
    certificate modes they all step on (they share push-sum, as they share
    a sequence), its last matrix, and the chunk being served, as runs
    (matrix, snapshots, lo, hi) of consecutive slices of one build."""

    __slots__ = ("rule", "method", "mat", "runs")

    def __init__(self, rule, method: Method):
        self.rule, self.method, self.mat, self.runs = rule, method, None, []

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
                return self.take(i, hi, drawn)
            j = self.mat.source[1]
            self.take(j, j + 1, {j: self.mat.snapshot})

    def take(self, lo: int, hi: int, snaps) -> None:
        """Slices lo .. hi - 1 of the last matrix's build (`snaps[i]` the
        snapshot of slice i), refused unless their decisive report certifies
        a mode the members step on."""
        self.runs.append((self.mat, snaps, lo, hi))
        _require(self.method, self.mat.source[0][1].decisive(lo, hi))

    def stack(self) -> np.ndarray:
        """Every iteration's entries as one (iterations, n, n) array: a view
        of the build when one run lies within it, a C-ordered copy else."""
        parts = [built[lo:hi] if hi <= len(built) else built[np.arange(lo, hi) % len(built)]
                 for built, lo, hi in ((m.source[0][0], lo, hi) for m, _, lo, hi in self.runs)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def matrices(self) -> list[MixingMatrix]:
        """One MixingMatrix per iteration, as its rule gives it."""
        out = []
        for mat, snaps, lo, hi in self.runs:
            size = len(mat.source[0][0])
            out += [mat.sibling(i % size, snaps[i % size]) for i in range(lo, hi)]
        return out

    def built_on(self, block) -> bool:
        """Whether the last matrix is a slice of a build kept on `block`."""
        mat = self.mat
        return mat is not None and any(b is mat.source[0] for b in block.built.values())


def _plan(members: list[_Member]) -> dict[GraphSequence, dict]:
    """The members' groups by sequence, then by rule, in member order; each
    member is told its group."""
    plan: dict = {}
    for m in members:
        groups = plan.setdefault(m.seq, {})
        m.group = groups.setdefault(m.rule, _Group(m.rule, m.method))
    return plan


def _serve(seq: GraphSequence, groups: list[_Group], k0: int, k1: int) -> None:
    """Serve each group iterations k0 .. k1 - 1, reading the snapshot at the
    first iteration of each block's segment; a periodic sequence's one block
    serves the rest of the chunk."""
    for group in groups:
        group.runs = []
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

    `alpha`, positive and finite, is the fixed step size; a diminishing
    method reads it as the scale a of alpha_k = a / sqrt(k+1). `algorithm`,
    `seq`, `rule` and `alpha` may each be a tuple (of equal length when
    several are): one member runs per entry and a tuple of traces comes
    back, each equal to that member's own `run`. Every member shares the
    other inputs. The run goes `_CHUNK` iterations at a time: each distinct
    sequence serves the chunk's matrices once per distinct rule on it,
    refusing a run its members cannot step on, and all live members then
    step the chunk as one batch, in one `step` call on state of shape
    (members, n, p). A block's rule is asked once, and its other slices read
    from that build; a matrix not built on the block (a custom one, or one
    built on another block) is asked for at every slice. `input_problems`
    lists what else `run` rejects with a ValueError. `rule` maps a snapshot
    to a MixingMatrix. `v_floor` is the fatal lower bound on push-sum
    weights; methods without push ignore it. When `x0` is None the run
    starts from zeros; the string "random" draws a standard normal block
    from `seed`. A push-sum violation or the first non-finite residual ends
    a member early, the others going on; that row is kept and
    `metadata["terminated"]` says why.
    """
    entries = _lockstep_members(algorithm=algorithm, alpha=alpha, seq=seq,
                                rule=rule)
    for algo, a, member_seq, _ in entries:
        problems = input_problems(algo, member_seq, suite)
        if problems:
            raise ValueError(problems[0])
        _require_step_size(a)
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
    members = [_Member(algo, a, member_seq, member_rule, iterations, record_states)
               for algo, a, member_seq, member_rule in entries]
    plan = _plan(members)
    # a diverging run overflows on its way to the first non-finite residual,
    # where that member stops and says so
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _Batch(members, suite, x0, x_star, r0, record_audit)
        for k0 in range(0, iterations, _CHUNK):
            live = {m.group for m in batch.members}   # a group left keeps its last matrix
            if not live:
                break
            for member_seq, groups in plan.items():
                if serving := [group for group in groups.values() if group in live]:
                    _serve(member_seq, serving, k0, min(k0 + _CHUNK, iterations))
            batch.advance(k0, min(k0 + _CHUNK, iterations), suite, v_floor)

    traces = []
    for m in members:
        kept = m.rows[:, :m.k + 1]
        audit = {}
        if record_audit:
            audit = dict(zip(AUDIT_SERIES, kept[len(SERIES):]), r0=r0,
                         xbar0_error=float(np.linalg.norm(x0.mean(axis=0) - x_star)))
        traces.append(RunTrace(
            k=np.arange(kept.shape[1]), **dict(zip(SERIES, kept)), **audit,
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
