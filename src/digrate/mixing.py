"""Mixing-matrix construction and consensus-contraction measurement.

Doubly stochastic rules (Metropolis, lazy Metropolis) serve undirected
snapshots; the out-degree rule builds column stochastic matrices for
directed snapshots. Every snapshot is a slice of a `GraphBlock`, and each
builder weighs and certifies the block's whole stack of adjacency matrices
at once (degrees being their row sums), keeping the result on the block;
a custom matrix is the one slice of a build of its own, and `constant_rule`
repeats one over each block it serves. Contraction is measured as the
largest singular value of the windowed product minus the uniform averaging
matrix, by LAPACK's SVD; a window whose union graph is not connected
contracts nothing and has delta = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .graphs import DIRECTED, UNDIRECTED, GraphSequence, GraphSnapshot

DOUBLY = "doubly"
COLUMN = "column"

STOCHASTICITY_TOL = 1e-12


@dataclass(frozen=True)
class StochasticityReport:
    """Certificate (ok=True) or violation report for row/column sums."""

    mode: str
    ok: bool
    max_deviation: float
    first_offender: tuple[str, int, float] | None = None  # (axis, index, deviation)
    violations: tuple[tuple[str, int, float], ...] = ()


@dataclass(frozen=True)
class MixingMatrix:
    """A certified n x n matrix: `entries` is read-only and checked where it
    is made, by `_build` for a rule's block or by `custom_mixing`. Every
    matrix records its `source`: the build it is a slice of, (stack,
    certificates), and the slice it is; a custom matrix is the one slice of
    a build of its own."""

    n: int
    entries: np.ndarray
    rule: str
    snapshot: GraphSnapshot | None
    certificate: StochasticityReport
    source: tuple[tuple[np.ndarray, Certificates], int] = field(compare=False,
                                                                repr=False)

    def sibling(self, i: int, snapshot: GraphSnapshot) -> MixingMatrix:
        """The matrix of slice i of the build this one is a slice of."""
        built = self.source[0]
        return MixingMatrix(self.n, built[0][i], self.rule, snapshot, built[1][i],
                            (built, i))


class Certificates:
    """The stochasticity reports of the slices of an (s, n, n) stack, each
    slice's verdict `ok` decided in one vectorized pass: a failing slice's
    report, with every violation, is made up front, a passing one's on its
    first read."""

    def __init__(self, mode: str, ok: np.ndarray, deviation: list[float],
                 failed: dict[int, StochasticityReport]):
        self.mode, self.ok, self._deviation, self._reports = mode, ok, deviation, failed
        self._failing = tuple(failed)

    def decisive(self, lo: int, hi: int) -> StochasticityReport:
        """The report that decides slices lo .. hi - 1: the first failing
        one's, else slice lo's."""
        return self[next((s for s in self._failing if lo <= s < hi), lo)]

    def __len__(self) -> int:
        return len(self._deviation)

    def __getitem__(self, s):
        if isinstance(s, slice):
            return [self[i] for i in range(len(self))[s]]
        s = range(len(self))[s]   # a negative index counts from the end
        if s not in self._reports:
            self._reports[s] = StochasticityReport(self.mode, True, self._deviation[s])
        return self._reports[s]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Certificates, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True)
class ContractionEstimate:
    """Finite-horizon supremum of the windowed consensus-contraction factor."""

    B: int
    horizon: int
    delta_empirical: float
    per_window: tuple[tuple[int, float], ...]  # (k, sigma_max of window ending at k)


def metropolis(snapshot: GraphSnapshot) -> MixingMatrix:
    """Metropolis weights: 1/(1+max(d_i,d_j)) on edges, diagonal completing
    each row to 1. Doubly stochastic; every nonzero entry is >= 1/n."""
    return _build(snapshot, "metropolis")


def lazy_metropolis(snapshot: GraphSnapshot) -> MixingMatrix:
    """Half-weight Metropolis variant: 1/(2 max(d_i,d_j)) on edges, so the
    diagonal stays at least 1/2."""
    return _build(snapshot, "lazy-metropolis")


def out_degree_column(snapshot: GraphSnapshot) -> MixingMatrix:
    """Column stochastic push-sum weights: column j holds 1/(out-degree + 1)
    on the diagonal (implicit self-arc) and on every arc j -> i."""
    return _build(snapshot, "out-degree-column")


def _metropolis_weights(adj: np.ndarray, lazy: bool) -> np.ndarray:
    """Metropolis weights of a boolean adjacency matrix, or of each matrix
    of an (s, n, n) stack."""
    d = adj.sum(axis=-1)
    m = np.maximum(d[..., :, None], d[..., None, :])   # max(d_i, d_j)
    # on the edges only: between two isolated vertices 2 max(d_i, d_j) is 0
    w = np.divide(1.0, 2 * m if lazy else 1 + m, out=np.zeros(adj.shape),
                  where=adj)
    _diagonal(w, 1.0 - w.sum(axis=-1))
    return w


def _out_degree_weights(adj: np.ndarray) -> np.ndarray:
    """Out-degree column weights of an arc matrix, or of each matrix of an
    (s, n, n) stack."""
    share = 1.0 / (adj.sum(axis=-1) + 1)
    # c[..., i, j] = share[..., j] on every arc j -> i, where adj.T holds
    c = np.where(adj.swapaxes(-1, -2), share[..., None, :], 0.0)
    _diagonal(c, share)
    return c


def _diagonal(m: np.ndarray, values: np.ndarray) -> None:
    """Write `values[..., i]` to m[..., i, i], whatever the memory order of
    m (np.where may return one in Fortran order)."""
    i = np.arange(m.shape[-1])
    m[..., i, i] = values


# rule -> (snapshot kind it serves, weights of an adjacency matrix or stack,
# mode, what the weights are called)
_RULES = {
    "metropolis": (UNDIRECTED, partial(_metropolis_weights, lazy=False), DOUBLY,
                   "Metropolis weights"),
    "lazy-metropolis": (UNDIRECTED, partial(_metropolis_weights, lazy=True),
                        DOUBLY, "lazy Metropolis weights"),
    "out-degree-column": (DIRECTED, _out_degree_weights, COLUMN,
                          "out-degree weights"),
}


def _build(snapshot: GraphSnapshot, rule: str) -> MixingMatrix:
    """The rule's certified matrix for one snapshot, a read-only slice of
    its block's stack: the whole block is built and certified on its first
    request for the rule, and the build, (stack, certificates), is kept on
    the block and recorded as the matrix's source."""
    kind, weights, mode, name = _RULES[rule]
    if snapshot.kind != kind:
        raise ValueError(f"{name} need {'an' if kind == UNDIRECTED else 'a'} "
                         f"{kind} snapshot")
    block, i = snapshot.block
    built = block.built.get(rule)
    if built is None:
        stack = weights(block.adj)
        # certified as the weights return it, then kept in C order (np.where
        # may return a Fortran-ordered stack) so a slice steps as a copy would
        certificates = _certify(stack, mode)
        stack = np.ascontiguousarray(stack)
        stack.flags.writeable = False
        built = block.built[rule] = (stack, certificates)
    return MixingMatrix(snapshot.n, built[0][i], rule, snapshot, built[1][i],
                        (built, i))


def _certify(stack: np.ndarray, mode: str) -> Certificates:
    """The stochasticity reports of the slices of an (s, n, n) stack: row
    sums (doubly) and column sums (both modes) against 1 within
    STOCHASTICITY_TOL absolute, and signs. One vectorized pass decides every
    slice; a failing slice gets the worst deviation and each offender, and a
    non-finite entry fails it with an infinite deviation, its row and column
    named first."""
    if mode not in (DOUBLY, COLUMN):
        raise ValueError(f"unknown stochasticity mode {mode!r}")
    checks = [("col", np.abs(stack.sum(axis=1) - 1.0))]
    if mode == DOUBLY:
        checks.insert(0, ("row", np.abs(stack.sum(axis=2) - 1.0)))
    max_dev = np.max([dev.max(axis=1) for _, dev in checks], axis=0)
    # a NaN reaches both the deviation and the minimum, an inf the deviation
    passes = (max_dev <= STOCHASTICITY_TOL) & (stack.min(axis=(1, 2)) >= 0)
    passes.flags.writeable = False
    deviation = max_dev.tolist()
    failed = {}
    for s in np.flatnonzero(~passes).tolist():
        m, d = stack[s], deviation[s]
        violations = []
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0].tolist()
            violations += [("non-finite-row", i + 1, math.inf),
                           ("non-finite-col", j + 1, math.inf)]
            d = math.inf
        for axis, dev in checks:
            for idx in np.nonzero(dev[s] > STOCHASTICITY_TOL)[0]:
                violations.append((axis, int(idx) + 1, float(dev[s, idx])))
        if np.any(m < 0):
            idx = int(np.argmin(m.min(axis=1)))
            violations.append(("negative-row", idx + 1, float(-m.min())))
            d = max(d, float(-m.min()))
        failed[s] = StochasticityReport(mode, False, d, violations[0],
                                        tuple(violations))
    return Certificates(mode, passes, deviation, failed)


def custom_mixing(entries: np.ndarray, mode: str,
                  snapshot: GraphSnapshot | None = None) -> MixingMatrix:
    """Wrap a read-only copy of an externally supplied matrix, the one slice
    of a build of its own, validating the requested stochasticity; raises
    if the certificate fails."""
    entries = np.array(entries, dtype=float)
    entries.flags.writeable = False
    stack = _one_slice(entries)
    certificates = _certify(stack, mode)
    report = certificates[0]
    if not report.ok:
        axis, idx, dev = report.first_offender
        if axis == "non-finite-row":
            col = report.violations[1][1]
            raise ValueError(f"custom matrix entry ({idx}, {col}) is not finite")
        raise ValueError(f"custom matrix is not {mode} stochastic: "
                         f"{axis} {idx} off by {dev:.3e}")
    return MixingMatrix(len(entries), entries, "custom", snapshot, report,
                        ((stack, certificates), 0))


def constant_rule(mat: MixingMatrix):
    """A rule giving `mat` at every snapshot, as a slice of a build kept on
    the snapshot's block: a read-only np.broadcast_to of `mat` over the
    block's slices, certified on the block's first request, so `run` asks
    the rule once per block. `rule.matrix` is `mat`."""
    def rule(snapshot: GraphSnapshot) -> MixingMatrix:
        block, i = snapshot.block
        if rule not in block.built:
            stack = np.broadcast_to(mat.entries, (len(block.adj),) + mat.entries.shape)
            block.built[rule] = (stack, _certify(stack, mat.certificate.mode))
        built = block.built[rule]
        return MixingMatrix(mat.n, built[0][i], mat.rule, snapshot, built[1][i], (built, i))

    rule.matrix = mat
    return rule


def validate_stochasticity(matrix: np.ndarray | MixingMatrix,
                           mode: str) -> StochasticityReport:
    """The stochasticity report of one square matrix, as `_certify` gives it."""
    if isinstance(matrix, MixingMatrix):
        matrix = matrix.entries
    return _certify(_one_slice(matrix), mode)[0]


def _one_slice(matrix: np.ndarray) -> np.ndarray:
    """A square matrix as a (1, n, n) stack, a view where it can be."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("stochasticity check needs a square matrix")
    return m[None]


def averaging_gap(matrix: np.ndarray) -> np.ndarray:
    """The matrix minus uniform averaging, (1/n) * ones."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    return m - np.full((n, n), 1.0 / n)


def spectral_deviation(matrix: np.ndarray | MixingMatrix) -> float:
    """Largest singular value of (matrix - uniform averaging)."""
    if isinstance(matrix, MixingMatrix):
        matrix = matrix.entries
    return float(np.linalg.norm(averaging_gap(matrix), 2))


def window_product(seq: GraphSequence, rule, k: int, B: int) -> np.ndarray:
    """Product W(k) W(k-1) ... W(k-B+1) of per-snapshot mixing matrices."""
    if k < B - 1:
        raise ValueError("window extends before iteration 0")
    prod = rule(seq.snapshot(k)).entries.copy()
    for t in range(k - 1, k - B, -1):
        prod = prod @ rule(seq.snapshot(t)).entries
    return prod


def estimate_delta(seq: GraphSequence, rule, B: int, horizon: int) -> ContractionEstimate:
    """Supremum of spectral_deviation over all length-B windows whose
    snapshots lie in [0, horizon). A finite-horizon stand-in for the
    all-time supremum; exact for periodic sequences once the horizon covers
    a full period. A window whose union graph is not connected counts as
    1.0, which certifies nothing, without a product or an SVD. Each snapshot
    and its matrix is built once; windows share them."""
    if B < 1:
        raise ValueError("window length must be >= 1")
    if horizon < B:
        raise ValueError("horizon must cover at least one window")
    snaps = [seq.snapshot(t) for t in range(horizon)]
    mats = [rule(snap).entries for snap in snaps]
    per_window = []
    for k in range(B - 1, horizon):
        window = slice(k - B + 1, k + 1)
        union = np.logical_or.reduce([snap.adj for snap in snaps[window]])
        if GraphSnapshot(seq.n, seq.kind, union).is_connected():
            # W(k) W(k-1) ... W(k-B+1), multiplied as window_product does
            sigma = spectral_deviation(reduce(np.matmul, reversed(mats[window])))
        else:
            sigma = 1.0
        per_window.append((k, sigma))
    delta = max(v for _, v in per_window)
    return ContractionEstimate(B, horizon, delta, tuple(per_window))


def consensus_violation(x: np.ndarray) -> float:
    """Frobenius distance of the stacked iterate to the consensus subspace."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return float(np.linalg.norm(x - x.mean(axis=0, keepdims=True)))


def matrix_to_csv(matrix: np.ndarray | MixingMatrix) -> str:
    """Dense CSV dump, row-major, 17 significant digits."""
    if isinstance(matrix, MixingMatrix):
        matrix = matrix.entries
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in matrix) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = [[float(v) for v in line.split(",")]
            for line in text.strip().splitlines() if line.strip()]
    return np.array(rows, dtype=float)
