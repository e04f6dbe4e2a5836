"""Mixing-matrix construction and consensus-contraction measurement.

Doubly stochastic rules (Metropolis, lazy Metropolis) serve undirected
snapshots; the out-degree rule builds column stochastic matrices for
directed snapshots. Builders assemble each matrix from the snapshot's link
index arrays. Contraction is measured as the largest singular value of the
windowed product minus the uniform averaging matrix, by LAPACK's SVD; a
window whose union graph is not connected contracts nothing and has
delta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain

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
    n: int
    entries: np.ndarray
    rule: str
    snapshot: GraphSnapshot | None = None
    certificate: StochasticityReport | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {e.shape}")
        if np.any(e < 0):
            raise ValueError("mixing weights must be nonnegative")
        e = e.copy()
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)


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
    return _metropolis(snapshot, lazy=False)


def lazy_metropolis(snapshot: GraphSnapshot) -> MixingMatrix:
    """Half-weight Metropolis variant: 1/(2 max(d_i,d_j)) on edges, so the
    diagonal stays at least 1/2."""
    return _metropolis(snapshot, lazy=True)


def _link_index(snapshot: GraphSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based (first, second) endpoint arrays of the snapshot's links."""
    flat = np.fromiter(chain.from_iterable(snapshot.links), dtype=np.intp,
                       count=2 * len(snapshot.links)) - 1
    return flat[0::2], flat[1::2]


def _metropolis(snapshot: GraphSnapshot, lazy: bool) -> MixingMatrix:
    if snapshot.kind != UNDIRECTED:
        raise ValueError(("lazy " if lazy else "")
                         + "Metropolis weights need an undirected snapshot")
    n = snapshot.n
    a, b = _link_index(snapshot)
    d = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    m = np.maximum(d[a], d[b])
    v = 1.0 / (2 * m) if lazy else 1.0 / (1 + m)
    w = np.zeros((n, n))
    w[a, b] = v
    w[b, a] = v
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix(n, w, "lazy-metropolis" if lazy else "metropolis",
                        snapshot, validate_stochasticity(w, DOUBLY))


def out_degree_column(snapshot: GraphSnapshot) -> MixingMatrix:
    """Column stochastic push-sum weights: column j holds 1/(out-degree + 1)
    on the diagonal (implicit self-arc) and on every arc j -> i."""
    if snapshot.kind != DIRECTED:
        raise ValueError("out-degree weights need a directed snapshot")
    n = snapshot.n
    tail, head = _link_index(snapshot)
    share = 1.0 / (np.bincount(tail, minlength=n) + 1)
    c = np.zeros((n, n))
    np.fill_diagonal(c, share)
    c[head, tail] = share[tail]
    return MixingMatrix(n, c, "out-degree-column", snapshot,
                        validate_stochasticity(c, COLUMN))


def custom_mixing(entries: np.ndarray, mode: str,
                  snapshot: GraphSnapshot | None = None) -> MixingMatrix:
    """Wrap an externally supplied matrix, validating the requested
    stochasticity; raises if the certificate fails."""
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[0]
    report = validate_stochasticity(entries, mode)
    if not report.ok:
        axis, idx, dev = report.first_offender
        raise ValueError(f"custom matrix is not {mode} stochastic: "
                         f"{axis} {idx} off by {dev:.3e}")
    return MixingMatrix(n, entries, "custom", snapshot, report)


def validate_stochasticity(matrix: np.ndarray | MixingMatrix, mode: str,
                           tol: float = STOCHASTICITY_TOL) -> StochasticityReport:
    """Check row sums (doubly), column sums (both modes) against 1 within
    `tol` absolute, reporting the worst deviation and each offender."""
    if isinstance(matrix, MixingMatrix):
        matrix = matrix.entries
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("stochasticity check needs a square matrix")
    if mode not in (DOUBLY, COLUMN):
        raise ValueError(f"unknown stochasticity mode {mode!r}")
    checks = [("col", m.sum(axis=0))]
    if mode == DOUBLY:
        checks.insert(0, ("row", m.sum(axis=1)))
    violations = []
    max_dev = 0.0
    first = None
    for axis, sums in checks:
        dev = np.abs(sums - 1.0)
        max_dev = max(max_dev, float(dev.max()))
        for idx in np.nonzero(dev > tol)[0]:
            entry = (axis, int(idx) + 1, float(dev[idx]))
            violations.append(entry)
            if first is None:
                first = entry
    if np.any(m < 0):
        idx = int(np.argmin(m.min(axis=1)))
        entry = ("negative-row", idx + 1, float(-m.min()))
        violations.append(entry)
        first = first or entry
        max_dev = max(max_dev, float(-m.min()))
    return StochasticityReport(mode, not violations, max_dev, first, tuple(violations))


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
        links = frozenset().union(*(snap.links for snap in snaps[window]))
        if GraphSnapshot(seq.n, seq.kind, links).is_connected():
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
