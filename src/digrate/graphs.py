"""Time-varying communication graphs for multi-agent simulations.

Vertices are labeled 1..n and fixed over time; only the link set changes.
A sequence is a pure function of (iteration, seed), so any snapshot can be
regenerated at random access without replaying the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

import numpy as np

UNDIRECTED = "undirected"
DIRECTED = "directed"

Link = tuple[int, int]


@dataclass(frozen=True)
class GraphSnapshot:
    """One communication round: an edge set (undirected) or arc set (directed).

    Links are stored canonically: undirected pairs as (min, max), directed
    arcs as (tail, head) meaning tail -> head. Self-loops are excluded.
    """

    n: int
    kind: str
    links: frozenset[Link]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        if self.kind not in (UNDIRECTED, DIRECTED):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        for j, i in self.links:
            if not (1 <= j <= self.n and 1 <= i <= self.n):
                raise ValueError(f"link ({j},{i}) leaves vertex range 1..{self.n}")
            if j == i:
                raise ValueError(f"self-loop ({j},{i}) not allowed")
            if self.kind == UNDIRECTED and j > i:
                raise ValueError(f"undirected link ({j},{i}) not canonical (min,max)")

    def degrees(self) -> np.ndarray:
        """Vertex degrees, index 0 holding vertex 1."""
        if self.kind != UNDIRECTED:
            raise ValueError("degrees() is for undirected snapshots")
        d = np.zeros(self.n, dtype=int)
        for a, b in self.links:
            d[a - 1] += 1
            d[b - 1] += 1
        return d

    def out_degrees(self) -> np.ndarray:
        """Out-degrees (self-arc not counted), index 0 holding vertex 1."""
        if self.kind != DIRECTED:
            raise ValueError("out_degrees() is for directed snapshots")
        d = np.zeros(self.n, dtype=int)
        for j, _ in self.links:
            d[j - 1] += 1
        return d

    def as_directed(self) -> "GraphSnapshot":
        """Replace each undirected edge by the two opposite arcs."""
        if self.kind == DIRECTED:
            return self
        arcs = set()
        for a, b in self.links:
            arcs.add((a, b))
            arcs.add((b, a))
        return GraphSnapshot(self.n, DIRECTED, frozenset(arcs))

    def as_undirected(self) -> "GraphSnapshot":
        """Forget arc directions (antiparallel arcs collapse to one edge)."""
        if self.kind == UNDIRECTED:
            return self
        return undirected(self.n, ((min(j, i), max(j, i)) for j, i in self.links))

    def is_connected(self) -> bool:
        """Connected (undirected) or strongly connected (directed): vertex 1
        reaches every vertex along the links and, for arcs, also against
        them."""
        back = [(i, j) for j, i in self.links]
        if self.kind == UNDIRECTED:
            return _reaches_all(self.n, chain(self.links, back))
        return _reaches_all(self.n, self.links) and _reaches_all(self.n, back)


def undirected(n: int, edges: Iterable[Link]) -> GraphSnapshot:
    """Build an undirected snapshot, canonicalizing and deduplicating edges."""
    canon = frozenset((int(min(a, b)), int(max(a, b))) for a, b in edges)
    return GraphSnapshot(int(n), UNDIRECTED, canon)


def directed(n: int, arcs: Iterable[Link]) -> GraphSnapshot:
    """Build a directed snapshot from (tail, head) arcs."""
    return GraphSnapshot(int(n), DIRECTED,
                         frozenset((int(j), int(i)) for j, i in arcs))


def empty_snapshot(n: int, kind: str = UNDIRECTED) -> GraphSnapshot:
    return GraphSnapshot(n, kind, frozenset())


def _reaches_all(n: int, arcs: Iterable[Link]) -> bool:
    """Whether a search from vertex 1 along (tail, head) arcs reaches all n
    vertices."""
    out: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for j, i in arcs:
        out[j].append(i)
    seen = {1}
    frontier = [1]
    while frontier:
        for w in out[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


@dataclass(frozen=True)
class GraphSequence:
    """Seeded map from iteration index k to a graph snapshot.

    The generator must be pure: the same (k, seed) always yields the same
    snapshot, in this process or any other.
    """

    n: int
    kind: str
    generator: Callable[[int, int], GraphSnapshot]
    seed: int = 0
    declared_B: int | None = None
    description: str = ""

    def snapshot(self, k: int) -> GraphSnapshot:
        if k < 0:
            raise ValueError("iteration index must be nonnegative")
        snap = self.generator(k, self.seed)
        if snap.n != self.n or snap.kind != self.kind:
            raise ValueError("generator produced a snapshot of mismatched shape")
        return snap


@dataclass(frozen=True)
class ConnectivityCheck:
    """Outcome of a joint-connectivity scan over aligned windows."""

    ok: bool
    first_failure: int | None  # window index t of the first failing union


def union_graph(seq: GraphSequence, k: int, b: int) -> GraphSnapshot:
    """Union of the link sets of snapshots k .. k+b-1."""
    if b < 1:
        raise ValueError("window length must be >= 1")
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    links: set[Link] = set()
    for t in range(k, k + b):
        links |= seq.snapshot(t).links
    return GraphSnapshot(seq.n, seq.kind, frozenset(links))


def is_jointly_connected(seq: GraphSequence, B: int, horizon: int) -> ConnectivityCheck:
    """Check that every aligned window [tB, tB+B-1] inside [0, horizon) has a
    connected union (strongly connected for directed sequences)."""
    if B < 1:
        raise ValueError("window length must be >= 1")
    if horizon < B:
        raise ValueError("horizon must cover at least one window")
    for t in range(horizon // B):
        if not union_graph(seq, t * B, B).is_connected():
            return ConnectivityCheck(False, t)
    return ConnectivityCheck(True, None)


def static_sequence(snap: GraphSnapshot, description: str = "static") -> GraphSequence:
    return GraphSequence(snap.n, snap.kind, lambda k, seed: snap, seed=0,
                         declared_B=1 if snap.is_connected() else None,
                         description=description)


def periodic_sequence(snaps: list[GraphSnapshot], declared_B: int | None = None,
                      description: str = "periodic") -> GraphSequence:
    """Cycle through the given snapshots with period len(snaps)."""
    if not snaps:
        raise ValueError("need at least one snapshot")
    n, kind = snaps[0].n, snaps[0].kind
    if any(s.n != n or s.kind != kind for s in snaps):
        raise ValueError("snapshots must share vertex count and kind")
    frozen = list(snaps)
    return GraphSequence(n, kind, lambda k, seed: frozen[k % len(frozen)], seed=0,
                         declared_B=declared_B, description=description)


def subsample_sequence(base: GraphSnapshot, fraction: float, seed: int,
                       description: str | None = None) -> GraphSequence:
    """Retain each base link independently with the given probability.

    Draws are keyed by (seed, k) and by the link's position in canonical
    order, so snapshots are random-access reproducible.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(base.links)

    def gen(k: int, s: int) -> GraphSnapshot:
        if fraction == 1.0:
            return base
        u = np.random.default_rng((s, k)).uniform(size=len(ordered))
        kept = (link for link, r in zip(ordered, u) if r < fraction)
        return GraphSnapshot(base.n, base.kind, frozenset(kept))

    if description is None:
        description = f"subsample({fraction:g}) of {base.kind} base with {len(ordered)} links"
    return GraphSequence(base.n, base.kind, gen, seed=seed, description=description)


def random_spanning_tree(n: int, seed: int) -> GraphSnapshot:
    """Uniform-ish random tree: attach each vertex (in random order) to a
    random earlier vertex."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n) + 1
    edges = []
    for idx in range(1, n):
        parent = order[rng.integers(0, idx)]
        edges.append((order[idx], parent))
    return undirected(n, ((min(a, b), max(a, b)) for a, b in edges))


def random_connected_graph(n: int, extra_edges: int, seed: int) -> GraphSnapshot:
    """Random spanning tree plus `extra_edges` distinct random non-tree edges."""
    tree = random_spanning_tree(n, seed)
    rng = np.random.default_rng((seed, 1))
    candidates = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                  if (a, b) not in tree.links]
    extra_edges = min(extra_edges, len(candidates))
    if extra_edges:
        picked = rng.choice(len(candidates), size=extra_edges, replace=False)
        extra = [candidates[i] for i in picked]
    else:
        extra = []
    return undirected(n, set(tree.links) | set(extra))


def random_strongly_connected_digraph(n: int, m: int, seed: int) -> GraphSnapshot:
    """Random digraph with exactly m arcs, strongly connected by construction:
    a random directed Hamiltonian cycle plus m-n distinct random arcs."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if m < n:
        raise ValueError(f"strong connectivity needs m >= n arcs, got m={m}")
    if m > n * (n - 1):
        raise ValueError(f"m={m} exceeds the {n * (n - 1)} arcs a simple digraph on "
                         f"{n} vertices can hold")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n) + 1
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    candidates = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                  if j != i and (j, i) not in arcs]
    need = m - n
    if need:
        picked = rng.choice(len(candidates), size=need, replace=False)
        arcs |= {candidates[i] for i in picked}
    return directed(n, arcs)


def block_connected_sequence(n: int, b_tilde: int, seed: int,
                             extra_edges: int = 0) -> GraphSequence:
    """Random sequence that is jointly connected over every aligned window of
    length b_tilde: per block, the edges of a random connected graph are
    scattered across the block's slots."""
    if b_tilde < 1:
        raise ValueError("window length must be >= 1")

    def gen(k: int, s: int) -> GraphSnapshot:
        t = k // b_tilde
        base = random_connected_graph(n, extra_edges, seed=_mix(s, t))
        ordered = sorted(base.links)
        slots = np.random.default_rng((s, t, 2)).integers(0, b_tilde, size=len(ordered))
        r = k - t * b_tilde
        return undirected(n, (e for e, sl in zip(ordered, slots) if sl == r))

    return GraphSequence(n, UNDIRECTED, gen, seed=seed, declared_B=b_tilde,
                         description=f"block-connected(n={n}, window={b_tilde})")


def _mix(seed: int, t: int) -> int:
    # distinct deterministic sub-seed per block
    return int(np.random.SeedSequence((seed, t)).generate_state(1)[0])


def snapshot_to_text(snap: GraphSnapshot) -> str:
    """Edge-list serialization: header `n=<n> kind=<kind>`, then one link per
    line, `j i` for edges or `j>i` for arcs."""
    lines = [f"n={snap.n} kind={snap.kind}"]
    sep = ">" if snap.kind == DIRECTED else " "
    for a, b in sorted(snap.links):
        lines.append(f"{a}{sep}{b}")
    return "\n".join(lines) + "\n"


def snapshot_from_text(text: str) -> GraphSnapshot:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty snapshot text")
    header = lines[0].split()
    try:
        n = int(header[0].removeprefix("n="))
        kind = header[1].removeprefix("kind=")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed snapshot header: {lines[0]!r}") from exc
    links = []
    for ln in lines[1:]:
        if kind == DIRECTED:
            a, b = ln.split(">")
        else:
            a, b = ln.split()
        links.append((int(a), int(b)))
    if kind == UNDIRECTED:
        return undirected(n, links)
    return directed(n, links)
