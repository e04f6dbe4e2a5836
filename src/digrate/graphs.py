"""Time-varying communication graphs for multi-agent simulations.

Vertices are labeled 1..n and fixed over time; only the link set, an n x n
boolean adjacency matrix, changes. A sequence is a pure function of
(iteration, seed), served one way: `GraphSequence` draws a block of
consecutive snapshots on its first touch and keeps it. Every block is one
`GraphBlock`, a read-only stack of adjacency matrices that the mixing rules
build and certify as a whole, each slice made into a snapshot when read: a
static or periodic sequence stacks its period, repeated to `_BLOCK` slices
or more, into one block, a subsample or block-connected sequence draws each
block, and a directed view's block is the directed twin of its base's
block. A snapshot built on its own is the one slice of a block of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from . import streams

UNDIRECTED = "undirected"
DIRECTED = "directed"

Link = tuple[int, int]

# iterations of an (aligned) subsample block, and the fewest a periodic one holds
_BLOCK = 64
# draw blocks of a block-connected sequence drawn in one pass
_BATCH = 16


@dataclass(frozen=True, eq=False)
class GraphBlock:
    """Snapshots as one (s, n, n) boolean stack checked once and made
    read-only here, slice i the adjacency matrix of iteration i (s = 1 for
    a snapshot built on its own), made a snapshot by `block[i]` on each
    read. Mixing rules build and certify the whole stack on their first
    request and keep it in `built`, keyed by rule; blocks compare by identity."""

    kind: str
    adj: np.ndarray
    built: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in (UNDIRECTED, DIRECTED):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        adj = self.adj
        if (not isinstance(adj, np.ndarray) or adj.dtype != bool or adj.ndim != 3
                or adj.shape[1] != adj.shape[2]):
            raise ValueError("adjacency stack must be an (s, n, n) boolean array")
        loops = np.nonzero(adj.diagonal(axis1=1, axis2=2))[1]
        if loops.size:
            raise ValueError(f"self-loop at vertex {loops[0] + 1} not allowed")
        # a byte comparison is several times cheaper than an elementwise one
        # at the sizes simulated here
        if self.kind == UNDIRECTED and adj.swapaxes(1, 2).tobytes() != adj.tobytes():
            raise ValueError("undirected adjacency must be symmetric")
        adj.flags.writeable = False

    def __len__(self) -> int:
        return len(self.adj)

    def __getitem__(self, i: int) -> "GraphSnapshot":
        return GraphSnapshot(self.adj.shape[1], self.kind,
                             block=(self, range(len(self.adj))[i]))

    @functools.cached_property
    def directed(self) -> "GraphBlock":
        """The same stack read as arcs, with builds of its own."""
        return self if self.kind == DIRECTED else GraphBlock(DIRECTED, self.adj)


@dataclass(frozen=True)
class GraphSnapshot:
    """One communication round as an n x n boolean adjacency matrix:
    adj[j-1, i-1] is the arc j -> i between the 1-based vertices j and i,
    symmetric for an undirected snapshot, with an empty diagonal (no
    self-loops). `block` is (GraphBlock, slice), the block the snapshot was
    drawn in, and `adj` is that read-only slice itself, neither copied nor
    checked again. A snapshot given a matrix instead copies it into slice 0
    of a one-slice block of its own, checked as every block is. Equality
    and hashing go by value, through the matrix's bytes."""

    n: int
    kind: str
    adj: np.ndarray | None = field(default=None, compare=False)
    adj_bytes: bytes = field(init=False, repr=False)
    block: tuple[GraphBlock, int] | None = field(default=None, compare=False,
                                                 repr=False)

    def __post_init__(self):
        if self.block is None:
            adj = self.adj
            if self.n < 1:
                raise ValueError(f"vertex count must be positive, got {self.n}")
            if (not isinstance(adj, np.ndarray) or adj.dtype != bool
                    or adj.shape != (self.n, self.n)):
                raise ValueError(f"adjacency must be a {self.n}x{self.n} boolean array")
            object.__setattr__(self, "block", (GraphBlock(self.kind, adj[None].copy()), 0))
        elif self.adj is not None:
            raise ValueError("a block's snapshot reads its matrix from the block")
        block, i = self.block
        if block.kind != self.kind or block.adj.shape[1] != self.n:
            raise ValueError("snapshot differs from its block's slice")
        adj = block.adj[i]
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "adj_bytes", adj.tobytes())

    @property
    def links(self) -> frozenset[Link]:
        """The links as 1-based pairs, for serialization and tests: edges
        as (min, max), arcs as (tail, head)."""
        a, b = _link_arrays(self)
        return frozenset(zip((a + 1).tolist(), (b + 1).tolist()))

    def as_directed(self) -> "GraphSnapshot":
        """Replace each undirected edge by the two opposite arcs."""
        if self.kind == DIRECTED:
            return self
        block, i = self.block
        return GraphSnapshot(self.n, DIRECTED, block=(block.directed, i))

    def as_undirected(self) -> "GraphSnapshot":
        """Forget arc directions (antiparallel arcs collapse to one edge)."""
        if self.kind == UNDIRECTED:
            return self
        return GraphSnapshot(self.n, UNDIRECTED, self.adj | self.adj.T)

    def is_connected(self) -> bool:
        """Connected (undirected) or strongly connected (directed): vertex 1
        reaches every vertex along the links and, for arcs, also against
        them."""
        if self.kind == UNDIRECTED:
            return _reaches_all(self.adj)
        return _reaches_all(self.adj) and _reaches_all(self.adj.T)


def _link_arrays(snap: GraphSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based endpoint arrays of the links in row-major order: each edge
    once as (min, max), each arc as (tail, head)."""
    rows, cols = np.nonzero(snap.adj)
    keep = rows < cols if snap.kind == UNDIRECTED else slice(None)
    return rows[keep], cols[keep]


def _adjacency(shape: tuple[int, ...], kind: str,
               index: tuple[np.ndarray, ...]) -> np.ndarray:
    """Boolean array of `shape`, an (n, n) matrix or an (s, n, n) stack,
    true at `index`, whose last two arrays are the zero-based link ends
    (rows, cols); mirrored for an undirected kind."""
    adj = np.zeros(shape, dtype=bool)
    adj[index] = True
    if kind == UNDIRECTED:
        *slots, rows, cols = index
        adj[(*slots, cols, rows)] = True
    return adj


def _from_links(n: int, kind: str, links: Iterable[Link]) -> GraphSnapshot:
    """Snapshot from 1-based (j, i) pairs; every label is checked before it
    indexes the matrix, so 0 or a negative label cannot wrap to vertex n."""
    n = int(n)
    pairs = list(links)
    ends = np.array(pairs) if pairs else np.empty((0, 2), dtype=np.intp)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("links must be (j, i) pairs of vertex labels")
    if ends.dtype.kind not in "iu":
        raise ValueError(f"link endpoints must be integer vertex labels in 1..{n}")
    outside = np.flatnonzero(((ends < 1) | (ends > n)).any(axis=1))
    if outside.size:
        j, i = ends[outside[0]].tolist()
        raise ValueError(f"link ({j},{i}) leaves vertex range 1..{n}")
    return GraphSnapshot(n, kind, _adjacency((n, n), kind,
                                             (ends[:, 0] - 1, ends[:, 1] - 1)))


def undirected(n: int, edges: Iterable[Link]) -> GraphSnapshot:
    """Build an undirected snapshot; (a, b) and (b, a) name the same edge and
    repeats collapse."""
    return _from_links(n, UNDIRECTED, edges)


def directed(n: int, arcs: Iterable[Link]) -> GraphSnapshot:
    """Build a directed snapshot from (tail, head) arcs."""
    return _from_links(n, DIRECTED, arcs)


def empty_snapshot(n: int, kind: str = UNDIRECTED) -> GraphSnapshot:
    return GraphSnapshot(n, kind, np.zeros((n, n), dtype=bool))


def _reaches_all(adj: np.ndarray) -> bool:
    """Whether vertex 1 reaches every vertex along the arcs of `adj`; n - 1
    steps from it cover every shortest path."""
    seen = np.eye(len(adj), dtype=bool)[0]
    for _ in range(len(adj) - 1):
        seen = seen | (seen @ adj)
    return bool(seen.all())


@dataclass(frozen=True)
class GraphSequence:
    """Seeded map from iteration index k to a graph snapshot. Block t,
    iterations t * size .. t * size + size - 1, is draw(seed, t): a
    `GraphBlock` of `size` slices of the sequence's n and kind, checked on
    each draw. The draw must be pure: the same (seed, t) always yields the
    same stack, in this process or any other. The sequence keeps the last
    block it drew; a `dataclasses.replace` copy keeps its own."""

    n: int
    kind: str
    size: int
    draw: Callable[[int, int], GraphBlock]
    seed: int = 0
    declared_B: int | None = None
    description: str = ""
    # {t: block t}, the last block drawn
    kept: dict = field(default_factory=dict, init=False, compare=False,
                       repr=False)

    def snapshot(self, k: int) -> GraphSnapshot:
        if k < 0:
            raise ValueError("iteration index must be nonnegative")
        t, i = divmod(k, self.size)
        return self.snapshots(t)[i]

    def snapshots(self, t: int) -> GraphBlock:
        """Block t, drawn unless it is the block kept."""
        block = self.kept.get(t)
        if block is None:
            block = self.draw(self.seed, t)
            if (not isinstance(block, GraphBlock) or block.kind != self.kind
                    or block.adj.shape[:2] != (self.size, self.n)):
                raise ValueError(f"block {t} is not {self.size} {self.kind} "
                                 f"snapshots of {self.n} vertices")
            self.kept.clear()
            self.kept[t] = block
        return block


def directed_view(seq: GraphSequence) -> GraphSequence:
    """Each undirected edge becomes two opposite arcs, for push-sum rules:
    block t is the directed twin of the block t the base keeps."""
    if seq.kind == DIRECTED:
        return seq

    def draw(s: int, t: int) -> GraphBlock:
        base = seq if s == seq.seed else replace(seq, seed=s)
        return base.snapshots(t).directed

    return GraphSequence(seq.n, DIRECTED, seq.size, draw, seq.seed, seq.declared_B,
                         seq.description + " (directed view)")


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
    adj = np.logical_or.reduce([seq.snapshot(t).adj for t in range(k, k + b)])
    return GraphSnapshot(seq.n, seq.kind, adj)


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
    return periodic_sequence([snap], 1 if snap.is_connected() else None, description)


def periodic_sequence(snaps: list[GraphSnapshot], declared_B: int | None = None,
                      description: str = "periodic") -> GraphSequence:
    """Cycle through the given snapshots: their matrices, stacked in order
    and repeated ceil(`_BLOCK` / period) times into one `GraphBlock` here,
    serve every block."""
    if not snaps:
        raise ValueError("need at least one snapshot")
    n, kind = snaps[0].n, snaps[0].kind
    if any(s.n != n or s.kind != kind for s in snaps):
        raise ValueError("snapshots must share vertex count and kind")
    block = GraphBlock(kind, np.stack([s.adj for s in snaps] * -(-_BLOCK // len(snaps))))
    return GraphSequence(n, kind, len(block), lambda s, t: block, 0, declared_B,
                         description)


def subsample_sequence(base: GraphSnapshot, fraction: float, seed: int,
                       description: str | None = None) -> GraphSequence:
    """Retain each base link independently with the given probability.

    At iteration k, link t (in row-major order) is kept when the t-th uniform
    draw of default_rng((seed, k)) is below `fraction`, so snapshots are
    random-access reproducible. They are drawn a block of `_BLOCK`
    iterations at a time: the block's `(seed, k)` rows are hashed in one
    pass, and their PCG64 outputs computed in one more.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    rows, cols = _link_arrays(base)
    if description is None:
        description = f"subsample({fraction:g}) of {base.kind} base with {len(rows)} links"
    if fraction == 1.0:
        return replace(periodic_sequence([base], description=description), seed=seed)

    def draw(s: int, t: int) -> GraphBlock:
        ks = range(t * _BLOCK, (t + 1) * _BLOCK)
        raw = streams.outputs(streams.seed_state([(s, k) for k in ks], 8), len(rows))
        # uniform() is a raw output's top 53 bits times 2**-53
        link, slot = np.nonzero((raw >> 11) * 2.0 ** -53 < fraction)
        return GraphBlock(base.kind, _adjacency((_BLOCK, base.n, base.n), base.kind,
                                                (slot, rows[link], cols[link])))

    return GraphSequence(base.n, base.kind, _BLOCK, draw, seed, description=description)


def _connected_graphs(n: int, order: np.ndarray, j: np.ndarray,
                      picked: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based (min, max) edge ends of random connected graphs, as
    (graphs, edges) arrays in row-major order per graph. Graph g is a
    spanning tree, vertex order[g, i] (i >= 1) attached to order[g, j[g, i -
    1]], plus the non-tree edges (a, b), a < b, that `picked[g]` indexes in
    row-major order."""
    count = len(order)
    parents = np.take_along_axis(order, j, 1)
    graph = np.arange(count)[:, None]
    upper = np.zeros((count, n, n), dtype=bool)
    upper[graph, np.minimum(order[:, 1:], parents), np.maximum(order[:, 1:], parents)] = True
    if picked is not None:
        # each graph's non-tree edges as flat (a, b) positions, a < b
        free = np.flatnonzero(np.triu(~upper, 1)).reshape(count, -1) % (n * n)
        upper[(graph, *np.divmod(np.take_along_axis(free, picked, 1), n))] = True
    _, rows, cols = np.nonzero(upper)
    return rows.reshape(count, -1), cols.reshape(count, -1)


def _extra_edges(n: int, extra_edges: int) -> tuple[int, int]:
    """The non-tree edges of a connected graph on n >= 1 vertices, and how
    many of them it picks."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if extra_edges < 0:
        raise ValueError(f"extra edge count must be nonnegative, got {extra_edges}")
    free = n * (n - 1) // 2 - (n - 1)
    return free, min(extra_edges, free)


def random_spanning_tree(n: int, seed: int) -> GraphSnapshot:
    """Uniform-ish random tree: attach each vertex (in random order) to a
    random earlier vertex."""
    return random_connected_graph(n, 0, seed)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> GraphSnapshot:
    """Random spanning tree plus `extra_edges` distinct random non-tree
    edges. default_rng(seed) draws the tree, each vertex (in the order of
    `permutation(n)`) attached to an earlier one by `integers(0, arange(1,
    n))`; default_rng((seed, 1)) picks the extra edges by `choice(free, m,
    replace=False)` over the non-tree edges in row-major order."""
    free, m = _extra_edges(n, extra_edges)
    rng = np.random.default_rng((seed,))
    order = rng.permutation(n)
    j = rng.integers(0, np.arange(1, n))
    picked = None
    if m:
        picked = np.random.default_rng((seed, 1)).choice(free, m, replace=False)[None]
    rows, cols = _connected_graphs(n, order[None], j[None], picked)
    return GraphSnapshot(n, UNDIRECTED, _adjacency((n, n), UNDIRECTED, (rows[0], cols[0])))


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
    order = rng.permutation(n)
    adj = _adjacency((n, n), DIRECTED, (order, np.roll(order, -1)))
    # candidate arcs j -> i, j != i, off the cycle, in row-major order
    rows, cols = np.nonzero(~(adj | np.eye(n, dtype=bool)))
    picked = rng.choice(len(rows), size=m - n, replace=False)
    adj[rows[picked], cols[picked]] = True
    return GraphSnapshot(n, DIRECTED, adj)


def block_connected_sequence(n: int, b_tilde: int, seed: int,
                             extra_edges: int = 0) -> GraphSequence:
    """Random sequence that is jointly connected over every aligned window of
    length b_tilde: per window w, the edges of `random_connected_graph(n,
    extra_edges, sub)`, sub the first word SeedSequence((seed, w))
    generates, are scattered across the window's slots by
    default_rng((seed, w, 2)).integers(0, b_tilde, size=edges). A drawn
    block holds `_BLOCK // b_tilde` whole windows, or one window longer
    than `_BLOCK`. Blocks are drawn by `_window_edges`: the first read of
    a seed draws the block read, and each later read outside the blocks
    kept draws from the block read up to the next multiple of `_BATCH`
    blocks. The draw keeps the last batch of each seed it drew, so a copy
    of the sequence on another seed draws batches of its own."""
    if b_tilde < 1:
        raise ValueError("window length must be >= 1")
    _extra_edges(n, extra_edges)   # a bad size fails here, not at the first read
    per = max(1, _BLOCK // b_tilde)   # windows per block
    batches = {}   # {seed: (first block, its blocks' windows' `_window_edges`)}

    def draw(s: int, t: int) -> GraphBlock:
        first, edges = batches.get(s, (t, None))
        if edges is None or not 0 <= t - first < len(edges) // per:
            end = (t // _BATCH + 1) * _BATCH if s in batches else t + 1
            batches[s] = t, _window_edges(n, b_tilde, extra_edges, s,
                                          range(t * per, end * per))
        first, edges = batches[s]
        adj = np.zeros((per * b_tilde, n, n), dtype=bool)
        adj.ravel()[edges[(t - first) * per:(t - first + 1) * per]] = True
        return GraphBlock(UNDIRECTED, adj | adj.swapaxes(1, 2))

    return GraphSequence(n, UNDIRECTED, per * b_tilde, draw, seed, b_tilde,
                         f"block-connected(n={n}, window={b_tilde})")


def _window_edges(n: int, b_tilde: int, extra_edges: int, s: int,
                  windows: range) -> np.ndarray:
    """The edges of windows `windows` of a block-connected sequence of seed
    s, each as its (slot, a, b), a < b, in the stack of the block that
    holds it, flattened: a (windows, edges) array. The windows' (s, w) rows
    are hashed in one pass, the rows of the generators they draw from in
    another, and each generator's draws are numpy's transforms of its
    PCG64 output, computed here for every row at once."""
    count, per = len(windows), max(1, _BLOCK // b_tilde)
    subs = streams.seed_state([(s, w) for w in windows], 1)[:, 0].tolist()
    free, m = _extra_edges(n, extra_edges)
    rows = [(sub,) for sub in subs] + [(sub, 1) for sub in subs if m]
    # a one-iteration window puts every edge in its one slot
    state = streams.seed_state(rows + [(s, w, 2) for w in windows if b_tilde > 1], 8)
    # budgets of raw outputs that leave few rows short of words
    swaps, j = streams.drawn(state[:count], lambda words: _tree_draws(n, words),
                             n + n // 2 + 3)
    order = np.repeat(np.arange(n)[:, None], count, axis=1)
    streams.shuffle(order, swaps)
    picked = None
    if m:
        picked = streams.drawn(state[count:2 * count],
                               lambda words: streams.choice(words, free, m), m + 2)[0].T
    a, b = _connected_graphs(n, order.T, j.T, picked)
    slots = np.zeros(a.shape, dtype=np.intp)
    if b_tilde > 1:
        slots[:] = streams.drawn(state[len(rows):], lambda words: streams.lemire(
            words, np.zeros(words.shape[1], dtype=np.intp), [b_tilde] * a.shape[1]),
            a.shape[1] // 2 + 2)[0].T
    slots += b_tilde * (np.arange(count) % per)[:, None]
    return (slots * n + a) * n + b


def _tree_draws(n: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A spanning tree's draws from each row's words, as default_rng draws
    them: `permutation(n)`'s swaps, then `integers(0, arange(1, n))`, whose
    bound 1 reads no word. Returns the swaps and the parent positions, each
    (n - 1, rows), and the next word position."""
    swaps, end = streams.intervals(words, range(n - 1, 0, -1))
    j = np.zeros(swaps.shape, dtype=np.intp)
    j[1:], end = streams.lemire(words, end, range(2, n))
    return swaps, j, end


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
        if kind not in (UNDIRECTED, DIRECTED):
            raise ValueError(f"unknown graph kind {kind!r}")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed snapshot header: {lines[0]!r}") from exc
    sep = ">" if kind == DIRECTED else None
    return _from_links(n, kind, [[int(v) for v in ln.split(sep)] for ln in lines[1:]])
