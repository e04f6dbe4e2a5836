"""Time-varying communication graphs for multi-agent simulations.

Vertices are labeled 1..n and fixed over time; only the link set, an n x n
boolean adjacency matrix, changes. A sequence is a pure function of
(iteration, seed), served one way: `GraphSequence` draws a block of
consecutive snapshots on its first touch and keeps it. A static or periodic
sequence's block is the given snapshots; a subsample or block-connected
sequence's block is one `GraphBlock`, a read-only stack of adjacency
matrices that the mixing rules build and certify as a whole, whose slices
are made into snapshots on their first read; a directed view's block is the
directed twin of its base's block. A snapshot built on its own is the one
slice of a block of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

UNDIRECTED = "undirected"
DIRECTED = "directed"

Link = tuple[int, int]

# iterations a subsample sequence draws at once, aligned to multiples of it
_BLOCK = 64


@dataclass(frozen=True, eq=False)
class GraphBlock:
    """Snapshots as one (s, n, n) boolean stack, slice i holding the
    adjacency matrix of the block's i-th iteration (s = 1 for a snapshot
    built on its own), checked once and made read-only here. Mixing rules
    build and certify the whole stack on their first request and keep the
    result in `built`, keyed by rule; blocks compare by identity."""

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


class DrawnBlock:
    """The snapshots of a drawn `GraphBlock`, slice i serving iteration i of
    its sequence block. Each is made on its first read and kept, so a read
    of the same slice gives the same object."""

    __slots__ = ("block", "_snaps")

    def __init__(self, block: GraphBlock):
        self.block = block
        self._snaps: list[GraphSnapshot | None] = [None] * len(block.adj)

    def __len__(self) -> int:
        return len(self._snaps)

    def __getitem__(self, i: int) -> GraphSnapshot:
        snap = self._snaps[i]
        if snap is None:
            i %= len(self._snaps)
            snap = self._snaps[i] = GraphSnapshot(self.block.adj.shape[1], self.block.kind,
                                                  block=(self.block, i))
        return snap


@dataclass(frozen=True)
class GraphSequence:
    """Seeded map from iteration index k to a graph snapshot. Block t,
    iterations t * size .. t * size + size - 1, is draw(seed, t): `size`
    snapshots of the sequence's n and kind, or a `GraphBlock` of `size`
    slices, served as a `DrawnBlock`; either is checked once. The draw must
    be pure: the same (seed, t) always yields the same snapshots, in this
    process or any other. The sequence keeps the last block it drew; a
    `dataclasses.replace` copy keeps its own."""

    n: int
    kind: str
    size: int
    draw: Callable[[int, int], tuple[GraphSnapshot, ...] | GraphBlock]
    seed: int = 0
    declared_B: int | None = None
    description: str = ""
    kept: dict = field(default_factory=dict, init=False, compare=False,
                       repr=False)   # {t: block t}, the last block drawn

    def snapshot(self, k: int) -> GraphSnapshot:
        if k < 0:
            raise ValueError("iteration index must be nonnegative")
        t, i = divmod(k, self.size)
        return self.snapshots(t)[i]

    def snapshots(self, t: int) -> tuple[GraphSnapshot, ...] | DrawnBlock:
        """The snapshots of block t. A draw that returns the tuple already
        kept (a periodic sequence's one block) is not checked again."""
        snaps = self.kept.get(t)
        if snaps is None:
            drawn, bad = self.draw(self.seed, t), False
            if isinstance(drawn, GraphBlock):
                bad = drawn.adj.shape[:2] != (self.size, self.n) or drawn.kind != self.kind
                drawn = DrawnBlock(drawn)
            elif drawn is not next(iter(self.kept.values()), None):
                drawn = tuple(drawn)
                bad = len(drawn) != self.size or any(s.n != self.n or s.kind != self.kind
                                                     for s in drawn)
            if bad:
                raise ValueError(f"block {t} is not {self.size} {self.kind} "
                                 f"snapshots of {self.n} vertices")
            self.kept.clear()
            self.kept[t] = snaps = drawn
        return snaps


def directed_view(seq: GraphSequence) -> GraphSequence:
    """Each undirected edge becomes two opposite arcs, for push-sum rules:
    block t is the directed twins of the block t the base keeps."""
    if seq.kind == DIRECTED:
        return seq

    def draw(s: int, t: int) -> tuple[GraphSnapshot, ...] | GraphBlock:
        base = seq if s == seq.seed else replace(seq, seed=s)
        drawn = base.snapshots(t)
        if isinstance(drawn, DrawnBlock):
            return drawn.block.directed
        return tuple(snap.as_directed() for snap in drawn)

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
    """Cycle through the given snapshot objects, one block per period."""
    if not snaps:
        raise ValueError("need at least one snapshot")
    n, kind = snaps[0].n, snaps[0].kind
    if any(s.n != n or s.kind != kind for s in snaps):
        raise ValueError("snapshots must share vertex count and kind")
    snaps = tuple(snaps)
    return GraphSequence(n, kind, len(snaps), lambda s, t: snaps, 0, declared_B,
                         description)


def subsample_sequence(base: GraphSnapshot, fraction: float, seed: int,
                       description: str | None = None) -> GraphSequence:
    """Retain each base link independently with the given probability.

    At iteration k, link t (in row-major order) is kept when the t-th uniform
    draw of default_rng((seed, k)) is below `fraction`, so snapshots are
    random-access reproducible. They are drawn a block of `_BLOCK`
    iterations at a time, the block's `(seed, k)` rows hashed in one pass.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    rows, cols = _link_arrays(base)
    if description is None:
        description = f"subsample({fraction:g}) of {base.kind} base with {len(rows)} links"
    if fraction == 1.0:
        return replace(periodic_sequence([base], description=description), seed=seed)

    def draw(s: int, t: int) -> GraphBlock:
        rngs = _generators([(s, k) for k in range(t * _BLOCK, (t + 1) * _BLOCK)])
        # uniform() is a raw output's top 53 bits times 2**-53
        raw = np.array([rng.bit_generator.random_raw(len(rows)) for rng in rngs])
        keep = (raw >> 11) * 2.0 ** -53 < fraction
        slot, link = np.nonzero(keep)
        return GraphBlock(base.kind, _adjacency((_BLOCK, base.n, base.n), base.kind,
                                                (slot, rows[link], cols[link])))

    return GraphSequence(base.n, base.kind, _BLOCK, draw, seed, description=description)


def _graph_rows(seeds: list[int], extra_edges: int) -> list[tuple[int, ...]]:
    """The generator rows `_connected_graphs` reads for `seeds`: (seed,) of
    each seed, then (seed, 1) of each when there are extra edges to pick."""
    return [(s,) for s in seeds] + ([(s, 1) for s in seeds] if extra_edges else [])


def _connected_graphs(n: int, extra_edges: int, seed_rows: list[tuple[int, ...]],
                      rngs: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based (min, max) edge ends of one random connected graph per
    seed, as (seeds, edges) arrays in row-major order per graph, from the
    generators `rngs` of `seed_rows`, `_graph_rows(seeds, extra_edges)`.
    default_rng(seed) draws a spanning tree, each vertex (in random order)
    attached to a random earlier one; default_rng((seed, 1)) picks
    `extra_edges` distinct random non-tree edges."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    count = len(rngs) // 2 if extra_edges else len(rngs)
    trees, pickers = rngs[:count], rngs[count:]
    order = np.array([rng.permutation(n) for rng in trees]).reshape(count, n)
    # vertex order[idx] attaches to order[j], j drawn from 0 .. idx - 1 by
    # integers(0, arange(1, n)), whose bound 1 reads no word
    j = np.zeros((count, n - 1), dtype=np.intp)
    j[:, 1:], rejected = _bounded(_words(trees, max(n - 2, 0), held=True), np.arange(2, n))
    for i in np.flatnonzero(rejected.any(axis=1)):   # numpy would draw again
        rng = np.random.default_rng(seed_rows[i])
        rng.permutation(n)
        j[i] = rng.integers(0, np.arange(1, n))
    parents = np.take_along_axis(order, j, 1)
    graph = np.arange(count)[:, None]
    upper = np.zeros((count, n, n), dtype=bool)
    upper[graph, np.minimum(order[:, 1:], parents), np.maximum(order[:, 1:], parents)] = True
    free = n * (n - 1) // 2 - (n - 1)   # the non-tree edges of every graph
    if extra_edges and free:
        # candidates: the non-tree edges (a, b), a < b, in row-major order
        _, rows, cols = np.nonzero(np.triu(~upper, 1))
        picked = np.array([rng.choice(free, size=min(extra_edges, free), replace=False)
                           for rng in pickers])
        upper[graph, np.take_along_axis(rows.reshape(count, free), picked, 1),
              np.take_along_axis(cols.reshape(count, free), picked, 1)] = True
    _, rows, cols = np.nonzero(upper)
    return rows.reshape(count, -1), cols.reshape(count, -1)


def random_spanning_tree(n: int, seed: int) -> GraphSnapshot:
    """Uniform-ish random tree: attach each vertex (in random order) to a
    random earlier vertex."""
    return random_connected_graph(n, 0, seed)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> GraphSnapshot:
    """Random spanning tree plus `extra_edges` distinct random non-tree edges."""
    seed_rows = _graph_rows([seed], extra_edges)
    rows, cols = _connected_graphs(n, extra_edges, seed_rows,
                                   [np.random.default_rng(row) for row in seed_rows])
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
    length b_tilde: per window w, the edges of a random connected graph,
    seeded by the first word SeedSequence((seed, w)) generates, are
    scattered across the window's slots (drawn from default_rng((seed, w,
    2))). A drawn block holds `_BLOCK // b_tilde` whole windows, or one
    window longer than `_BLOCK`. Its windows' (seed, w) rows are hashed in
    one pass, and the rows of every generator it draws from in another."""
    if b_tilde < 1:
        raise ValueError("window length must be >= 1")
    per = max(1, _BLOCK // b_tilde)   # windows per block

    def draw(s: int, t: int) -> GraphBlock:
        windows = range(t * per, (t + 1) * per)
        graph_rows = _graph_rows(_seed_state([(s, w) for w in windows], 1)[:, 0].tolist(),
                                 extra_edges)
        # a one-iteration window puts every edge in its one slot
        rngs = _generators(graph_rows + [(s, w, 2) for w in windows if b_tilde > 1])
        rows, cols = _connected_graphs(n, extra_edges, graph_rows, rngs[:len(graph_rows)])
        slots = np.zeros(rows.shape, dtype=np.intp)
        if b_tilde > 1:
            slots[:], rejected = _bounded(_words(rngs[len(graph_rows):], rows.shape[1]),
                                          b_tilde)
            for i in np.flatnonzero(rejected.any(axis=1)):   # numpy would draw again
                slots[i] = np.random.default_rng((s, windows[i], 2)).integers(
                    0, b_tilde, size=rows.shape[1])
        slots += b_tilde * np.arange(per)[:, None]
        return GraphBlock(UNDIRECTED, _adjacency((per * b_tilde, n, n), UNDIRECTED,
                                                 (slots.ravel(), rows.ravel(), cols.ravel())))

    return GraphSequence(n, UNDIRECTED, per * b_tilde, draw, seed, b_tilde,
                         f"block-connected(n={n}, window={b_tilde})")


# SeedSequence's hash (numpy/random/bit_generator.pyx), in uint32 arithmetic
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK = 0xFFFFFFFF


def _entropy(row: tuple[int, ...]) -> list[int]:
    """The uint32 words SeedSequence reads from a tuple of integers: each
    integer's words, least significant first, at least one per integer."""
    words = []
    for v in row:
        if not isinstance(v, (int, np.integer)):
            raise TypeError("seed must be integer")
        v = int(v)
        if v < 0:
            raise ValueError("expected non-negative integer")
        words.append(v & _MASK)
        while v > _MASK:
            v >>= 32
            words.append(v & _MASK)
    return words


def _seed_state(rows: list[tuple[int, ...]], words: int) -> np.ndarray:
    """`np.random.SeedSequence(row).generate_state(words)` of every row at
    once, as a (len(rows), words) uint32 array. A row of at most `_POOL`
    words hashes as if padded with zeros to the pool; longer rows are
    hashed in groups of one length."""
    if rows and max(map(len, rows)) <= _POOL:
        table = np.array([row + (0,) * (_POOL - len(row)) for row in rows])
        if table.dtype == np.int64 and table.min() >= 0 and table.max() <= _MASK:
            # one word per integer, zero-padded to the pool
            return _hash(table.T.astype(np.uint32), words)
    entropy = [_entropy(row) for row in rows]
    groups: dict[int, list[int]] = {}
    for i, e in enumerate(entropy):
        groups.setdefault(max(len(e), _POOL), []).append(i)
    state = np.empty((len(rows), words), dtype=np.uint32)
    for length, members in groups.items():
        padded = [entropy[i] + [0] * (length - len(entropy[i])) for i in members]
        state[members] = _hash(np.array(padded, dtype=np.uint32).T, words)
    return state


def _hash(entropy: np.ndarray, words: int) -> np.ndarray:
    """SeedSequence's entropy mix and state generation over the columns of
    an (l, r) uint32 array, l >= `_POOL`: r rows of l words each. The hash
    steps that read one word run as one array operation, each with the
    constant the sequential hash gives it."""
    # every word takes _POOL hash steps, each with the next constant
    consts = _constants(_INIT_A, _MULT_A, _POOL * len(entropy) + 1)
    pool = _hashmix(entropy[:_POOL], consts[:_POOL, None], consts[1:_POOL + 1, None])
    # mix all bits together so late bits can affect earlier ones: each word
    # into each other word
    at = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[at:at + _POOL - 1, None],
                                             consts[at + 1:at + _POOL, None]))
        at += _POOL - 1
    # the words past the pool, each into every pool word
    for src in range(_POOL, len(entropy)):
        pool = _mix(pool, _hashmix(entropy[src], consts[at:at + _POOL, None],
                                   consts[at + 1:at + _POOL + 1, None]))
        at += _POOL
    consts = _constants(_INIT_B, _MULT_B, words + 1)
    return _hashmix(pool[np.arange(words) % _POOL], consts[:-1, None], consts[1:, None]).T


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    out ^= out >> 16
    return out


@functools.cache
def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` values of a hash constant: init, then each times
    `mult`, modulo 2**32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False   # one array for every caller
    return out


class _Hashed(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state `_seed_state` already generated: it hands
    PCG64 the four uint64 words it asks for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words


def _generators(rows: list[tuple[int, ...]]) -> list[np.random.Generator]:
    """`np.random.default_rng(row)` for every row, bit for bit, from one hash
    of all the rows."""
    # generate_state(4, np.uint64) pairs the eight uint32 words little-endian
    state = np.ascontiguousarray(_seed_state(rows, 2 * 4), dtype="<u4")
    state = state.view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_Hashed(words))) for words in state]


def _words(rngs: list[np.random.Generator], count: int, held: bool = False) -> np.ndarray:
    """The next `count` 32-bit words numpy's bounded draws read from each
    generator, as a (len(rngs), count) uint64 array: the upper half of its
    last raw output when it holds one (read only if `held`; a fresh generator
    holds none), then the low and upper halves of its next raw outputs."""
    bits = [rng.bit_generator for rng in rngs]
    state = [bit.state for bit in bits] if held else []
    raw = np.array([bit.random_raw((count + 1) // 2) for bit in bits],
                   dtype=np.uint64).reshape(len(rngs), -1)
    # column 0 for a held upper half, then each output's low and upper halves
    words = np.zeros((len(rngs), 2 * raw.shape[1] + 1), dtype=np.uint64)
    words[:, 1::2], words[:, 2::2] = raw & _MASK, raw >> 32
    if not held:
        return words[:, 1:count + 1]
    words[:, 0] = [st["uinteger"] for st in state]
    has = np.array([st["has_uint32"] for st in state], dtype=bool)
    return np.where(has[:, None], words[:, :count], words[:, 1:count + 1])


def _bounded(words: np.ndarray, high) -> tuple[np.ndarray, np.ndarray]:
    """`integers(0, high)` as numpy's Generator draws it from each 32-bit
    word, for bounds 2 .. 2**32 - 1 (Lemire's method), and where numpy would
    reject the word and draw again: the product's low half below 2**32 mod
    high. A caller redraws what a rejected word would have given."""
    high = np.asarray(high, dtype=np.uint64)
    product = words * high
    return (product >> 32).astype(np.intp), (product & _MASK) < (1 << 32) % high


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
