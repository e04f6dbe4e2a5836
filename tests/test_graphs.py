"""Graph sequence generation, joint connectivity, and serialization."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from digrate import algorithms, graphs, mixing, objectives, streams


def path3():
    return graphs.undirected(3, [(1, 2), (2, 3)])


def alternating_sequence():
    a = graphs.undirected(3, [(1, 2)])
    b = graphs.undirected(3, [(2, 3)])
    return graphs.periodic_sequence([a, b])


def closure_strongly_connected(snap):
    """Independent oracle: boolean transitive closure of the arc relation."""
    n = snap.n
    reach = np.eye(n, dtype=bool)
    for j, i in snap.links:
        reach[j - 1, i - 1] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def degrees(snap):
    """Reference degrees (out-degrees for arcs), one link at a time."""
    d = [0] * snap.n
    for a, b in snap.links:
        d[a - 1] += 1
        if snap.kind == graphs.UNDIRECTED:
            d[b - 1] += 1
    return d


class TestSnapshot:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            graphs.undirected(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        # 0 or a negative label must not wrap around to vertex n
        for link in [(1, 4), (0, 2), (-1, 2)]:
            for build in (graphs.undirected, graphs.directed):
                with pytest.raises(ValueError, match="leaves vertex range"):
                    build(3, [link])

    def test_rejects_malformed_adjacency(self):
        asym = np.zeros((3, 3), dtype=bool)
        asym[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            graphs.GraphSnapshot(3, graphs.UNDIRECTED, asym)
        with pytest.raises(ValueError, match="boolean"):
            graphs.GraphSnapshot(3, graphs.DIRECTED, asym.astype(int))
        with pytest.raises(ValueError, match="3x3"):
            graphs.GraphSnapshot(3, graphs.DIRECTED, np.zeros((3, 4), dtype=bool))

    def test_adjacency_is_read_only_copy(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        snap = graphs.GraphSnapshot(2, graphs.DIRECTED, adj)
        adj[1, 0] = True
        assert snap.links == frozenset({(1, 2)})
        # the copy is the one slice of the snapshot's own block
        assert np.shares_memory(snap.adj, snap.block[0].adj)
        assert adj.flags.writeable
        with pytest.raises(ValueError):
            snap.adj[1, 0] = True

    def test_canonical_and_dedup(self):
        snap = graphs.undirected(3, [(2, 1), (1, 2)])
        assert snap.links == frozenset({(1, 2)})

    def test_equality_and_hash_by_value(self):
        a = graphs.undirected(4, [(1, 2), (3, 4), (2, 3)])
        b = graphs.undirected(4, [(4, 3), (2, 3), (2, 1), (1, 2), (3, 2)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        arcs = graphs.directed(4, [(3, 4), (1, 2), (3, 4)])
        assert arcs == graphs.directed(4, [(1, 2), (3, 4)])
        assert hash(arcs) == hash(graphs.directed(4, [(1, 2), (3, 4)]))
        assert arcs != graphs.directed(4, [(2, 1), (3, 4)])
        # same links, other kind or vertex count: different snapshots
        assert a != a.as_directed()
        assert graphs.empty_snapshot(3) != graphs.empty_snapshot(4)
        assert a != a.links

    def test_degrees(self):
        assert degrees(path3()) == [1, 2, 1]
        # the builders read degrees as row sums of the adjacency matrix
        assert path3().adj.sum(axis=1).tolist() == [1, 2, 1]

    def test_out_degrees(self):
        snap = graphs.directed(3, [(1, 2), (1, 3)])
        assert degrees(snap) == [2, 0, 0]
        assert snap.adj.sum(axis=1).tolist() == [2, 0, 0]

    def test_directed_round_trip_views(self):
        snap = path3().as_directed()
        assert snap.links == frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})
        assert snap.as_undirected().links == path3().links


class TestUnionGraph:
    def test_constant_sequence(self):
        seq = graphs.static_sequence(graphs.undirected(3, [(1, 2)]))
        assert union_links(seq, 0, 3) == {(1, 2)}

    def test_alternating_union(self):
        assert union_links(alternating_sequence(), 0, 2) == {(1, 2), (2, 3)}

    def test_empty(self):
        seq = graphs.static_sequence(graphs.empty_snapshot(4))
        assert union_links(seq, 0, 5) == set()

    def test_window_one_is_snapshot(self):
        seq = alternating_sequence()
        for k in range(4):
            assert graphs.union_graph(seq, k, 1).links == seq.snapshot(k).links

    def test_preconditions(self):
        seq = alternating_sequence()
        with pytest.raises(ValueError):
            graphs.union_graph(seq, -1, 2)
        with pytest.raises(ValueError):
            graphs.union_graph(seq, 0, 0)


def union_links(seq, k, b):
    return set(graphs.union_graph(seq, k, b).links)


class TestJointConnectivity:
    def test_static_path_any_window(self):
        seq = graphs.static_sequence(path3())
        for B in (1, 2, 3):
            assert graphs.is_jointly_connected(seq, B, 3 * B).ok

    def test_alternating_needs_window_two(self):
        seq = alternating_sequence()
        assert graphs.is_jointly_connected(seq, 2, 8).ok
        check = graphs.is_jointly_connected(seq, 1, 8)
        assert not check.ok
        assert check.first_failure == 0

    def test_directed_alternating_two_cycle(self):
        a = graphs.directed(2, [(1, 2)])
        b = graphs.directed(2, [(2, 1)])
        seq = graphs.periodic_sequence([a, b])
        assert graphs.is_jointly_connected(seq, 2, 8).ok
        assert not graphs.is_jointly_connected(seq, 1, 8).ok

    def test_directed_one_way_chain_not_strong(self):
        seq = graphs.static_sequence(graphs.directed(3, [(1, 2), (2, 3)]))
        assert not graphs.is_jointly_connected(seq, 1, 2).ok

    def test_block_connected_sequence(self):
        for b_tilde in (1, 2, 3):
            seq = graphs.block_connected_sequence(6, b_tilde, seed=5)
            assert graphs.is_jointly_connected(seq, b_tilde, 6 * b_tilde).ok


def test_negative_extra_edges_rejected():
    with pytest.raises(ValueError, match="extra edge count must be nonnegative, got -1"):
        graphs.random_connected_graph(5, -1, 3)
    # a block-connected sequence fails when it is made, not at its first read
    with pytest.raises(ValueError, match="extra edge count must be nonnegative, got -3"):
        graphs.block_connected_sequence(5, 2, 0, -3)


class TestBlockConnected:
    def test_block_draws_its_graph_once(self, monkeypatch):
        # a window's (seed, w) row is hashed for its one-word sub-seed, its
        # (seed, w, 2) row for the generator of its slots; a batch of
        # `_BATCH` blocks hashes the rows of all its windows at once
        drawn, slotted = [], []
        real = streams.seed_state

        def counted(rows, words):
            drawn.extend(rows if words == 1 else [])
            slotted.extend(row for row in rows if len(row) == 3)
            return real(rows, words)

        monkeypatch.setattr(streams, "seed_state", counted)
        seq = graphs.block_connected_sequence(6, 3, seed=41, extra_edges=2)
        windows = graphs._BLOCK // 3          # whole windows in one block
        span, batch = windows * 3, graphs._BATCH * windows
        # every slot of the first block, in shuffled order and read twice
        order = np.random.default_rng(44).permutation(span).tolist()
        for k in order + order[::-1]:
            seq.snapshot(k)
        assert drawn == [(41, w) for w in range(batch)]
        snap = seq.snapshot(span + 4)
        assert drawn == [(41, w) for w in range(batch)]
        # the block is read-only, holds its windows' slots and is shared by them
        block, i = snap.block
        assert i == 4 and block.adj.shape == (span, 6, 6)
        assert not block.adj.flags.writeable
        later = np.random.default_rng(45).permutation(
            np.arange(span, 2 * span)).tolist()
        assert all(seq.snapshot(k).block == (block, k - span) for k in later)
        # the next batch's rows follow, each once
        seq.snapshot(graphs._BATCH * span)
        assert drawn == [(41, w) for w in range(2 * batch)]
        assert slotted == [(41, w, 2) for w in range(2 * batch)]

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    @pytest.mark.parametrize("b_tilde", [1, 2, 3, 5, 64, 65])
    @pytest.mark.parametrize("extra_edges", [0, 3])
    def test_slices_equal_per_window_construction(self, n, b_tilde, extra_edges):
        seed = 46
        seq = graphs.block_connected_sequence(n, b_tilde, seed, extra_edges)
        size = b_tilde * max(1, graphs._BLOCK // b_tilde)
        # both ends of the first three blocks and a slot next to each end
        ks = sorted({k for t in range(3) for k in
                     (t * size, t * size + 1, (t + 1) * size - 2, (t + 1) * size - 1)})
        for k in np.random.default_rng(47).permutation(ks).tolist():
            snap = seq.snapshot(k)
            w, j = divmod(k, b_tilde)
            sub = int(np.random.SeedSequence((seed, w)).generate_state(1)[0])
            graph = graphs.random_connected_graph(n, extra_edges, sub)
            rows, cols = graphs._link_arrays(graph)
            slots = np.random.default_rng((seed, w, 2)).integers(
                0, b_tilde, size=len(rows))
            want = graphs.undirected(n, zip((rows[slots == j] + 1).tolist(),
                                            (cols[slots == j] + 1).tolist()))
            assert snap.adj_bytes == want.adj_bytes
            assert snap.block[1] == k % size
            for rule in (mixing.metropolis, mixing.lazy_metropolis):
                mat, ref = rule(snap), rule(want)
                assert mat.entries.tobytes() == ref.entries.tobytes()
                assert dataclasses.astuple(mat.certificate) == \
                    dataclasses.astuple(ref.certificate)

    def test_random_order_equals_fresh_sequence(self):
        seq = graphs.block_connected_sequence(7, 3, seed=42, extra_edges=3)
        order = np.random.default_rng(43).permutation(60)
        shuffled = {int(k): seq.snapshot(int(k)) for k in order}
        fresh = graphs.block_connected_sequence(7, 3, seed=42, extra_edges=3)
        assert [shuffled[k] for k in range(60)] == [fresh.snapshot(k)
                                                    for k in range(60)]


def reference_connected(n, extra_edges, seed):
    """A random connected graph drawn one seed at a time: default_rng(seed)
    for the tree, default_rng((seed, 1)) for the extra edges."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    parents = order[rng.integers(0, np.arange(1, n))]
    upper = np.zeros((n, n), dtype=bool)
    upper[np.minimum(order[1:], parents), np.maximum(order[1:], parents)] = True
    if extra_edges:
        rows, cols = np.nonzero(np.triu(~upper, 1))
        picked = np.random.default_rng((seed, 1)).choice(
            len(rows), size=min(extra_edges, len(rows)), replace=False)
        upper[rows[picked], cols[picked]] = True
    return np.nonzero(upper)


def reference_block(n, b_tilde, seed, extra_edges, t):
    """Block t of a block-connected sequence drawn window by window, each
    window with its own default_rng calls."""
    per = max(1, graphs._BLOCK // b_tilde)
    adj = np.zeros((per * b_tilde, n, n), dtype=bool)
    for i, w in enumerate(range(t * per, (t + 1) * per)):
        sub = int(np.random.SeedSequence((seed, w)).generate_state(1)[0])
        rows, cols = reference_connected(n, extra_edges, sub)
        slots = i * b_tilde + np.random.default_rng((seed, w, 2)).integers(
            0, b_tilde, size=len(rows))
        adj[slots, rows, cols] = adj[slots, cols, rows] = True
    return adj


def stream_words(row, count):
    """The first `count` 32-bit words numpy's bounded draws read from
    default_rng(row), as a (count, 1) array."""
    state = streams.seed_state([row], 8)
    return streams.to_words(streams.outputs(state, (count + 1) // 2))[:count]


class TestRawOutputDraws:
    """A drawn block takes its bounded integers and uniforms from the PCG64
    output of its rows, computed for every row at once, by numpy's own
    transforms. These tests pin the stream and the transforms to numpy's
    `Generator`, so a numpy release that changes one fails here."""

    @pytest.mark.parametrize("high", [3 * 2**30 - 1, 3 * 2**30, 3 * 2**30 + 5,
                                      2**31 + 1, 70, 2])
    def test_bounded_equals_integers_and_flags_rejected_words(self, high):
        # near 3 * 2**30 numpy rejects about one word in four, past 2**31 one
        # in two; it skips each rejected word and takes the next
        for seed in range(3):
            words = stream_words((seed, 5), 1000)
            values, rejected = streams.bounded(words, high)
            want = np.random.default_rng((seed, 5)).integers(0, high, size=300)
            assert np.array_equal(values[~rejected][:300], want)
            assert (values < high).all()
            if high > 2**30:
                assert rejected.mean() > 0.1
            # the walk past rejected words gives the same values
            walked, end = streams.lemire(words, np.zeros(1, dtype=np.intp), [high] * 300)
            assert np.array_equal(walked[:, 0], want)
            assert end[0] == 300 + rejected[:end[0], 0].sum()

    @pytest.mark.parametrize("extra_edges", [0, 3])
    def test_rejected_window_is_redrawn(self, monkeypatch, extra_edges):
        # numpy rejects a word a few times in 2**32 at these bounds, so one
        # is forced: as if the first word of window 35 in each Lemire draw
        # were rejected, its values garbage (every parent 0, every edge in
        # slot 0). That window is walked word by word instead.
        want = graphs.block_connected_sequence(12, 2, 7, extra_edges).snapshots(1)
        real, forced = streams.bounded, []

        def rejecting(words, high):
            values, rejected = real(words, high)
            values[:, 35], rejected[0, 35] = 0, True
            forced.append(words.shape)
            return values, rejected

        monkeypatch.setattr(streams, "bounded", rejecting)
        got = graphs.block_connected_sequence(12, 2, 7, extra_edges).snapshots(1)
        assert got.block.adj.tobytes() == want.block.adj.tobytes()
        # the tree parents, the extra edges' Floyd draws and shuffle, the slots
        rows = graphs._BATCH * graphs._BLOCK // 2
        assert forced == [(10, rows)] + [(5, rows)] * (extra_edges > 0) + [
            (11 + extra_edges, rows)]

    @pytest.mark.parametrize("fraction", [0.1, 0.4, 0.8, 0.999])
    @pytest.mark.parametrize("kind", [graphs.UNDIRECTED, graphs.DIRECTED])
    def test_subsample_block_equals_uniform_draws(self, fraction, kind):
        base = subsample_base(kind)
        rows, cols = graphs._link_arrays(base)
        seq = graphs.subsample_sequence(base, fraction, 12)
        for t in (0, 3):
            want = np.zeros((graphs._BLOCK, base.n, base.n), dtype=bool)
            for i in range(graphs._BLOCK):
                keep = np.random.default_rng((12, t * graphs._BLOCK + i)).uniform(
                    size=len(rows)) < fraction
                want[i, rows[keep], cols[keep]] = True
            if kind == graphs.UNDIRECTED:
                want |= want.swapaxes(1, 2)
            assert seq.snapshots(t).block.adj.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 12, 33])
    def test_shuffle_equals_permutation(self, n):
        rows = [(s, n) for s in range(100)]
        words = streams.to_words(streams.outputs(streams.seed_state(rows, 8), 3 * n + 4))
        swaps, end = streams.intervals(words, range(n - 1, 0, -1))
        order = np.repeat(np.arange(n)[:, None], len(rows), axis=1)
        streams.shuffle(order, swaps)
        after, _ = streams.lemire(words, end, [7] * 5)
        for col, row in enumerate(rows):
            rng = np.random.default_rng(row)
            assert order[:, col].tolist() == rng.permutation(n).tolist()
            # the next word read is the one numpy reads next
            assert after[:, col].tolist() == rng.integers(0, 7, size=5).tolist()

    @pytest.mark.parametrize("free, m", [(0, 0), (1, 1), (28, 3), (28, 28), (55, 3),
                                         (55, 50), (10_200, 150), (10_200, 300)])
    def test_choice_equals_generator_choice(self, free, m):
        # above 10,000 candidates, 150 picks go by Floyd's algorithm and 300
        # (more than free // 50) by the tail shuffle
        rows = [(s, 1) for s in range(30)]
        picks = streams.drawn(streams.seed_state(rows, 8),
                              lambda words: streams.choice(words, free, m), m + 2)[0]
        for col, row in enumerate(rows):
            want = np.random.default_rng(row).choice(free, m, replace=False)
            assert picks[:, col].tolist() == want.tolist()

    def test_window_that_needs_37_words(self):
        # window 110 of seed 3 (n = 12, window 2) reads 37 words for its
        # tree's permutation and parents, more than 18 raw outputs hold
        sub = int(np.random.SeedSequence((3, 110)).generate_state(1)[0])
        state = streams.seed_state([(sub,)], 8)

        def draw(words):
            return graphs._tree_draws(12, words)

        assert draw(streams.to_words(streams.outputs(state, 18)))[2].tolist() == [-1]
        assert draw(streams.to_words(streams.outputs(state, 19)))[2].tolist() == [37]
        # short of words, the row takes its raw outputs 19, 20, ...
        swaps, j = streams.drawn(state, draw, 18)
        order = np.arange(12)[:, None]
        streams.shuffle(order, swaps)
        rng = np.random.default_rng((sub,))
        assert order[:, 0].tolist() == rng.permutation(12).tolist()
        assert j[:, 0].tolist() == rng.integers(0, np.arange(1, 12)).tolist()
        block = graphs.block_connected_sequence(12, 2, 3).snapshots(110 // 32).block
        assert block.adj.tobytes() == reference_block(12, 2, 3, 0, 110 // 32).tobytes()

    @pytest.mark.parametrize("b_tilde", [1, 2, 3, 70])
    @pytest.mark.parametrize("extra_edges", [0, 3])
    def test_snapshots_across_a_batch_boundary(self, b_tilde, extra_edges):
        n, seed = 7, 48
        seq = graphs.block_connected_sequence(n, b_tilde, seed, extra_edges)
        last = graphs._BATCH - 1   # the last block of the first batch
        ks = [0] + [t * seq.size + i for t in (last, last + 1)
                    for i in (0, 1, seq.size - 2, seq.size - 1)]
        blocks = {t: reference_block(n, b_tilde, seed, extra_edges, t)
                  for t in (0, last, last + 1)}
        for k in np.random.default_rng(49).permutation(ks).tolist():
            t, i = divmod(k, seq.size)
            assert seq.snapshot(k).adj.tobytes() == blocks[t][i].tobytes()

    def test_seed_copies_draw_each_window_once(self, monkeypatch):
        # copies of one sequence on two seeds, stepped in one lockstep call
        # across a batch boundary, keep a batch each: each (seed, w) row is
        # hashed once, in order
        real, keys = streams.seed_state, []

        def counted(rows, words):
            keys.extend(rows if words == 1 else [])
            return real(rows, words)

        monkeypatch.setattr(streams, "seed_state", counted)
        a = graphs.block_connected_sequence(6, 2, 80)
        b = dataclasses.replace(a, seed=81)
        suite = objectives.quadratic_suite(np.zeros((6, 1)), np.ones(6))
        algorithms.run(("diging", "diging"), (a, b), mixing.metropolis, suite, 0.1,
                       (graphs._BATCH + 1) * a.size)
        windows = 2 * graphs._BATCH * a.size // 2   # two batches of windows of 2
        for seed in (80, 81):
            assert [key for key in keys if key[0] == seed] == [
                (seed, w) for w in range(windows)]
        assert len(keys) == 2 * windows


class TestSeedHash:
    """A block's seeds are hashed in one pass, and each row's PCG64 stream
    computed from the hash equals default_rng of its row, so no draw differs
    from one seeded alone."""

    SEEDS = (0, 2**32 - 1, 2**32, 2**63, 2**64 + 3)

    def rows(self, rng, count, length):
        """`count` rows of `length` integers, each a named seed or a
        random one of up to 64 bits."""
        picks = rng.integers(0, len(self.SEEDS) + 1, size=(count, length))
        draws = rng.integers(0, 2**63, size=(count, length), dtype=np.uint64)
        return [tuple(self.SEEDS[p] if p < len(self.SEEDS) else int(d)
                      for p, d in zip(pr, dr)) for pr, dr in zip(picks, draws)]

    @pytest.mark.parametrize("words", [1, 2, 8, 9])
    def test_hash_equals_seed_sequence(self, words):
        rng = np.random.default_rng(100 + words)
        small = [tuple(int(v) for v in row) for row in
                 rng.integers(0, 2**32, size=(500, 3))]
        batches = [self.rows(rng, 400, length) for length in range(1, 7)]
        batches.append(small)
        # rows of 1 to 12 words, mixed in one call
        batches.append([row for batch in batches for row in batch[:80]])
        for rows in batches:
            want = np.array([np.random.SeedSequence(row).generate_state(words)
                             for row in rows])
            assert np.array_equal(streams.seed_state(rows, words), want)

    def test_generators_equal_default_rng(self):
        # each row's raw outputs, from the first or a later one, are those
        # of default_rng(row): rows of 1 to 3 integers, 1 to 40 outputs
        rng = np.random.default_rng(110)
        rows = [row for length in (1, 2, 3) for row in self.rows(rng, 40, length)]
        rows += [(seed,) for seed in self.SEEDS]
        state = streams.seed_state(rows, 8)
        want = np.array([np.random.default_rng(row).bit_generator.random_raw(40)
                         for row in rows]).T
        for count in (1, 2, 17, 40):
            assert np.array_equal(streams.outputs(state, count), want[:count])
        assert np.array_equal(streams.outputs(state, 15, 25), want[25:])

    @pytest.mark.parametrize("b_tilde", [1, 2, 3, 70])
    @pytest.mark.parametrize("extra_edges", [0, 2, 50])
    @pytest.mark.parametrize("seed", [5, 2**32 + 7, 2**64 + 3])
    def test_block_equals_per_window_draws(self, b_tilde, extra_edges, seed):
        # n = 9 and n = 12 leave 28 and 44 non-tree edges, fewer than 50; n = 1
        # and n = 2 draw no tree word, n = 3 one
        for n in (1, 2, 3, 9, 12):
            seq = graphs.block_connected_sequence(n, b_tilde, seed, extra_edges)
            for t in range(2):
                block = seq.snapshots(t)[0].block[0]
                assert block.adj.tobytes() == reference_block(
                    n, b_tilde, seed, extra_edges, t).tobytes()

    @pytest.mark.parametrize("seed", [0, 2**32 + 7, 2**64 + 3])
    def test_single_graphs_equal_reference(self, seed):
        for n, extra_edges in [(1, 0), (2, 3), (7, 0), (7, 4), (9, 50)]:
            rows, cols = reference_connected(n, extra_edges, seed)
            want = graphs.undirected(n, zip((rows + 1).tolist(), (cols + 1).tolist()))
            assert graphs.random_connected_graph(n, extra_edges, seed) == want

    @pytest.mark.parametrize("seed", [9, 2**32 + 9])
    def test_subsample_equals_reference(self, seed):
        base = subsample_base(graphs.UNDIRECTED)
        links = sorted(base.links)
        seq = graphs.subsample_sequence(base, 0.4, seed)
        for k in (0, 63, 64, 130):
            keep = np.random.default_rng((seed, k)).uniform(size=len(links))
            assert sorted(seq.snapshot(k).links) == [
                link for link, u in zip(links, keep) if u < 0.4]

    def test_negative_seed_rejected_as_seed_sequence_rejects_it(self):
        with pytest.raises(ValueError) as expected:
            np.random.SeedSequence((-1, 0))
        base = subsample_base(graphs.UNDIRECTED)
        for draw in (lambda: graphs.block_connected_sequence(6, 2, -1).snapshot(0),
                     lambda: graphs.subsample_sequence(base, 0.5, -1).snapshot(0),
                     lambda: graphs.random_connected_graph(6, 2, -3),
                     lambda: streams.seed_state([(1, 2), (3, -4, 5)], 1)):
            with pytest.raises(ValueError) as got:
                draw()
            assert str(got.value) == str(expected.value)


class TestRandomDigraph:
    def test_two_vertices_forced(self):
        snap = graphs.random_strongly_connected_digraph(2, 2, seed=1)
        assert snap.links == frozenset({(1, 2), (2, 1)})

    def test_three_vertices_three_arcs_is_cycle(self):
        # with m = n the only strongly connected digraphs are full cycles
        for seed in range(6):
            snap = graphs.random_strongly_connected_digraph(3, 3, seed=seed)
            assert closure_strongly_connected(snap)
            assert degrees(snap) == [1, 1, 1]

    def test_benchmark_size(self):
        snap = graphs.random_strongly_connected_digraph(12, 24, seed=42)
        assert len(snap.links) == 24
        assert closure_strongly_connected(snap)
        assert snap.is_connected()  # main-path SCC check agrees with oracle

    def test_oracle_agreement_random(self):
        # one search serves both kinds; an undirected snapshot is checked
        # against the closure of its arc pairs
        rng = np.random.default_rng(3)
        snaps = [graphs.empty_snapshot(1), graphs.empty_snapshot(5),
                 graphs.empty_snapshot(1, graphs.DIRECTED)]
        for _ in range(25):
            n = int(rng.integers(2, 9))
            arcs = [(int(j) + 1, int(i) + 1)
                    for j in range(n) for i in range(n)
                    if j != i and rng.random() < 0.3]
            snaps.append(graphs.directed(n, arcs))
            snaps.append(graphs.undirected(n, [(j, i) for j, i in arcs if j < i]))
        for snap in snaps:
            assert snap.is_connected() == closure_strongly_connected(
                snap.as_directed())

    def test_infeasible_sizes(self):
        with pytest.raises(ValueError):
            graphs.random_strongly_connected_digraph(4, 3, seed=0)
        with pytest.raises(ValueError):
            graphs.random_strongly_connected_digraph(4, 13, seed=0)


class TestSubsample:
    def test_fraction_one_identity(self):
        base = graphs.random_connected_graph(8, 4, seed=2)
        seq = graphs.subsample_sequence(base, 1.0, seed=9)
        for k in range(5):
            assert seq.snapshot(k).links == base.links
        assert graphs.is_jointly_connected(seq, 1, 10).ok

    @pytest.mark.parametrize("fraction,edges", [(0.4, 23), (0.8, 24)])
    def test_binomial_mean(self, fraction, edges):
        if edges == 23:
            base = graphs.random_connected_graph(12, 23 - 11, seed=7)
        else:
            base = graphs.random_strongly_connected_digraph(12, 24, seed=7)
        assert len(base.links) == edges
        seq = graphs.subsample_sequence(base, fraction, seed=11)
        draws = 10_000
        counts = [len(seq.snapshot(k).links) for k in range(draws)]
        mean = np.mean(counts)
        sigma_mean = np.sqrt(edges * fraction * (1 - fraction) / draws)
        assert abs(mean - edges * fraction) <= 3 * sigma_mean

    def test_invalid_fraction(self):
        base = path3()
        for bad in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                graphs.subsample_sequence(base, bad, seed=0)


# the first, last and next-to-first iterations of the first two blocks
BOUNDARY_KS = (0, 63, 64, 65, 127, 128)


def subsample_base(kind):
    if kind == graphs.UNDIRECTED:
        return graphs.random_connected_graph(9, 6, seed=60)
    return graphs.random_strongly_connected_digraph(9, 20, seed=61)


class TestSubsampleBlocks:
    """Subsample snapshots are drawn a block of iterations at a time; each
    stays the pure function of (seed, k) it was when drawn alone."""

    @pytest.mark.parametrize("kind", [graphs.UNDIRECTED, graphs.DIRECTED])
    @pytest.mark.parametrize("fraction", [0.4, 1.0])
    def test_block_boundaries(self, kind, fraction):
        base = subsample_base(kind)
        seq = graphs.subsample_sequence(base, fraction, seed=62)
        order = np.random.default_rng(63).permutation(BOUNDARY_KS)
        shuffled = {int(k): seq.snapshot(int(k)) for k in order}
        fresh = graphs.subsample_sequence(base, fraction, seed=62)
        links = sorted(base.links)   # row-major order
        for k in BOUNDARY_KS:
            snap = shuffled[k]
            assert snap == fresh.snapshot(k)
            assert hash(snap) == hash(fresh.snapshot(k))
            if fraction < 1:
                keep = np.random.default_rng((62, k)).uniform(size=len(links))
                assert sorted(snap.links) == [
                    link for link, u in zip(links, keep) if u < fraction]
                assert snap.block[1] == k % graphs._BLOCK
            else:
                assert snap == base and snap.block == (seq.snapshots(0).block, 0)

    @pytest.mark.parametrize("kind", [graphs.UNDIRECTED, graphs.DIRECTED])
    def test_seeds_do_not_share_a_block(self, kind):
        base = subsample_base(kind)
        seq = graphs.subsample_sequence(base, 0.4, seed=70)
        other = dataclasses.replace(seq, seed=71)
        for k in BOUNDARY_KS:
            a, b = seq.snapshot(k), other.snapshot(k)
            assert a.block[0] is not b.block[0]
            assert a == graphs.subsample_sequence(base, 0.4, seed=70).snapshot(k)
            assert b == graphs.subsample_sequence(base, 0.4, seed=71).snapshot(k)
        assert any(seq.snapshot(k) != other.snapshot(k) for k in BOUNDARY_KS)

    def test_block_and_its_directed_twin(self):
        seq = graphs.subsample_sequence(subsample_base(graphs.UNDIRECTED), 0.4, 72)
        snap = seq.snapshot(70)
        block, i = snap.block
        assert i == 6 and block.kind == graphs.UNDIRECTED
        assert block.adj.shape == (graphs._BLOCK, 9, 9)
        assert not block.adj.flags.writeable
        assert seq.snapshot(127).block[0] is block
        # the directed view reads the same stack through one twin per block
        arcs = snap.as_directed()
        assert arcs.block == (block.directed, i)
        assert block.directed.kind == graphs.DIRECTED
        assert block.directed.adj is block.adj
        assert seq.snapshot(64).as_directed().block[0] is block.directed
        assert arcs == graphs.GraphSnapshot(9, graphs.DIRECTED, snap.adj)
        # a standalone copy is slice 0 of a one-slice block of its own, and
        # compares and hashes equal to the drawn snapshot
        alone = graphs.GraphSnapshot(9, graphs.UNDIRECTED, snap.adj)
        own, j = alone.block
        assert j == 0 and own is not block and own.kind == graphs.UNDIRECTED
        assert own.adj.shape == (1, 9, 9) and not own.adj.flags.writeable
        assert own.adj[0].tobytes() == snap.adj.tobytes()
        assert alone == snap and hash(alone) == hash(snap)
        assert alone.as_directed().block == (own.directed, 0)

    def test_snapshot_must_match_its_slice(self):
        seq = graphs.subsample_sequence(subsample_base(graphs.UNDIRECTED), 0.4, 73)
        snap = seq.snapshot(5)
        with pytest.raises(ValueError, match="block's slice"):
            graphs.GraphSnapshot(9, graphs.DIRECTED, block=snap.block)
        # a block's snapshot takes no matrix of its own beside the slice
        with pytest.raises(ValueError, match="reads its matrix from the block"):
            graphs.GraphSnapshot(9, graphs.UNDIRECTED, snap.adj, snap.block)


class TestSliceViews:
    """A block's stack is checked once, when the block is made; a drawn
    snapshot's matrix is then a read-only view of its slice, neither copied
    nor checked again."""

    @pytest.mark.parametrize("seq", [
        graphs.subsample_sequence(subsample_base(graphs.UNDIRECTED), 0.4, 74),
        graphs.subsample_sequence(subsample_base(graphs.DIRECTED), 0.4, 75),
        graphs.block_connected_sequence(9, 3, 76, 2),
    ], ids=["subsample-undirected", "subsample-directed", "block-connected"])
    def test_drawn_snapshot_is_a_view_of_its_slice(self, seq):
        for k in BOUNDARY_KS:
            for snap in (seq.snapshot(k), seq.snapshot(k).as_directed()):
                block, i = snap.block
                assert np.shares_memory(snap.adj, block.adj)
                assert snap.adj.base is not None
                assert snap.adj_bytes == block.adj[i].tobytes()
                assert not snap.adj.flags.writeable
                with pytest.raises(ValueError):
                    snap.adj[0, 1] = True

    @pytest.mark.parametrize("kind", [graphs.UNDIRECTED, graphs.DIRECTED])
    def test_block_with_self_loop_rejected(self, kind):
        stack = np.zeros((4, 5, 5), dtype=bool)
        stack[2, 3, 3] = True
        with pytest.raises(ValueError, match="self-loop at vertex 4 not allowed"):
            graphs.GraphBlock(kind, stack)
        # the stack a rejected block was given stays writeable
        assert stack.flags.writeable

    def test_asymmetric_undirected_block_rejected(self):
        stack = np.zeros((4, 5, 5), dtype=bool)
        stack[1, 0, 2] = True
        with pytest.raises(ValueError, match="undirected adjacency must be symmetric"):
            graphs.GraphBlock(graphs.UNDIRECTED, stack)
        block = graphs.GraphBlock(graphs.DIRECTED, stack)
        assert block.adj is stack and not stack.flags.writeable

    @pytest.mark.parametrize("kind, stack", [
        ("directd", np.zeros((1, 3, 3), dtype=bool)),
        (graphs.DIRECTED, np.zeros((3, 3), dtype=bool)),
        (graphs.DIRECTED, np.zeros((1, 3, 4), dtype=bool)),
        (graphs.DIRECTED, np.zeros((1, 3, 3), dtype=int)),
    ], ids=["kind", "two-axes", "not-square", "not-boolean"])
    def test_malformed_block_rejected(self, kind, stack):
        with pytest.raises(ValueError, match="unknown graph kind|boolean array"):
            graphs.GraphBlock(kind, stack)


# a fresh sequence of each drawn undirected kind
DRAWN_BASES = pytest.mark.parametrize("make", [
    lambda: graphs.subsample_sequence(subsample_base(graphs.UNDIRECTED), 0.4, 77),
    lambda: graphs.block_connected_sequence(9, 3, 78, 2),
], ids=["subsample", "block-connected"])


class TestServing:
    """Every sequence serves its snapshots a checked block at a time, and a
    directed view serves the directed twins of its base's kept block."""

    @DRAWN_BASES
    def test_view_serves_the_twins_of_its_base_block(self, make):
        base = make()
        view = graphs.directed_view(base)
        assert view.size == base.size
        for k in np.random.default_rng(79).permutation(BOUNDARY_KS).tolist():
            block, i = base.snapshot(k).block
            snap = view.snapshot(k)
            assert snap.block == (block.directed, i)
            assert snap == base.snapshot(k).as_directed()
            # another slice of the block, then k again: the same object
            other = k - i + (i + 1) % view.size
            assert view.snapshot(other).block == (block.directed, (i + 1) % view.size)
            assert view.snapshot(k) is snap
        # a copy of the view on another seed views the base on that seed
        copy = dataclasses.replace(view, seed=base.seed + 1)
        fresh = graphs.directed_view(dataclasses.replace(base, seed=base.seed + 1))
        span = range(2 * view.size)
        assert [copy.snapshot(k) for k in span] == [fresh.snapshot(k) for k in span]
        assert [copy.snapshot(k) for k in span] != [view.snapshot(k) for k in span]

    @DRAWN_BASES
    def test_base_and_view_draw_each_block_once(self, make):
        drawn, plain = [], make()

        def draw(s, t):
            drawn.append(t)
            return plain.draw(s, t)

        base = dataclasses.replace(plain, draw=draw)
        view = graphs.directed_view(base)
        for k in range(2 * base.size):
            assert view.snapshot(k).block[0] is base.snapshot(k).block[0].directed
        assert drawn == [0, 1]

    def test_static_and_periodic_serve_the_given_snapshots(self):
        a, b = graphs.undirected(3, [(1, 2)]), graphs.undirected(3, [(2, 3)])
        static = graphs.static_sequence(a)
        periodic = graphs.periodic_sequence([a, a, b], declared_B=3)
        assert (static.size, periodic.size) == (1, 3)
        for k in (0, 1, 5, 7):
            assert static.snapshot(k) == a
            assert static.snapshot(k).block == (static.snapshots(0).block, 0)
            assert periodic.snapshot(k) == (a, a, b)[k % 3]
            assert periodic.snapshot(k).block == (periodic.snapshots(0).block, k % 3)
            assert graphs.directed_view(periodic).snapshot(k).block == \
                (periodic.snapshots(0).block.directed, k % 3)

    def test_kept_block_drawn_again_is_not_checked_again(self):
        reads = []

        class Probe(graphs.GraphBlock):
            def __getattribute__(self, name):
                if name == "kind":
                    reads.append(1)
                return super().__getattribute__(name)

        block = Probe(graphs.UNDIRECTED, np.zeros((1, 3, 3), dtype=bool))
        # a periodic draw hands back the block the sequence keeps: checked once
        seq = graphs.GraphSequence(3, graphs.UNDIRECTED, 1, lambda s, t: block)
        snap = seq.snapshot(0)
        checked = len(reads)
        assert all(seq.snapshot(k) is snap for k in range(10))
        assert len(reads) == checked and seq.repeats
        # a draw that makes a new block each time is checked each time
        seq = graphs.GraphSequence(3, graphs.UNDIRECTED, 1, lambda s, t: Probe(
            graphs.UNDIRECTED, block.adj.copy()))
        snaps = [seq.snapshot(k) for k in range(10)]
        assert all(s == snap for s in snaps) and not seq.repeats
        assert len(reads) == 11 * checked

    @pytest.mark.parametrize("snaps", [
        (graphs.undirected(3, [(1, 2)]),),
        (graphs.undirected(3, [(1, 2)]), graphs.directed(3, [(1, 2)])),
        (graphs.undirected(3, [(1, 2)]), graphs.undirected(4, [(1, 2)])),
    ], ids=["count", "kind", "n"])
    def test_malformed_draw_rejected(self, snaps):
        seq = graphs.GraphSequence(3, graphs.UNDIRECTED, 2, lambda s, t: snaps)
        for _ in range(2):   # a rejected block is not kept
            with pytest.raises(ValueError,
                               match="block 0 is not 2 undirected snapshots of 3 vertices"):
                seq.snapshot(1)

    @DRAWN_BASES
    def test_drawn_block_makes_each_snapshot_on_first_read(self, make):
        seq = make()
        snap = seq.snapshot(5)
        drawn = seq.snapshots(0)
        assert isinstance(drawn, graphs.DrawnBlock) and len(drawn) == seq.size
        assert [i for i, s in enumerate(drawn._snaps) if s is not None] == [5]
        assert seq.snapshot(5) is snap and drawn[5] is snap and drawn[-seq.size + 5] is snap
        assert snap.block == (drawn.block, 5)
        seq.snapshot(6)
        assert [i for i, s in enumerate(drawn._snaps) if s is not None] == [5, 6]
        assert [drawn[i] for i in range(seq.size)] == list(drawn)
        with pytest.raises(IndexError):
            drawn[seq.size]

    @pytest.mark.parametrize("stack, kind", [
        (np.zeros((3, 3, 3), dtype=bool), graphs.UNDIRECTED),
        (np.zeros((2, 3, 3), dtype=bool), graphs.DIRECTED),
        (np.zeros((2, 4, 4), dtype=bool), graphs.UNDIRECTED),
    ], ids=["count", "kind", "n"])
    def test_malformed_drawn_block_rejected(self, stack, kind):
        seq = graphs.GraphSequence(3, graphs.UNDIRECTED, 2,
                                   lambda s, t: graphs.GraphBlock(kind, stack.copy()))
        for _ in range(2):   # a rejected block is not kept
            with pytest.raises(ValueError,
                               match="block 0 is not 2 undirected snapshots of 3 vertices"):
                seq.snapshot(1)

    @DRAWN_BASES
    def test_dropped_block_is_freed_without_gc(self, make):
        # nothing a drawn block holds leads back to it, so reference counts
        # alone free it once its sequence, snapshots and matrices are dropped
        gc.disable()
        try:
            seq = make()
            view = graphs.directed_view(seq)
            snaps = [seq.snapshot(k) for k in (0, 1, 2)]
            arcs = [view.snapshot(k) for k in (0, 1, 2)]
            mats = ([mixing.metropolis(s) for s in snaps]
                    + [mixing.out_degree_column(s) for s in arcs])
            block = weakref.ref(snaps[0].block[0])
            twin = weakref.ref(arcs[0].block[0])
            assert twin() is block().directed
            del seq, view, snaps, arcs, mats
            assert block() is None and twin() is None
        finally:
            gc.enable()


class TestDeterminism:
    def test_snapshot_purity(self):
        base = graphs.random_connected_graph(9, 5, seed=4)
        seq1 = graphs.subsample_sequence(base, 0.5, seed=21)
        seq2 = graphs.subsample_sequence(base, 0.5, seed=21)
        for k in (0, 3, 17, 1000):
            assert seq1.snapshot(k).links == seq2.snapshot(k).links
        # random access: querying out of order changes nothing
        assert seq1.snapshot(17).links == seq2.snapshot(17).links

    def test_different_seeds_differ(self):
        base = graphs.random_connected_graph(9, 5, seed=4)
        seq1 = graphs.subsample_sequence(base, 0.5, seed=1)
        seq2 = graphs.subsample_sequence(base, 0.5, seed=2)
        assert any(seq1.snapshot(k).links != seq2.snapshot(k).links
                   for k in range(10))

    def test_generator_purity_random_graphs(self):
        a = graphs.random_strongly_connected_digraph(7, 14, seed=13)
        b = graphs.random_strongly_connected_digraph(7, 14, seed=13)
        assert a.links == b.links

    def test_frozen_reference_values(self):
        """Pinned outputs guard the seeded generators against accidental
        stream changes (the reproducibility contract spans process runs)."""
        base = graphs.random_connected_graph(9, 5, seed=4)
        assert sorted(base.links) == [
            (1, 2), (1, 3), (1, 8), (2, 3), (2, 6), (2, 9), (3, 4), (3, 7),
            (3, 9), (4, 5), (4, 7), (6, 8), (6, 9)]
        seq = graphs.subsample_sequence(base, 0.5, seed=21)
        assert sorted(seq.snapshot(17).links) == [
            (1, 8), (2, 3), (2, 6), (2, 9), (3, 4), (3, 9), (4, 5), (6, 8),
            (6, 9)]
        dig = graphs.random_strongly_connected_digraph(5, 9, seed=77)
        assert sorted(dig.links) == [
            (1, 3), (1, 5), (2, 3), (2, 4), (3, 2), (4, 3), (4, 5), (5, 1),
            (5, 4)]

    @pytest.mark.parametrize("n", [2, 3, 12, 48, 130])
    def test_spanning_tree_equals_scalar_draws(self, n):
        # one vectorized draw of every parent gives the values and leaves
        # the generator where n - 1 scalar rng.integers calls do
        for seed in range(100):
            rng = np.random.default_rng(seed)
            order = rng.permutation(n)
            picks = [int(rng.integers(0, idx)) for idx in range(1, n)]
            vec = np.random.default_rng(seed)
            vec.permutation(n)
            assert vec.integers(0, np.arange(1, n)).tolist() == picks
            assert vec.bit_generator.state == rng.bit_generator.state
            # vertex order[idx] attaches to order[picks[idx - 1]]
            want = graphs.undirected(n, [(int(order[idx]) + 1, int(order[j]) + 1)
                                         for idx, j in enumerate(picks, start=1)])
            assert graphs.random_spanning_tree(n, seed) == want

    def test_links_are_plain_ints(self):
        snap = graphs.random_spanning_tree(6, seed=2)
        for a, b in snap.links:
            assert type(a) is int and type(b) is int


class TestSerialization:
    def test_roundtrip_undirected(self):
        snap = graphs.random_connected_graph(6, 3, seed=1)
        text = graphs.snapshot_to_text(snap)
        assert text.splitlines()[0] == "n=6 kind=undirected"
        assert graphs.snapshot_from_text(text).links == snap.links

    def test_roundtrip_directed(self):
        snap = graphs.random_strongly_connected_digraph(5, 9, seed=1)
        text = graphs.snapshot_to_text(snap)
        assert ">" in text.splitlines()[1]
        back = graphs.snapshot_from_text(text)
        assert back.kind == graphs.DIRECTED
        assert back.links == snap.links

    def test_malformed_header(self):
        with pytest.raises(ValueError):
            graphs.snapshot_from_text("bogus header\n1 2\n")

    def test_unknown_kind_in_header(self):
        with pytest.raises(ValueError, match="n=3 kind=sideways"):
            graphs.snapshot_from_text("n=3 kind=sideways\n1>2\n")
