"""numpy's seeded random streams, reproduced for many seeds at once.

`np.random.default_rng(row)` hashes the row with `SeedSequence`, seeds a
PCG64 generator from the hash, and its `Generator` methods turn the
generator's raw output into values. Each stage is computed here in array
arithmetic over many rows, bit for bit what numpy computes for each row:

- `seed_state`: `SeedSequence(row).generate_state(words)` of every row;
- `outputs`: PCG64's raw outputs (`random_raw`) from that state;
- `intervals`, `lemire` and `choice`: the bounded integers `permutation`,
  `integers` and `choice(replace=False)` read from the outputs' 32-bit
  words, and `shuffle` the swaps of numpy's shuffle.

NEP 19 keeps PCG64's raw stream stable across numpy versions; the tests pin
the transforms to numpy's own `Generator`.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

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


def seed_state(rows: list[tuple[int, ...]], words: int) -> np.ndarray:
    """`np.random.SeedSequence(row).generate_state(words)` of every row at
    once, as a (len(rows), words) uint32 array. A row of at most `_POOL`
    words hashes as if padded with zeros to the pool; longer rows are
    hashed in groups of one length."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    if rows and lengths.max() <= _POOL:
        values = np.array(list(itertools.chain.from_iterable(rows)))
        if values.dtype == np.int64 and values.min() >= 0 and values.max() <= _MASK:
            # one word per integer, zero-padded to the pool
            table = np.zeros((_POOL, len(rows)), dtype=np.uint32)
            table.T[np.arange(_POOL) < lengths[:, None]] = values
            return _hash(table, words)
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


# PCG64 (numpy/random/src/pcg64): a 128-bit LCG, state * _MULT + inc, each
# output the XSL-RR of the stepped state; NEP 19 keeps the stream stable
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@functools.cache
def _jumps(count: int) -> np.ndarray:
    """Seeded from (init, seq), PCG64 sets inc = 2 seq + 1 and the state
    (init + inc) M + inc, M = `_MULT`; its k-th output reads the state
    M**(k+1) init + (1 + M + ... + M**(k+1)) inc. Returns the two
    coefficients of outputs 1 .. count as a (4, count) uint64 array: the
    high and low halves of the power, then of the sum."""
    out, power, total = [], _MULT, 1 + _MULT
    for _ in range(count):
        power = power * _MULT & _MASK128
        total = (total + power) & _MASK128
        out.append([power >> 64, power & (1 << 64) - 1, total >> 64, total & (1 << 64) - 1])
    out = np.array(out, dtype=np.uint64).reshape(count, 4).T
    out.flags.writeable = False   # one array for every caller
    return out


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2**128 of 128-bit integers held as uint64 (high, low)
    halves; only the high half of a_lo * b_lo needs 32-bit limbs."""
    a0, a1, b0, b1 = a_lo & _MASK, a_lo >> 32, b_lo & _MASK, b_lo >> 32
    low = a0 * b0
    mid = a1 * b0
    mid += low >> 32
    low = a0 * b1
    low += mid & _MASK
    high = a1 * b1
    high += mid >> 32
    high += low >> 32
    high += a_hi * b_lo
    high += a_lo * b_hi
    return high, a_lo * b_lo


def outputs(state: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Raw outputs start + 1 .. start + count of `PCG64(SeedSequence(row))`
    for every row, given the (rows, 8) state `seed_state` generates for
    them, as a (count, rows) uint64 array: PCG64's seeding and XSL-RR
    output, in uint64 halves."""
    # generate_state(4, np.uint64) pairs the eight words little-endian:
    # init's high and low halves, then seq's
    init_hi, init_lo, seq_hi, seq_lo = np.ascontiguousarray(
        state, dtype="<u4").view("<u8").astype(np.uint64).T
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    power_hi, power_lo, sum_hi, sum_lo = _jumps(start + count)[:, start:, None]
    raw = np.empty((count, len(state)), dtype=np.uint64)
    for r in range(0, len(state), 128):   # rows 128 at a time bound the temporaries
        rows = slice(r, r + 128)
        hi, lo = _mul128(power_hi, power_lo, init_hi[rows], init_lo[rows])
        add_hi, add_lo = _mul128(sum_hi, sum_lo, inc_hi[rows], inc_lo[rows])
        lo += add_lo
        hi += add_hi
        hi += lo < add_lo
        # XSL-RR: the halves' xor, rotated right by the state's top six bits
        rot = hi >> 58
        hi ^= lo
        raw[:, rows] = hi >> rot | hi << ((64 - rot) & 63)
    return raw


def to_words(raw: np.ndarray) -> np.ndarray:
    """The 32-bit words numpy's bounded draws read from (outputs, rows) raw
    outputs, each output's low half, then its high half: a (2 outputs,
    rows) uint32 array, word position by row."""
    words = np.empty((2 * len(raw), raw.shape[1]), dtype=np.uint32)
    np.bitwise_and(raw, _MASK, out=words[0::2], casting="unsafe")
    np.right_shift(raw, 32, out=words[1::2], casting="unsafe")
    return words


def drawn(state: np.ndarray, draw, count: int) -> list[np.ndarray]:
    """The arrays of values, each (values, rows), that draw(words) returns
    before each row's next word position, -1 where the row's words ran
    out. The words are those of each row's first `count` raw outputs; a
    row that runs out draws again with as many more outputs appended, as
    often as it needs."""
    return _redrawn(state, draw, to_words(outputs(state, count)))


def _redrawn(state: np.ndarray, draw, words: np.ndarray) -> list[np.ndarray]:
    *values, end = draw(words)
    short = np.flatnonzero(end < 0)
    if short.size:
        more = to_words(outputs(state[short], len(words) // 2, len(words) // 2))
        again = _redrawn(state[short], draw, np.concatenate((words[:, short], more)))
        for value, redrawn in zip(values, again):
            value[:, short] = redrawn
    return values


def intervals(words: np.ndarray, bounds: range) -> tuple[np.ndarray, np.ndarray]:
    """`random_interval(i)` for each bound i in turn, as numpy's shuffle
    draws it from each row's words from position 0 on: the first word whose
    bits under i's mask (the least 2**k - 1 >= i) are at most i. Returns the
    values, (len(bounds), rows), and the next word position, -1 where a
    row's words ran out."""
    steps, cols = len(bounds), np.arange(words.shape[1])
    if not steps:
        return np.zeros((0, len(cols)), dtype=np.intp), np.zeros(len(cols), dtype=np.intp)
    # a row past its last step reads mask 0 against bound -1: no word fits
    mask = np.array([(1 << i.bit_length()) - 1 for i in bounds] + [0])
    bound = np.array([*bounds, -1])
    values = np.zeros((steps + 1, len(cols)), dtype=np.intp)
    step = np.zeros(len(cols), dtype=np.intp)
    taken = np.zeros(words.shape, dtype=bool)
    for p, word in enumerate(words):
        value = word & mask[step]
        taken[p] = fits = value <= bound[step]
        values[step, cols] = value
        step += fits
        if p >= steps and step.min() == steps:
            break
    end = len(words) - np.argmax(taken[::-1], axis=0)
    return values[:steps], np.where(step == steps, end, -1)


def lemire(words: np.ndarray, start: np.ndarray, highs) -> tuple[np.ndarray, np.ndarray]:
    """`integers(0, high)` for each bound in `highs` (2 .. 2**32 - 1) in
    turn, as numpy's Generator draws it from each row's words from position
    `start` on (Lemire's method). Returns the values, (len(highs), rows),
    and the next word position, -1 where a row's words ran out (as they
    have where `start` is -1)."""
    highs = np.asarray(highs, dtype=np.uint64).reshape(-1, 1)
    if not len(highs):
        return np.zeros((0, len(start)), dtype=np.intp), start
    at = start + np.arange(len(highs))[:, None]
    end = np.where((start < 0) | (at[-1] >= len(words)), -1, at[-1] + 1)
    values, rejected = bounded(words[np.minimum(at, len(words) - 1), np.arange(len(start))],
                                highs)
    for col in np.flatnonzero(rejected.any(axis=0) & (end >= 0)):
        # numpy skips a rejected word and takes the next: walk this row
        pos = int(start[col])
        for s, high in enumerate(highs[:, 0].tolist()):
            while pos < len(words):
                product = int(words[pos, col]) * high
                pos += 1
                if product & _MASK >= (1 << 32) % high:
                    values[s, col] = product >> 32
                    break
            else:
                pos = -1
                break
        end[col] = pos
    return values, end


def bounded(words: np.ndarray, high) -> tuple[np.ndarray, np.ndarray]:
    """`integers(0, high)` as numpy's Generator draws it from each 32-bit
    word, for bounds 2 .. 2**32 - 1 (Lemire's method), and where numpy would
    reject the word and draw again: the product's low half below 2**32 mod
    high."""
    high = np.asarray(high, dtype=np.uint64)
    product = words * high
    return (product >> 32).astype(np.intp), (product & _MASK) < (1 << 32) % high


def choice(words: np.ndarray, free: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """`choice(free, m, replace=False)` from each row's words, as numpy's
    Generator draws it: Floyd's algorithm, then a shuffle of the m picks;
    or, above 10,000 candidates with m > free // 50, the last m of a tail
    shuffle of arange(free). Returns the picks, (m, rows), and the next
    word position."""
    start = np.zeros(words.shape[1], dtype=np.intp)
    picks = np.empty((m, len(start)), dtype=np.intp)
    if free > 10_000 and m > free // 50:
        first = max(free - m, 1)
        swaps, end = lemire(words, start, range(free, first, -1))
        for col, column in enumerate(swaps.T.tolist()):
            moved = {}   # the entries of arange(free) the swaps moved
            for i, j in zip(range(free - 1, first - 1, -1), column):
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            picks[:, col] = [moved.get(i, i) for i in range(free - m, free)]
        return picks, end
    floyd = range(free - m, free)
    # j = 0 reads no word and draws 0
    draws, end = lemire(words, start, [j + 1 for j in floyd if j] + list(range(m, 1, -1)))
    draws = iter(draws)
    for t, j in enumerate(floyd):
        value = next(draws) if j else 0
        picks[t] = np.where((picks[:t] == value).any(axis=0), j, value)
    shuffle(picks, draws)
    return picks, end


def shuffle(items: np.ndarray, draws) -> None:
    """numpy's Fisher-Yates pass over each column of `items`, in place:
    for i = len(items) - 1 down to 1, swap items[i] with items[j], j the
    column's entry in the next row of `draws`."""
    cols = np.arange(items.shape[1])
    for i, j in zip(range(len(items) - 1, 0, -1), draws):
        items[i], items[j, cols] = items[j, cols], items[i].copy()
