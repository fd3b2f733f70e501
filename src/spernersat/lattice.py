"""Bit-packed subset lattices: the verifier's one closure kernel, and the
two rules the package reads through it.

- peel(points, m): the levels of a point table, level 1 every point and
  level d+1 the points of level d that its strict up-closure holds, one
  at a time.  Level d less level d+1 is the points of depth d, those
  whose longest chain of given points ending at them has d points:
  depths(points, m) reads each point's depth from the peel, and the
  verifier reads each layer straight off two consecutive levels.
- cover(smalls, larges, m): the points that contain a small or lie inside
  a large, the up-closure of the smalls table OR the down-closure of the
  larges table.  A layer over m atoms is a table over m+1 bits with H as
  bit m; halves splits it into its smalls table (the points without H)
  and its larges table.  A layer is saturated when its cover holds every
  point (first_hole finds none).  cover distributes over union, so a
  layer's cover is the OR of its members' own: the search ORs those that
  cover_of makes from each member's point list.

The subsets of m bits form a table of 2^m points, point T standing for the
subset with mask T.  A table of at most 2^INT_BITS points is one Python
int, point T at bit T; a larger one is a uint64 array of 2^(m-6) words,
point T at bit T % 64 of word T // 64.  A closure step over bit b moves
every point without b onto the point with b (or back): by a masked shift
of the whole int, inside a word (b < 6) by a masked shift of every word,
and across words (b >= 6) by OR-ing the halves of a reshaped array.  The
int form keeps small lattices free of numpy's per-call cost, which would
dominate them; its masks span the whole table and are made once per m.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# The one limit on exhaustive lattice work: the verifier's level peel, its
# 2^m saturation scans and is_saturated_antichain refuse more atoms than
# this.  At 28 atoms a packed table is 2^28 bits = 32 MiB, and the peel,
# whose points carry H as one more bit, holds four 64 MiB tables at once.
SCAN_MAX_ATOMS = 28

# Tables of at most 2^INT_BITS points are one Python int.  With the limit
# swept over 6..17 on one pinned CPU of a 2-vCPU host, verifying 300 random
# families over at most 8 atoms took 35 ms at 6 and 15-16 ms from 10 on;
# the bootstrapped(7..14) verifies stayed level up to 14, and at 17 their
# depth pass took 2.5-3 times as long.  depths counts the levels of an int
# table in 4 bits per point, so INT_BITS + 1 levels must stay below 16.
INT_BITS = 12

# a word holds the 2^6 points that differ in bits 0..5; its masks are
# _int_masks(WORD_BITS), the int form's at 6 bits
WORD_BITS = 6


@cache
def _int_masks(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(halves, weights) of the int form over m bits: halves[b] holds the
    points whose bit b is clear, weights[c] those with exactly c bits set."""
    ones = (1 << (1 << m)) - 1
    # 2^(2^m) - 1 over 2^(2^b) + 1 is the block of 2^b ones then 2^b zeros,
    # repeated from point 0 on
    halves = tuple(ones // ((1 << (1 << b)) + 1) for b in range(m))
    # the weights over bits 0..b from those over bits 0..b-1: a point with
    # bit b set is the point without it moved up by 2^b
    weights = [1]
    for b in range(m):
        weights = [(weights[c] if c <= b else 0) | (weights[c - 1] << (1 << b) if c else 0)
                   for c in range(b + 2)]
    return halves, tuple(weights)


def pack(points, m: int):
    """The table over m bits holding exactly the given points."""
    if m <= INT_BITS:
        # an OR per point, though each copies the int: on a 12-bit table it
        # took 27-28 us for 300 points and 86-91 us for 1,000, against 30-38
        # and 92-114 us set byte by byte in a bytearray, and verifying
        # seven56, its product with three_sperner, trivial_construction(9)
        # and (10) and bootstrapped(7, 9, 10, 11) was as fast with it alone
        # as with the bytearray from 7 bits on (best of 5 x 20 calls, 3
        # alternated runs on one pinned CPU of a 2-vCPU host)
        table = 0
        for p in points:
            table |= 1 << p
        return table
    points = np.asarray(points, dtype=np.int64)
    table = np.zeros(1 << (m - WORD_BITS), dtype=np.uint64)
    np.bitwise_or.at(table, points >> WORD_BITS, np.left_shift(1, (points & 63).astype(np.uint64)))
    return table


def closure(table, m: int, upward: bool, strict: bool = False):
    """The closure of a table over m bits: T is set iff the table holds a
    subset of T (upward) or a superset of T (downward).  With strict, the
    proper closure instead, where only proper subsets (supersets) count:
    proper[T] is the OR of closure[T - b] over the bits b of T (upward),
    gathered in the same bit loop.  The input is left as it was."""
    words = not isinstance(table, int)
    if words:
        table = table.copy()
        # the in-word steps write into this one scratch table; a fresh one
        # per step was made while the last was still bound, one more table
        # at the peak (verifying bootstrapped(22): 470 MB against 405 MB)
        moved = np.empty_like(table)
    proper = np.zeros_like(table) if words and strict else 0
    clear = _int_masks(WORD_BITS if words else m)[0]
    for b, half in enumerate(clear):
        if not words:
            moved = (table & half) << (1 << b) if upward else (table >> (1 << b)) & half
        elif upward:
            np.left_shift(np.bitwise_and(table, half, out=moved), 1 << b, out=moved)
        else:
            np.bitwise_and(np.right_shift(table, 1 << b, out=moved), half, out=moved)
        if strict:
            proper |= moved
        table |= moved
    lo, hi = (0, 1) if upward else (1, 0)
    for b in range(len(clear), m):
        view = table.reshape(-1, 2, 1 << (b - WORD_BITS))
        if strict:
            proper.reshape(view.shape)[:, hi] |= view[:, lo]
        view[:, hi] |= view[:, lo]
    return proper if strict else table


def count(table) -> int:
    """The number of points the table holds."""
    return table.bit_count() if isinstance(table, int) else int(np.bitwise_count(table).sum())


def halves(table, m: int):
    """(low, high): a table over m+1 bits as two tables over m bits, the
    points without bit m and those with it, bit m cleared.  Word halves are
    views of the table."""
    if m == INT_BITS:  # a word table whose halves are ints
        table = int.from_bytes(table.astype("<u8", copy=False).tobytes(), "little")
    if isinstance(table, int):
        return table & ((1 << (1 << m)) - 1), table >> (1 << m)
    return table.reshape(2, -1)


def cover(smalls, larges, m: int):
    """The table over m bits holding the points that contain a point of the
    smalls table or lie inside one of the larges table: the up-closure of
    smalls OR the down-closure of larges.  An empty side is not closed."""
    words = m > INT_BITS
    if not (smalls.any() if words else smalls):
        return closure(larges, m, upward=False)
    table = closure(smalls, m, upward=True)
    if larges.any() if words else larges:
        # in place on word tables: no third 2^m-bit table at once
        table |= closure(larges, m, upward=False)
    return table


def cover_of(smalls, larges, m: int):
    """cover of the tables over m bits holding the given points."""
    return cover(pack(smalls, m), pack(larges, m), m)


def peel(points, m: int):
    """The nonempty levels of the given points' table over m bits, each a
    new table: level 1 holds every point, level d+1 the points of level d
    that its strict up-closure holds.  So level d holds the points with a
    chain of d points ending at them, and level d less level d+1 is the
    points whose longest such chain has d points.  The generator holds one
    level between steps."""
    level = pack(points, m)
    del points  # not held while the levels are peeled
    while level if m <= INT_BITS else level.any():
        yield level
        level = level & closure(level, m, upward=True, strict=True)


def depths(points, m: int) -> np.ndarray:
    """depth[i]: the number of points on the longest chain of the given
    points, by bit inclusion, ending at points[i].  The points are
    duplicate-free ints when the table is one int (m <= INT_BITS), else an
    int64 array.  A point's depth is the number of levels of peel it is in."""
    if m <= INT_BITS:
        # read as hex, a level's binary digits put point T in nibble T, so
        # the sum counts, per point, the levels that hold it: at most m+1,
        # below 16; each point is then read once from the sum's bytes
        total = sum(int(bin(level)[2:], 16) for level in peel(points, m))
        held = total.to_bytes(((1 << m) + 1) >> 1, "little")
        return np.array([held[p >> 1] >> ((p & 1) << 2) & 15 for p in points], dtype=np.int64)
    index, shift = points >> WORD_BITS, (points & 63).astype(np.uint64)
    return sum(((level[index] >> shift & 1).astype(np.int64) for level in peel(points, m)),
               np.zeros(len(points), dtype=np.int64))


def first_hole(table, m: int) -> int | None:
    """The point with the fewest set bits among those the table does not
    hold, the lowest of them on a tie; None if it holds every point."""
    if isinstance(table, int):
        for weight in _int_masks(m)[1]:
            if low := ~table & weight:
                return (low & -low).bit_length() - 1
        return None
    # only the words that are not all ones hold holes
    index = np.flatnonzero(table != 0xFFFFFFFFFFFFFFFF)
    if not index.size:
        return None
    holes = ~table[index]
    weights = _int_masks(WORD_BITS)[1]
    in_word = np.zeros(index.size, dtype=np.int64)
    for c in range(WORD_BITS, -1, -1):
        in_word[(holes & weights[c]) != 0] = c
    # argmin keeps the first of the lightest words, the one with the lowest points
    i = int(np.argmin(np.bitwise_count(index) + in_word))
    low = int(holes[i]) & weights[in_word[i]]
    return (int(index[i]) << WORD_BITS) + (low & -low).bit_length() - 1
