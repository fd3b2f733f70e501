"""Bit-packed subset lattices: the verifier's one closure kernel.

The subsets of m bits form a table of 2^m points, point T standing for the
subset with mask T.  A table of at most 64 points (m <= 6) is one Python
int, point T at bit T; a larger one is a uint64 array of 2^(m-6) words,
point T at bit T % 64 of word T // 64.  A closure step over bit b moves
every point without b onto the point with b (or back): inside a word
(b < 6) by a masked shift, across words (b >= 6) by OR-ing the halves of a
reshaped array.  The same bit loop runs on both forms, and the int form
keeps tiny lattices free of numpy's per-call cost, which would dominate
them.
"""

from __future__ import annotations

import numpy as np

# The one limit on exhaustive lattice work: the verifier's depth pass, its
# 2^m saturation scans and is_saturated_antichain refuse more atoms than
# this.  At 28 atoms a packed table is 2^28 bits = 32 MiB, and the depth
# pass, whose keys carry H as one more bit, holds four 64 MiB tables at once.
SCAN_MAX_ATOMS = 28

WORD_BITS = 6  # a word holds the 2^6 points that differ in bits 0..5

# _CLEAR[b]: the points of a word whose bit b is clear.
_CLEAR = (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
          0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)

# _WEIGHT[c]: the points of a word with exactly c of bits 0..5 set.
_WEIGHT = tuple(sum(1 << p for p in range(64) if p.bit_count() == c) for c in range(7))


def pack(points, m: int):
    """The table over m bits holding exactly the given points."""
    if m <= WORD_BITS:
        table = 0
        for p in points:
            table |= 1 << p
        return table
    points = np.asarray(points, dtype=np.int64)
    table = np.zeros(1 << (m - WORD_BITS), dtype=np.uint64)
    np.bitwise_or.at(table, points >> WORD_BITS, np.left_shift(1, (points & 63).astype(np.uint64)))
    return table


def contains(table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per point of an int64 array, 1 where the word table holds it, else 0."""
    return ((table[points >> WORD_BITS] >> (points & 63).astype(np.uint64)) & 1).astype(np.int64)


def closure(table, m: int, upward: bool, strict: bool = False):
    """The closure of a table over m bits: T is set iff the table holds a
    subset of T (upward) or a superset of T (downward).  With strict, the
    pair (closure, proper closure), where only proper subsets (supersets)
    count: proper[T] is the OR of incl[T - b] over the bits b of T
    (upward), gathered in the same bit loop.  The input is left as it was."""
    words = not isinstance(table, int)
    table = table.copy() if words else table
    proper = np.zeros_like(table) if words and strict else 0
    for b in range(min(m, WORD_BITS)):
        if upward:
            moved = table & _CLEAR[b]
            moved <<= 1 << b
        else:
            moved = table >> (1 << b)
            moved &= _CLEAR[b]
        if strict:
            proper |= moved
        table |= moved
    lo, hi = (0, 1) if upward else (1, 0)
    for b in range(WORD_BITS, m):
        view = table.reshape(-1, 2, 1 << (b - WORD_BITS))
        if strict:
            proper.reshape(view.shape)[:, hi] |= view[:, lo]
        view[:, hi] |= view[:, lo]
    return (table, proper) if strict else table


def first_hole(table, m: int) -> int | None:
    """The point with the fewest set bits among those the table does not
    hold, the lowest of them on a tie; None if it holds every point."""
    if isinstance(table, int):
        holes = ~table & ((1 << (1 << m)) - 1)
        for weight in _WEIGHT:
            if holes & weight:
                low = holes & weight
                return (low & -low).bit_length() - 1
        return None
    # only the words that are not all ones hold holes
    index = np.flatnonzero(table != 0xFFFFFFFFFFFFFFFF)
    if not index.size:
        return None
    holes = ~table[index]
    in_word = np.zeros(index.size, dtype=np.int64)
    for c in range(WORD_BITS, -1, -1):
        in_word[(holes & _WEIGHT[c]) != 0] = c
    # argmin keeps the first of the lightest words, the one with the lowest points
    i = int(np.argmin(np.bitwise_count(index) + in_word))
    low = int(holes[i]) & _WEIGHT[in_word[i]]
    return (int(index[i]) << WORD_BITS) + (low & -low).bit_length() - 1
