"""Bit-packed subset lattices: the verifier's one closure kernel.

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

# The one limit on exhaustive lattice work: the verifier's depth pass, its
# 2^m saturation scans and is_saturated_antichain refuse more atoms than
# this.  At 28 atoms a packed table is 2^28 bits = 32 MiB, and the depth
# pass, whose keys carry H as one more bit, holds four 64 MiB tables at once.
SCAN_MAX_ATOMS = 28

# Tables of at most 2^INT_BITS points are one Python int.  With the limit
# swept over 6..17 on one pinned CPU of a 2-vCPU host, verifying 300 random
# families over at most 8 atoms took 35 ms at 6 and 15-16 ms from 10 on;
# the bootstrapped(7..14) verifies stayed level up to 14, and at 17 their
# depth pass took 2.5-3 times as long.
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


def contains(table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per point of an int64 array, 1 where the word table holds it, else 0."""
    return ((table[points >> WORD_BITS] >> (points & 63).astype(np.uint64)) & 1).astype(np.int64)


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
