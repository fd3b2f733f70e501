"""The packed lattice kernels, in both table forms, and the oracle's
bit-table closure against direct definitions, the oracle's level peeling against a memoized
longest-chain definition, the oracle against the direct definition of a
saturated k-Sperner system, and the guards on what the layer verifier
reaches: nothing of the brute-force oracle, and no pair scan on its own
layers; and the one home of each lattice rule."""

from functools import cache
from itertools import islice

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spernersat import family, saturation, search
from spernersat import Family, Member, member_depths, search_min
from spernersat.lattice import INT_BITS, closure, cover, first_hole, pack
from spernersat.saturation import (
    ConcreteFamily,
    _oracle_halves,
    _oracle_member_table,
    _oracle_peel,
    _oracle_strict_closure,
    brute_force_saturated,
)
from helpers import reachable


def _tables(elements, max_m=6):
    # (m, table of 2^m entries) for m = 0..max_m
    return st.integers(0, max_m).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(elements, min_size=1 << m, max_size=1 << m)))


def _unpack(table, m: int) -> list[bool]:
    # the 2^m points of a packed table: one int up to 2^INT_BITS points, words above
    if isinstance(table, int):
        return [bool((table >> t) & 1) for t in range(1 << m)]
    return [bool((int(table[t >> 6]) >> (t & 63)) & 1) for t in range(1 << m)]


def _related(s: int, t: int, from_below: bool) -> bool:
    # s is a subset of t (from_below) or a superset of t
    return (s & ~t == 0) if from_below else (t & ~s == 0)


# m up to 8 through pack, which makes the int form: its shifts by 64 points
# and more run as well as those inside 64 (the word form is tested below)
@settings(max_examples=200, deadline=None)
@given(_tables(st.booleans(), max_m=8), st.booleans())
def test_verifier_closure_matches_definition(case, upward):
    m, values = case
    table = pack([t for t, v in enumerate(values) if v], m)
    before = _unpack(table, m)
    size = 1 << m
    want = [any(values[s] for s in range(size) if _related(s, t, upward)) for t in range(size)]
    want_proper = [any(values[s] for s in range(size) if s != t and _related(s, t, upward))
                   for t in range(size)]
    assert _unpack(closure(table, m, upward=upward), m) == want
    assert _unpack(closure(table, m, upward=upward, strict=True), m) == want_proper
    assert _unpack(table, m) == before == values


def _subsets(t: int):
    # every subset of the mask t, t itself first
    s = t
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & t


def _closure_by_definition(values, m: int, upward: bool) -> tuple[list[bool], list[bool]]:
    # (closure, proper closure), each point's subsets (supersets) enumerated
    full = (1 << m) - 1
    incl, proper = [], []
    for t in range(1 << m):
        related = _subsets(t) if upward else (t | s for s in _subsets(full & ~t))
        held = [s for s in related if values[s]]
        incl.append(bool(held))
        proper.append(any(s != t for s in held))
    return incl, proper


@st.composite
def _word_form_cases(draw):
    # tables at m = 7..9, more points than one word holds and fewer than the
    # int form takes up to, arbitrary or with only a few holes
    m = draw(st.integers(7, 9))
    if draw(st.booleans()):
        return m, draw(st.lists(st.booleans(), min_size=1 << m, max_size=1 << m))
    holes = draw(st.sets(st.integers(0, (1 << m) - 1), max_size=4))
    return m, [t not in holes for t in range(1 << m)]


@settings(max_examples=100, deadline=None)
@given(_word_form_cases(), st.booleans())
def test_word_form_matches_definitions_and_the_int_form(case, upward):
    """pack makes one int at these m; the word form, built here, still meets
    the definitions of closure and first_hole, and the int form at the same m."""
    m, values = case
    assert m <= INT_BITS
    one_int = sum(1 << t for t, v in enumerate(values) if v)
    assert pack([t for t, v in enumerate(values) if v], m) == one_int
    words = np.array([sum(int(v) << b for b, v in enumerate(values[w:w + 64]))
                      for w in range(0, 1 << m, 64)], dtype=np.uint64)
    want, want_proper = _closure_by_definition(values, m, upward)
    assert _unpack(closure(words, m, upward=upward), m) == want
    assert _unpack(closure(words, m, upward=upward, strict=True), m) == want_proper
    assert _unpack(words, m) == values
    assert _unpack(closure(one_int, m, upward=upward), m) == want
    assert _unpack(closure(one_int, m, upward=upward, strict=True), m) == want_proper
    holes = [t for t, v in enumerate(values) if not v]
    first = min(holes, key=lambda t: (t.bit_count(), t), default=None)
    assert first_hole(words, m) == first_hole(one_int, m) == first


@st.composite
def _nearly_full_tables(draw):
    # every point but a few holes, so that the holes sit among set points
    m = draw(st.integers(0, 8))
    holes = draw(st.sets(st.integers(0, (1 << m) - 1), max_size=4))
    return m, [t not in holes for t in range(1 << m)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tables(st.booleans(), max_m=8), _nearly_full_tables()))
def test_first_hole_is_the_lightest_then_lowest_missing_point(case):
    m, values = case
    holes = [t for t, v in enumerate(values) if not v]
    got = first_hole(pack([t for t, v in enumerate(values) if v], m), m)
    assert got == min(holes, key=lambda t: (t.bit_count(), t), default=None)


@st.composite
def _layers(draw):
    # arbitrary members over m <= 8 atoms
    m = draw(st.integers(0, 8))
    members = draw(st.sets(st.tuples(st.integers(0, (1 << m) - 1), st.booleans()), max_size=12))
    return Family(m, tuple(Member(mask, has_h) for mask, has_h in members))


@settings(max_examples=300, deadline=None)
@given(_layers())
# each side of the cover empty in turn, and both, in the int form and the word form
@example(Family(3, (Member(0b001, False), Member(0b110, False))))
@example(Family(3, (Member(0b011, True), Member(0b100, True))))
@example(Family(INT_BITS + 1, (Member(0b1010, False), Member(1 << INT_BITS, False))))
@example(Family(INT_BITS + 1, (Member(0b111, True), Member((1 << INT_BITS) - 2, True))))
@example(Family(INT_BITS + 1, ()))
def test_first_uncovered_matches_definition(layer):
    smalls = [mem.atom_mask for mem in layer.members if not mem.has_H]
    larges = [mem.atom_mask for mem in layer.members if mem.has_H]

    def covered(t):
        return any(s & ~t == 0 for s in smalls) or any(t & ~l == 0 for l in larges)
    holes = [t for t in range(1 << layer.m) if not covered(t)]
    first = min(holes, key=lambda t: (t.bit_count(), t), default=None)
    assert first_hole(cover(pack(smalls, layer.m), pack(larges, layer.m), layer.m), layer.m) == first


# n up to 8, so the closure shifts whole bytes (bit 3 on) as well as bits inside one
@settings(max_examples=200, deadline=None)
@given(_tables(st.booleans(), max_m=8), st.booleans())
def test_oracle_closure_matches_definition(case, upward):
    n, values = case
    table = sum(1 << t for t, v in enumerate(values) if v)
    proper = _oracle_strict_closure(table, _oracle_halves(n), upward)
    size = 1 << n
    want = [any(values[s] for s in range(size) if s != t and _related(s, t, upward))
            for t in range(size)]
    assert proper < 1 << size
    assert _unpack(proper, n) == want


@st.composite
def _concrete_families(draw):
    # duplicate-free subsets of {1..n}, n <= 10, the empty family included
    n = draw(st.integers(0, 10))
    return ConcreteFamily(n, tuple(draw(st.sets(st.integers(0, (1 << n) - 1), max_size=40))))


def _longest_chains(mems):
    """(below, above): the members on the longest chain of members ending
    and starting at a member, memoized."""
    @cache
    def below(x):
        return 1 + max((below(y) for y in mems if y != x and y & ~x == 0), default=0)

    @cache
    def above(x):
        return 1 + max((above(y) for y in mems if y != x and x & ~y == 0), default=0)

    return below, above


@settings(max_examples=300, deadline=None)
@given(_concrete_families(), st.integers(1, 12))
def test_oracle_levels_match_longest_chain_definition(c, limit):
    members = _oracle_member_table(c.members, c.n)
    assert members == sum(1 << x for x in c.members)
    halves = _oracle_halves(c.n)
    for upward, chain in zip((True, False), _longest_chains(c.members)):
        longest = max(map(chain, c.members), default=0)
        closures = list(islice(_oracle_peel(members, halves, upward), limit))
        assert len(closures) == min(longest, limit)
        # level d + 1 is the members inside the strict closure of level d
        levels = [members] + [members & closed for closed in closures]
        for d, level in enumerate(levels, 1):
            assert level == sum(1 << x for x in c.members if chain(x) >= d), (upward, d)
        # the level after the last closure, which brute_force_saturated tests
        assert bool(levels[-1]) == (longest > limit)


@st.composite
def _tiny_concrete_families(draw):
    # any family over n <= 5 elements, so every one of the 2^n sets can be tried
    n = draw(st.integers(0, 5))
    return ConcreteFamily(n, tuple(draw(st.sets(st.integers(0, (1 << n) - 1)))))


@settings(max_examples=300, deadline=None)
@given(_tiny_concrete_families())
def test_oracle_matches_the_definition_of_saturation(c):
    below, above = _longest_chains(c.members)
    mems = set(c.members)

    def closing(s):  # sets on the longest chain through the absent set s
        return (1 + max((below(y) for y in mems if y & ~s == 0), default=0)
                + max((above(y) for y in mems if s & ~y == 0), default=0))

    longest = max(map(below, c.members), default=0)
    absent = [s for s in range(1 << c.n) if s not in mems]
    for k in range(1, c.n + 3):
        want = longest <= k and all(closing(s) >= k + 1 for s in absent)
        assert brute_force_saturated(c, k) == want, k


def test_oracle_shares_no_function_with_the_verifier():
    oracle = reachable(saturation.brute_force_saturated)
    verifier = reachable(saturation.verify_saturated_k_sperner)
    assert "spernersat.saturation._oracle_strict_closure" in oracle
    assert "spernersat.lattice.closure" in verifier
    assert "spernersat.lattice.peel" in verifier
    assert oracle.isdisjoint(verifier), oracle & verifier


def test_verifier_does_not_reprove_its_layers_are_antichains():
    verifier = reachable(saturation.verify_saturated_k_sperner)
    assert "spernersat.family.is_antichain" not in verifier
    assert "spernersat.family.first_contained_pair" not in verifier
    assert "spernersat.lattice.cover" in verifier


def test_each_lattice_rule_has_one_home():
    """The verifier and the search read the coverage rule, and the depth
    pass the level peel, from lattice; no other module holds the closure
    kernel or the table packer."""
    for func in (saturation.verify_saturated_k_sperner, search_min):
        assert "spernersat.lattice.cover" in reachable(func)
    assert "spernersat.lattice.depths" in reachable(member_depths)
    for module in (family, saturation, search):
        assert not {"closure", "pack"} & vars(module).keys(), module.__name__
