"""The packed lattice kernels and the oracle's bit-table closure against
direct O(4^m) definitions, the oracle's level peeling against a memoized
longest-chain definition, the oracle against the direct definition of a
saturated k-Sperner system, and the guards on what the layer verifier
reaches: nothing of the brute-force oracle, and no pair scan on its own
layers."""

from functools import cache
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from spernersat import saturation
from spernersat import Family, Member
from spernersat.lattice import closure, first_hole, pack
from spernersat.saturation import (
    ConcreteFamily,
    _first_uncovered,
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
    # the 2^m points of a packed table, one int below 64 points, words above
    if isinstance(table, int):
        return [bool((table >> t) & 1) for t in range(1 << m)]
    return [bool((int(table[t >> 6]) >> (t & 63)) & 1) for t in range(1 << m)]


def _related(s: int, t: int, from_below: bool) -> bool:
    # s is a subset of t (from_below) or a superset of t
    return (s & ~t == 0) if from_below else (t & ~s == 0)


# m up to 8, so the word-level steps (bits 6 and 7) run as well as the in-word shifts
@settings(max_examples=200, deadline=None)
@given(_tables(st.booleans(), max_m=8), st.booleans())
def test_verifier_closure_matches_definition(case, upward):
    m, values = case
    table = pack([t for t, v in enumerate(values) if v], m)
    before = _unpack(table, m)
    incl, proper = closure(table, m, upward=upward, strict=True)
    size = 1 << m
    want = [any(values[s] for s in range(size) if _related(s, t, upward)) for t in range(size)]
    want_proper = [any(values[s] for s in range(size) if s != t and _related(s, t, upward))
                   for t in range(size)]
    assert _unpack(incl, m) == want
    assert _unpack(proper, m) == want_proper
    assert _unpack(closure(table, m, upward=upward), m) == want
    assert _unpack(table, m) == before == values


@st.composite
def _nearly_full_tables(draw):
    # every point but a few holes, so that most words are all ones
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
    # arbitrary members over m <= 8 atoms: one or two words of points and more
    m = draw(st.integers(0, 8))
    members = draw(st.sets(st.tuples(st.integers(0, (1 << m) - 1), st.booleans()), max_size=12))
    return Family(m, tuple(Member(mask, has_h) for mask, has_h in members))


@settings(max_examples=300, deadline=None)
@given(_layers())
def test_first_uncovered_matches_definition(layer):
    def covered(t):
        return (any(mem.atom_mask & ~t == 0 for mem in layer.smalls())
                or any(t & ~mem.atom_mask == 0 for mem in layer.larges()))
    holes = [t for t in range(1 << layer.m) if not covered(t)]
    smalls = [mem.atom_mask for mem in layer.smalls()]
    larges = [mem.atom_mask for mem in layer.larges()]
    first = min(holes, key=lambda t: (t.bit_count(), t), default=None)
    assert _first_uncovered(layer.m, smalls, larges) == first


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
    assert "spernersat.family.member_depths" in verifier
    assert oracle.isdisjoint(verifier), oracle & verifier


def test_verifier_does_not_reprove_its_layers_are_antichains():
    verifier = reachable(saturation.verify_saturated_k_sperner)
    assert "spernersat.family.is_antichain" not in verifier
    assert "spernersat.family.first_contained_pair" not in verifier
    assert "spernersat.saturation._first_uncovered" in verifier
