"""The two butterfly kernels against direct O(4^m) definitions, the
oracle's chain depths against a memoized longest-chain definition, and the
guards on what the layer verifier reaches: nothing of the brute-force
oracle, and no pair scan on its own layers."""

import inspect
import types
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spernersat import saturation
from spernersat.saturation import ConcreteFamily, _closure, _oracle_depths, _oracle_strict_max


def _tables(elements):
    # (m, table of 2^m entries) for m = 0..6
    return st.integers(0, 6).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(elements, min_size=1 << m, max_size=1 << m)))


def _related(s: int, t: int, from_below: bool) -> bool:
    # s is a subset of t (from_below) or a superset of t
    return (s & ~t == 0) if from_below else (t & ~s == 0)


@settings(max_examples=200, deadline=None)
@given(_tables(st.booleans()), st.booleans())
def test_verifier_closure_matches_definition(case, upward):
    m, values = case
    got = _closure(np.array(values, dtype=bool), m, upward=upward)
    size = 1 << m
    want = [any(values[s] for s in range(size) if _related(s, t, upward)) for t in range(size)]
    assert got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(_tables(st.integers(0, 40)), st.booleans())
def test_oracle_kernel_matches_definition(case, from_below):
    m, values = case
    table = np.array(values, dtype=np.int16)
    strict = _oracle_strict_max(table, m, from_below=from_below)
    size = 1 << m
    incl = [max(values[s] for s in range(size) if _related(s, t, from_below)) for t in range(size)]
    proper = [max((values[s] for s in range(size) if s != t and _related(s, t, from_below)), default=0)
              for t in range(size)]
    assert table.tolist() == incl
    assert strict.tolist() == proper


@st.composite
def _concrete_families(draw):
    # duplicate-free subsets of {1..n}, n <= 10, the empty family included
    n = draw(st.integers(0, 10))
    return ConcreteFamily(n, tuple(draw(st.sets(st.integers(0, (1 << n) - 1), max_size=40))))


@settings(max_examples=300, deadline=None)
@given(_concrete_families())
def test_oracle_depths_match_longest_chain_definition(c):
    mems = c.members

    @cache
    def below(x):  # members on the longest chain of members ending at x
        return 1 + max((below(y) for y in mems if y != x and y & ~x == 0), default=0)

    @cache
    def above(x):  # members on the longest chain of members starting at x
        return 1 + max((above(y) for y in mems if y != x and x & ~y == 0), default=0)

    down, up = _oracle_depths(np.array(mems, dtype=np.int64))
    assert down.tolist() == [below(x) for x in mems]
    assert up.tolist() == [above(x) for x in mems]


def _reachable(func) -> set[str]:
    """Qualified names of the spernersat functions func reaches through the
    global names its code (nested code included) looks up."""
    seen: set[str] = set()
    stack = [func]
    while stack:
        f = stack.pop()
        name = f"{f.__module__}.{f.__qualname__}"
        if name in seen:
            continue
        seen.add(name)
        codes = [f.__code__]
        while codes:
            code = codes.pop()
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            for global_name in code.co_names:
                target = f.__globals__.get(global_name)
                if inspect.isfunction(target) and target.__module__.startswith("spernersat"):
                    stack.append(target)
    return seen


def test_oracle_shares_no_function_with_the_verifier():
    oracle = _reachable(saturation.brute_force_saturated)
    verifier = _reachable(saturation.verify_saturated_k_sperner)
    assert "spernersat.saturation._oracle_strict_max" in oracle
    assert "spernersat.saturation._closure" in verifier
    assert "spernersat.family.member_depths" in verifier
    assert oracle.isdisjoint(verifier), oracle & verifier


def test_verifier_does_not_reprove_its_layers_are_antichains():
    verifier = _reachable(saturation.verify_saturated_k_sperner)
    assert "spernersat.family.is_antichain" not in verifier
    assert "spernersat.family.first_contained_pair" not in verifier
    assert "spernersat.saturation._first_uncovered" in verifier
