"""Bounded exhaustive search: outcomes, certificates, canonical forms,
budget handling, and determinism."""

import random
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spernersat import (
    BUDGET_EXHAUSTED,
    FOUND,
    NONE_WITHIN_BOUNDS,
    Family,
    Member,
    SearchBounds,
    brute_force_saturated,
    canonical_form,
    instantiate,
    mask_of_atoms,
    search_min,
    three_sperner,
    verify_saturated_k_sperner,
)
from spernersat.family import member_depths, packed_key
from spernersat import search as search_mod
from spernersat.saturation import _layer1_shape
from spernersat.search import (
    SearchCounts,
    SearchResult,
    _carried_depth,
    _fixing,
    _image_tables,
    _leaf_rejection,
    _least_in_group,
)
from helpers import random_family, reachable


# -------------------------------------------------------- canonical form

def test_canonical_form_is_idempotent():
    rng = random.Random(8501)
    for _ in range(100):
        f = random_family(rng, max_atoms=5)
        c = canonical_form(f)
        assert canonical_form(c) == c
        assert c.size == f.size and c.m == f.m


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(8502)
    for _ in range(100):
        f = random_family(rng, max_atoms=5)
        sigma = dict(zip(range(1, f.m + 1), rng.sample(range(1, f.m + 1), f.m)))
        relabeled = Family(f.m, tuple(
            Member(mask_of_atoms(sigma[a] for a in mem.atoms()), mem.has_H)
            for mem in f.members))
        assert canonical_form(relabeled) == canonical_form(f)


def test_canonical_form_separates_non_isomorphic():
    f = Family(2, (Member(0b01, False), Member(0b10, False)))
    g = Family(2, (Member(0b01, False), Member(0b11, False)))
    assert canonical_form(f) != canonical_form(g)


def test_canonical_form_universe_cap():
    with pytest.raises(ValueError):
        canonical_form(Family(9, (Member(0, False),)))


def test_canonical_form_universe_cap_is_a_capacity_error():
    from spernersat import CapacityError
    with pytest.raises(CapacityError, match="canonical form supports at most 8 atoms"):
        canonical_form(Family(9, (Member(0, False),)))


# ------------------------------------------------------------ validation

def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(k=0, max_atoms=2, max_size=4)
    with pytest.raises(ValueError):
        SearchBounds(k=2, max_atoms=11, max_size=4)
    with pytest.raises(ValueError, match=r"max_atoms must be in \[0, 8\]"):
        SearchBounds(k=2, max_atoms=9, max_size=4)
    with pytest.raises(ValueError):
        SearchBounds(k=2, max_atoms=2, max_size=0)
    with pytest.raises(ValueError):
        SearchBounds(k=2, max_atoms=2, max_size=4, budget=0)


# -------------------------------------------------------------- outcomes

def test_degree_one_minimum_is_a_single_set():
    result = search_min(SearchBounds(k=1, max_atoms=1, max_size=2))
    assert result.outcome == FOUND
    assert result.family.size == 1


def test_degree_two_minimum_is_found():
    result = search_min(SearchBounds(k=2, max_atoms=2, max_size=4))
    assert result.outcome == FOUND
    assert result.family.size == 2
    assert result.nodes == 1
    assert verify_saturated_k_sperner(result.family, 2).verdict


def test_degree_three_has_nothing_below_four():
    result = search_min(SearchBounds(k=3, max_atoms=2, max_size=3))
    assert result.outcome == NONE_WITHIN_BOUNDS
    assert result.family is None
    assert result.nodes == 12
    cert = result.certificate
    assert (cert.k, cert.max_atoms, cert.max_size, cert.forced) == (3, 2, 3, True)


def test_degree_three_minimum_is_the_powerset():
    result = search_min(SearchBounds(k=3, max_atoms=2, max_size=4))
    assert result.outcome == FOUND
    assert result.family.size == 4
    assert result.nodes == 16
    assert canonical_form(result.family) == canonical_form(three_sperner())


def test_degree_four_has_nothing_small():
    result = search_min(SearchBounds(k=4, max_atoms=3, max_size=7))
    assert result.outcome == NONE_WITHIN_BOUNDS
    assert result.nodes == 933
    assert result.certificate.forced


def test_found_families_pass_the_concrete_oracle():
    for k, ma, ms in ((1, 1, 2), (2, 2, 4), (3, 2, 4)):
        result = search_min(SearchBounds(k=k, max_atoms=ma, max_size=ms))
        assert result.outcome == FOUND
        assert brute_force_saturated(instantiate(result.family, 2), k)


# ---------------------------------------------------------------- budget

def test_budget_exhaustion():
    result = search_min(SearchBounds(k=4, max_atoms=3, max_size=7, budget=50))
    assert result.outcome == BUDGET_EXHAUSTED
    assert result.nodes == 51
    assert result.family is None
    assert result.certificate is None


def test_big_enough_budget_restores_the_answer():
    tight = search_min(SearchBounds(k=3, max_atoms=2, max_size=4, budget=10 ** 6))
    assert tight.outcome == FOUND


# ----------------------------------------------------------- oracle gate

def _enumerated_min(k, max_atoms, max_size):
    """Size of the smallest saturated k-Sperner system within the bounds, or
    None: every member set over m atoms + H is tried, size by size, with no
    forcing, pruning or isomorph rejection, and the brute-force oracle
    decides each one."""
    for size in range(1, max_size + 1):
        for m in range(max_atoms + 1):
            universe = [Member(mask, has_h) for has_h in (False, True) for mask in range(1 << m)]
            if any(brute_force_saturated(instantiate(Family(m, members), 2), k)
                   for members in combinations(universe, size)):
                return size
    return None


# (k, max_atoms, top): one box for each max_size from 1 to top, 204 boxes in
# all.  k = 4 and 5 at three atoms agree as well, but take 6.5 s and 9 s.
_ORACLE_BOXES = ([(k, atoms, 10) for k in range(1, 7) for atoms in range(3)]
                 + [(k, 3, 8) for k in range(1, 4)])


def test_search_min_agrees_with_the_enumerator():
    """The search's answer, with forcing on and off, is the enumerator's."""
    runs = 0
    for k, max_atoms, top in _ORACLE_BOXES:
        # The enumerator tries sizes in ascending order, so below top its
        # answer is this one where it fits and None elsewhere.
        least = _enumerated_min(k, max_atoms, top)
        for max_size in range(1, top + 1):
            want = least if least is not None and least <= max_size else None
            for forcing in (True, False):
                result = search_min(SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size),
                                    forcing=forcing)
                assert result.outcome == (NONE_WITHIN_BOUNDS if want is None else FOUND)
                assert (result.family.size if result.family else None) == want, \
                    (k, max_atoms, max_size, forcing)
                runs += 1
    assert runs == 408


def test_the_enumerator_shares_no_function_with_the_search():
    enumerator = reachable(_enumerated_min)
    search = reachable(search_min)
    assert "spernersat.saturation.brute_force_saturated" in enumerator
    assert "spernersat.saturation.verify_saturated_k_sperner" in search
    assert enumerator.isdisjoint(search), enumerator & search


# ----------------------------------------------------------- determinism

def test_search_is_deterministic():
    bounds = SearchBounds(k=4, max_atoms=3, max_size=7)
    first = search_min(bounds)
    second = search_min(bounds)
    assert first.outcome == second.outcome
    assert first.nodes == second.nodes
    assert first.family == second.family


def test_forcing_agrees_with_free_search():
    """Structure forcing prunes, never changes the answer."""
    cases = [(2, 2, 4), (3, 2, 3), (3, 2, 4), (4, 2, 6)]
    for k, ma, ms in cases:
        bounds = SearchBounds(k=k, max_atoms=ma, max_size=ms, budget=2 * 10 ** 6)
        forced = search_min(bounds, forcing=True)
        free = search_min(bounds, forcing=False)
        assert forced.outcome == free.outcome, (k, ma, ms)
        if forced.outcome == FOUND:
            assert forced.family.size == free.family.size
        assert forced.nodes <= free.nodes


# ------------------------------------------------------------- same tree

def _roots(bounds, forcing, found=None):
    """Depth-first roots: one per (size, m) that can hold the forced members,
    up to the one that holds the found family."""
    forced = 2 if forcing and bounds.k >= 2 else 0
    roots = 0
    for size in range(forced or 1, bounds.max_size + 1):
        for m in range(bounds.max_atoms + 1):
            roots += 1
            if found is not None and (size, m) == (found.size, found.m):
                return roots
    return roots


# candidates, chain, orbit, layer-count and shape prunes, leaves verified
_PINNED_COUNTS = {
    (4, 4, 8, True): SearchCounts(15407, 2690, 3650, 513, 6002, 336),
    (6, 3, 20, True): SearchCounts(8391, 0, 1230, 3309, 0, 0),
    (5, 3, 15, True): SearchCounts(8377, 0, 1230, 875, 2231, 202),
    (3, 3, 8, False): SearchCounts(482, 0, 140, 221, 0, 41),
    (3, 4, 6, False): SearchCounts(1630, 0, 709, 662, 0, 101),
}


@pytest.mark.parametrize("k, max_atoms, max_size, forcing, outcome, nodes, size", [
    (4, 4, 8, True, FOUND, 9100, 8),
    (6, 3, 20, True, NONE_WITHIN_BOUNDS, 7237, None),
    (5, 3, 15, True, NONE_WITHIN_BOUNDS, 7203, None),
    (3, 3, 8, False, FOUND, 356, 4),
    (3, 4, 6, False, FOUND, 938, 4),
])
def test_search_expands_the_pinned_tree(k, max_atoms, max_size, forcing, outcome, nodes, size):
    bounds = SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size)
    result = search_min(bounds, forcing=forcing)
    assert (result.outcome, result.nodes) == (outcome, nodes)
    assert (result.family.size if result.family else None) == size
    c = result.counts
    assert c == _PINNED_COUNTS[k, max_atoms, max_size, forcing]
    roots = _roots(bounds, forcing, result.family)
    assert result.nodes == roots + c.candidates - c.chain_prunes - c.orbit_prunes


@pytest.mark.parametrize("k, max_atoms, max_size, built", [
    (2, 8, 2, [0]),             # found on 0 atoms: the 10 MB tables of m = 8 are never built
    (4, 3, 7, [0, 1, 2, 3]),    # exhausted over six sizes: each m's tables built once
])
def test_image_tables_are_built_once_per_m_when_reached(monkeypatch, k, max_atoms, max_size, built):
    calls = []
    monkeypatch.setattr(search_mod, "_image_tables", lambda m: calls.append(m) or _image_tables(m))
    search_min(SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size))
    assert calls == built


def test_search_counts_account_for_every_candidate():
    bounds = SearchBounds(k=3, max_atoms=2, max_size=3)
    result = search_min(bounds)
    assert result.nodes == 12
    c = result.counts
    assert c == SearchCounts(candidates=8, chain_prunes=0, orbit_prunes=2,
                             layer_count_prunes=3, shape_prunes=6, leaves_verified=0)
    # every candidate tried is a node or exactly one prune
    assert result.nodes == _roots(bounds, True) + c.candidates - c.chain_prunes - c.orbit_prunes
    # the size-2 roots are leaves, and so is every node below a size-3 root
    leaves = 3 + (result.nodes - 6)
    assert c.layer_count_prunes + c.shape_prunes + c.leaves_verified == leaves
    assert SearchResult(FOUND, None, 0, None).counts == SearchCounts()


@st.composite
def _canonical_members(draw):
    """(m, forced, members): duplicate-free, in canonical order, with the
    forced pair (empty set, full set with H) when forced."""
    m = draw(st.integers(0, 4))
    forced = draw(st.booleans())
    ends = {Member(0, False), Member((1 << m) - 1, True)}
    pool = [Member(mask, has_h) for has_h in (False, True) for mask in range(1 << m)]
    if forced:
        pool = [mem for mem in pool if mem not in ends]
    chosen = draw(st.sets(st.sampled_from(pool), min_size=0 if forced else 1, max_size=10)) if pool else set()
    return m, forced, sorted(chosen | ends if forced else chosen, key=Member.key)


@settings(max_examples=300, deadline=None)
@given(_canonical_members(), st.integers(1, 6))
def test_carried_depths_and_leaf_precheck_match_the_verifier(case, k):
    m, forced, members = case
    keys, depths = [], []
    for mem in members:
        depths.append(_carried_depth(packed_key(mem), keys, depths))
        keys.append(packed_key(mem))
    assert depths == member_depths(members).tolist()
    if forced:
        # the search sets the forced top's depth without a scan
        assert depths[-1] == 1 + max(depths[:-1])
    report = verify_saturated_k_sperner(Family(m, tuple(members)), k)
    for forcing in (False, True):
        wanted = report.layer_count == k and (
            not forcing or k < 3 or all(_layer1_shape(report.decomposition[1].members, k)))
        assert (_leaf_rejection(members, depths, k, forcing) is None) == wanted


def _relabel(mask, perm):
    return sum(1 << perm[b] for b in range(len(perm)) if mask >> b & 1)


@pytest.mark.parametrize("m", range(6))
def test_image_tables_relabel_every_mask(m):
    tables = _image_tables(m)
    assert len(tables) == factorial(m)
    for table, perm in zip(tables, permutations(range(m))):
        assert list(table) == [_relabel(mask, perm) for mask in range(1 << m)]


def _orbit_least(members, m):
    keys = [mem.key() for mem in members]
    return all(sorted((mem.has_H, mem.atom_count, _relabel(mem.atom_mask, perm)) for mem in members) >= keys
               for perm in permutations(range(m)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.data())
def test_groupwise_orbit_check_matches_the_definition(m, data):
    """Walk one depth-first path: each candidate's verdict, from the
    relabelings that fix every completed group, equals the direct one."""
    pool = sorted((Member(mask, has_h) for has_h in (False, True) for mask in range(1 << m)),
                  key=Member.key)
    chosen, live, group, group_key = [], _image_tables(m)[1:], [], None
    start = 0
    while start < len(pool):
        idx = data.draw(st.integers(start, len(pool) - 1))
        mem = pool[idx]
        start = idx + 1
        key = (mem.has_H, mem.atom_count)
        if group and key == group_key:
            next_live, next_group = live, group + [mem.atom_mask]
        else:
            next_live, next_group = _fixing(live, group), [mem.atom_mask]
        verdict = _least_in_group(next_live, next_group)
        assert verdict == _orbit_least(chosen + [mem], m)
        if verdict:
            chosen.append(mem)
            live, group, group_key = next_live, next_group, key
