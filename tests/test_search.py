"""Bounded exhaustive search: outcomes, certificates, canonical forms,
budget handling, and determinism."""

import hashlib
import random
from collections import Counter
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import assume, event, example, given, settings
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
    serialize_family,
    seven56,
    three_sperner,
    trivial_construction,
    verify_saturated_k_sperner,
)
from spernersat.family import H_BIT, member_depths, packed_key
from spernersat import search as search_mod
from spernersat.lattice import closure, pack
from spernersat.search import (
    SearchCounts,
    SearchResult,
    _accepted,
    _candidate_rejection,
    _fixing,
    _image_tables,
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


# SHA-256 of the serialized canonical forms, in order, of each group of
# families; a different but self-consistent form passes the two tests above
# and fails here.
_CANONICAL_DIGESTS = {
    "three_sperner": "09aa496678d213c0a78e77228680bc5c0821c7d8f038f45a336c4f77edb7d8b4",
    "seven56": "b58b3dbf564f27913a0da67b6fa898b0b169c4d421a25dca38f1b1f740898499",
    "trivial_construction(2..8)": "6a226b19f5c69f78c7ad7202a6662e22ba4a7c7d221712a73683ca2b75e992a0",
    "random_family x 200": "b55d9c9ff7223bc0886bfbe4dbf9edf5a586ddbe26c96a3f2de0024626fc7afd",
}


def test_canonical_form_is_the_pinned_form():
    rng = random.Random(2101)
    groups = {
        "three_sperner": [three_sperner()],
        "seven56": [seven56()],
        "trivial_construction(2..8)": [trivial_construction(k) for k in range(2, 9)],
        "random_family x 200": [random_family(rng, max_atoms=6) for _ in range(200)],
    }
    digests = {}
    for name, families in groups.items():
        digest = hashlib.sha256()
        for f in families:
            digest.update(serialize_family(canonical_form(f)).encode())
        digests[name] = digest.hexdigest()
    assert digests == _CANONICAL_DIGESTS


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
    assert result.nodes == 0
    cert = result.certificate
    assert (cert.k, cert.max_atoms, cert.max_size, cert.forced) == (3, 2, 3, True)


def test_degree_three_minimum_is_the_powerset():
    result = search_min(SearchBounds(k=3, max_atoms=2, max_size=4))
    assert result.outcome == FOUND
    assert result.family.size == 4
    assert result.nodes == 3
    assert canonical_form(result.family) == canonical_form(three_sperner())


def test_five_atoms_hold_no_degree_five_system_of_size_twelve():
    """An exact answer no solver is needed for: under forcing, no saturated
    5-Sperner system of at most 12 members lives on at most 5 atoms."""
    result = search_min(SearchBounds(k=5, max_atoms=5, max_size=12))
    assert (result.outcome, result.family, result.nodes) == (NONE_WITHIN_BOUNDS, None, 67323)
    assert result.counts == SearchCounts(692143, 70081, 18264, 0, 0, 27, 536337, 120)
    cert = result.certificate
    assert (cert.k, cert.max_atoms, cert.max_size, cert.forced) == (5, 5, 12, True)


def test_degree_four_has_nothing_small():
    result = search_min(SearchBounds(k=4, max_atoms=3, max_size=7))
    assert result.outcome == NONE_WITHIN_BOUNDS
    assert result.nodes == 25
    assert result.certificate.forced


@pytest.mark.parametrize("k, max_atoms, max_size, forcing", [
    (5, 8, 9, True),     # size floor 3k-5 = 10
    (5, 2, 15, True),    # atom floor k-2 = 3
    (4, 8, 5, False),    # size floor 2k-2 = 6
    (6, 3, 20, False),   # atom floor k-2 = 4
])
def test_a_box_below_a_floor_expands_no_node(k, max_atoms, max_size, forcing):
    result = search_min(SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size), forcing=forcing)
    assert (result.outcome, result.family, result.nodes) == (NONE_WITHIN_BOUNDS, None, 0)
    assert result.counts == SearchCounts()
    cert = result.certificate
    assert (cert.k, cert.max_atoms, cert.max_size, cert.forced) == (k, max_atoms, max_size, forcing)


# SHA-256 of serialize_family(result.family) for each box, as the search
# found it with the layer-count rule alone: the hole rule drops only subtrees
# with no accepted leaf, so the first accepted leaf stays the same.
_FOUND_DIGESTS = {
    (1, 2, 2, True): "64a373ac25a0381fb6129e46c7fd0c7ac89ee234bc74cfeb2d09b4b87da30148",
    (2, 2, 4, True): "5490b3bef15674faae7b63719b853bc7b1f2720dad63b6ca128f692f706a6500",
    (3, 2, 4, True): "09aa496678d213c0a78e77228680bc5c0821c7d8f038f45a336c4f77edb7d8b4",
    (3, 3, 6, True): "09aa496678d213c0a78e77228680bc5c0821c7d8f038f45a336c4f77edb7d8b4",
    (4, 3, 8, True): "955f40e564fc6c1372c4556df4d8b0022066ffbe1d65aaff4e0ff4ff2da78308",
    (4, 4, 8, True): "955f40e564fc6c1372c4556df4d8b0022066ffbe1d65aaff4e0ff4ff2da78308",
    (5, 3, 16, True): "18f35c416ba6034b0d8254cb8f1814f5ca6bd9183a20af72585764cb7da3c2ef",
    (5, 4, 16, True): "18f35c416ba6034b0d8254cb8f1814f5ca6bd9183a20af72585764cb7da3c2ef",
    (3, 3, 6, False): "09aa496678d213c0a78e77228680bc5c0821c7d8f038f45a336c4f77edb7d8b4",
    (4, 4, 8, False): "955f40e564fc6c1372c4556df4d8b0022066ffbe1d65aaff4e0ff4ff2da78308",
}


@pytest.mark.parametrize("k, max_atoms, max_size, forcing", list(_FOUND_DIGESTS))
def test_the_search_finds_the_pinned_family(k, max_atoms, max_size, forcing):
    result = search_min(SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size), forcing=forcing)
    assert result.outcome == FOUND
    digest = hashlib.sha256(serialize_family(result.family).encode()).hexdigest()
    assert digest == _FOUND_DIGESTS[k, max_atoms, max_size, forcing]


def test_found_families_pass_the_concrete_oracle():
    for k, ma, ms in ((1, 1, 2), (2, 2, 4), (3, 2, 4)):
        result = search_min(SearchBounds(k=k, max_atoms=ma, max_size=ms))
        assert result.outcome == FOUND
        assert brute_force_saturated(instantiate(result.family, 2), k)


# ---------------------------------------------------------------- budget

def test_budget_exhaustion():
    result = search_min(SearchBounds(k=5, max_atoms=4, max_size=10, budget=50))
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


# (k, max_atoms, top): one box for each max_size from 1 to top, 220 boxes in
# all.  Four atoms are left out: the enumerator tries every member set of 32
# candidates, ~243k of them up to size 5, ~10 s at k = 4.
_ORACLE_BOXES = ([(k, atoms, 10) for k in range(1, 7) for atoms in range(3)]
                 + [(k, 3, 8) for k in range(1, 6)])


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
    assert runs == 440


def test_the_enumerator_shares_no_function_with_the_search():
    enumerator = reachable(_enumerated_min)
    search = reachable(search_min)
    assert "spernersat.saturation.brute_force_saturated" in enumerator
    assert "spernersat.saturation.verify_saturated_k_sperner" in search
    assert enumerator.isdisjoint(search), enumerator & search


def _orbit_counts(m, top):
    """counts[s] for s in 0..top: the S_m-orbits of s-member sets over m atoms
    + H, by Burnside's lemma.  Each atom permutation fixes [x^s] of the
    product, over its cycles c on the 2^m atom masks, of (1 + x^|c|)^2: one
    factor for the small and one for the large copy of each mask."""
    total = [0] * (top + 1)
    for perm in permutations(range(m)):
        image = [sum(1 << perm[b] for b in range(m) if mask >> b & 1) for mask in range(1 << m)]
        poly = [1] + [0] * top
        seen = [False] * (1 << m)
        for start in range(1 << m):
            if seen[start]:
                continue
            length, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = image[x]
                length += 1
            for _ in range(2):
                for d in range(top, length - 1, -1):
                    poly[d] += poly[d - length]
        total = [t + p for t, p in zip(total, poly)]
    assert all(t % factorial(m) == 0 for t in total)
    return [t // factorial(m) for t in total]


def test_orbit_counts_fixed_values():
    assert _orbit_counts(0, 3) == [1, 2, 1, 0]
    assert _orbit_counts(5, 5)[1:] == [12, 112, 1056, 10023, 91284]


def test_the_search_reaches_one_leaf_per_orbit(monkeypatch):
    """With the candidate rules and forcing off, only the orbit check prunes.
    Lex-least representatives are closed under prefixes, so the search must
    reach exactly one leaf per S_m-orbit of member sets: the Burnside count
    of every cell (m, size), zero counts included."""
    leaves = Counter()

    def record(m, keys, covers, k):
        leaves[m, len(keys)] += 1
        return None

    monkeypatch.setattr(search_mod, "_candidate_rejection", lambda *args: None)
    monkeypatch.setattr(search_mod, "_accepted", record)
    for max_atoms, max_size in ((5, 5), (6, 3)):
        leaves.clear()
        result = search_min(SearchBounds(k=1, max_atoms=max_atoms, max_size=max_size), forcing=False)
        assert result.outcome == NONE_WITHIN_BOUNDS
        for m in range(max_atoms + 1):
            counts = _orbit_counts(m, max_size)
            for size in range(1, max_size + 1):
                assert leaves[m, size] == counts[size], (m, size)


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
    """Depth-first roots: one per (size, m) at or above the floors, up to
    the one that holds the found family."""
    size_floor, atom_floor = _floors(bounds.k, forcing)
    roots = 0
    for size in range(size_floor, bounds.max_size + 1):
        for m in range(atom_floor, bounds.max_atoms + 1):
            roots += 1
            if found is not None and (size, m) == (found.size, found.m):
                return roots
    return roots


# candidates, chain, orbit, layer-count and shape prunes, leaves verified,
# singleton, reach and layer-1 prunes
_PINNED_COUNTS = {
    (4, 4, 8, True): SearchCounts(358, 49, 24, 0, 1, 5, 224, 1),
    (6, 3, 20, True): SearchCounts(0, 0, 0, 0, 0, 0, 0, 0),
    (5, 3, 15, True): SearchCounts(624, 0, 98, 0, 0, 15, 233, 0),
    (3, 3, 8, False): SearchCounts(4, 0, 0, 0, 1, 0, 0, 0),
    (3, 4, 6, False): SearchCounts(4, 0, 0, 0, 1, 0, 0, 0),
}


# outcome, nodes and found size of each pinned box, kept out of the test ids
_PINNED_TREES = {
    (4, 4, 8, True): (FOUND, 59, 8),
    (6, 3, 20, True): (NONE_WITHIN_BOUNDS, 0, None),
    (5, 3, 15, True): (NONE_WITHIN_BOUNDS, 284, None),
    (3, 3, 8, False): (FOUND, 5, 4),
    (3, 4, 6, False): (FOUND, 5, 4),
}


@pytest.mark.parametrize("k, max_atoms, max_size, forcing", list(_PINNED_TREES))
def test_search_expands_the_pinned_tree(k, max_atoms, max_size, forcing):
    outcome, nodes, size = _PINNED_TREES[k, max_atoms, max_size, forcing]
    bounds = SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size)
    result = search_min(bounds, forcing=forcing)
    assert (result.outcome, result.nodes) == (outcome, nodes)
    assert (result.family.size if result.family else None) == size
    c = result.counts
    assert c == _PINNED_COUNTS[k, max_atoms, max_size, forcing]
    roots = _roots(bounds, forcing, result.family)
    assert result.nodes == roots + c.candidates - _candidate_prunes(c)


def test_free_search_expands_the_pinned_tree():
    """Without forcing, only the chain, reach and orbit prunes act on
    candidates, and every leaf goes to the verifier."""
    bounds = SearchBounds(k=4, max_atoms=3, max_size=8)
    result = search_min(bounds, forcing=False)
    assert (result.outcome, result.nodes, result.family.size) == (FOUND, 243, 8)
    c = result.counts
    assert c == SearchCounts(864, 0, 85, 0, 1, 0, 541, 0)
    assert result.nodes == _roots(bounds, False, result.family) + c.candidates - _candidate_prunes(c)


def _floors(k, forcing):
    """(size, atoms) below which no family is accepted, argued apart from the
    search.  Every accepted family has exactly k layers of saturated
    antichains, and a one-member saturated layer is {empty set} or
    {all atoms + H}, which can sit only in layer 0 and layer k-1: so k >= 2
    needs 2k-2 members.  Under forcing (k >= 3) layer 1 also holds k-2
    singleton smalls and one large: 1 + (k-1) + 2(k-3) + 1 members.  A chain
    over m atoms + H has at most m+2 members (smalls, then larges, the atom
    count rising at each step but one), and k layers need a chain of k."""
    if forcing and k >= 3:
        return 3 * k - 5, k - 2
    return max(1, 2 * k - 2), max(0, k - 2)


@pytest.mark.parametrize("k, max_atoms, max_size, forcing",
                         [*_PINNED_TREES, (4, 3, 8, False), (5, 4, 10, True)])
def test_every_reached_leaf_is_accepted(k, max_atoms, max_size, forcing):
    """The candidate rules leave no leaf that is turned down: none for its
    shape, and only the found family's leaf reaches _accepted."""
    result = search_min(SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size), forcing=forcing)
    assert result.counts.shape_prunes == 0
    assert result.counts.leaves_verified == (result.outcome == FOUND)


def test_the_verifier_sees_the_pinned_leaves(monkeypatch):
    """Every family the pinned boxes send to the verifier, in order, minus
    those below the floors.  Leaves go to _accepted with their carried
    coverage tables, and a FOUND family to verify_saturated_k_sperner once
    more; the candidate rules leave only accepted leaves, so each FOUND box
    sends its family twice and every other box nothing."""
    sent = []

    def recording(family, k):
        sent.append((family, k))
        return verify_saturated_k_sperner(family, k)

    def recording_leaf(m, keys, covers, k):
        sent.append((Family.from_keys(m, keys), k))
        return _accepted(m, keys, covers, k)

    monkeypatch.setattr(search_mod, "verify_saturated_k_sperner", recording)
    monkeypatch.setattr(search_mod, "_accepted", recording_leaf)
    digest = hashlib.sha256()
    kept = 0
    for k, max_atoms, max_size, forcing in _PINNED_COUNTS:
        sent.clear()
        search_min(SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size), forcing=forcing)
        size_floor, atom_floor = _floors(k, forcing)
        for family, degree in sent:
            if family.size >= size_floor and family.m >= atom_floor:
                digest.update(f"{degree} {serialize_family(family)}".encode())
                kept += 1
    assert kept == 6
    assert digest.hexdigest() == "db69f31a49018c64ac0ee0381170bdf9b0d11bef461ab2da8464e61bd845aa17"


@pytest.mark.parametrize("k, max_atoms, max_size, built", [
    (2, 8, 2, [0]),             # found on 0 atoms: the 10 MB tables of m = 8 are never built
    (4, 3, 7, [2, 3]),          # exhausted at the size floor: no tables below the atom floor
    (4, 3, 8, [2, 3]),          # found at the second size: each m's tables built once
])
def test_image_tables_are_built_once_per_m_when_reached(monkeypatch, k, max_atoms, max_size, built):
    calls = []
    monkeypatch.setattr(search_mod, "_image_tables", lambda m: calls.append(m) or _image_tables(m))
    search_min(SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size))
    assert calls == built


def _candidate_prunes(c):
    return c.chain_prunes + c.orbit_prunes + c.singleton_prunes + c.reach_prunes + c.layer1_prunes


def test_search_counts_account_for_every_candidate(monkeypatch):
    verified = []
    monkeypatch.setattr(search_mod, "_accepted",
                        lambda *args: verified.append(args) or _accepted(*args))
    bounds = SearchBounds(k=4, max_atoms=4, max_size=8)
    result = search_min(bounds)
    assert result.nodes == 59
    c = result.counts
    assert c == SearchCounts(candidates=358, chain_prunes=49, orbit_prunes=24,
                             shape_prunes=0, leaves_verified=1, singleton_prunes=5,
                             reach_prunes=224, layer1_prunes=1)
    # every candidate tried is a node or exactly one prune
    assert result.nodes == _roots(bounds, True, result.family) + c.candidates - _candidate_prunes(c)
    # every verified leaf goes to the verifier once
    assert c.leaves_verified == len(verified)
    assert SearchResult(FOUND, None, 0, None).counts == SearchCounts()


def test_search_builds_a_family_only_for_a_found_result(monkeypatch):
    built = []

    class Recording:
        @staticmethod
        def from_keys(m, keys):
            built.append((m, list(keys)))
            return Family.from_keys(m, keys)

    monkeypatch.setattr(search_mod, "Family", Recording)
    found = search_min(SearchBounds(k=4, max_atoms=4, max_size=8))
    assert found.outcome == FOUND and built == [(found.family.m, list(found.family.keys))]
    built.clear()
    assert search_min(SearchBounds(k=4, max_atoms=3, max_size=7)).outcome == NONE_WITHIN_BOUNDS
    assert built == []


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


def _layer_covers(m, keys):
    """What each depth layer of the packed keys covers, as the verifier
    scans it: the up-closure of its smalls' masks OR the down-closure of
    its larges'."""
    depths = member_depths(keys).tolist()
    layers = [[key for key, d in zip(keys, depths) if d == i] for i in range(1, max(depths) + 1)]
    return [closure(pack([key for key in layer if key < H_BIT], m), m, upward=True)
            | closure(pack([key ^ H_BIT for key in layer if key >= H_BIT], m), m, upward=False)
            for layer in layers]


def _carried_covers(m, forced, keys, depths):
    """The tables the search hands _accepted for a leaf of these keys: each
    member but the forced top ORs its pool entry's table into its depth's,
    and the forced top adds a layer of its own; the forced pair covers
    every subset."""
    full = (1 << (1 << m)) - 1
    tables = {key: covered for key, _, _, covered, _ in search_mod._space(m, forced)[0]}
    carried = len(keys) - forced
    cover = [0] * max(depths[:carried])
    for key, d in zip(keys[:carried], depths):
        cover[d - 1] |= tables.get(key, full)  # the forced bottom is not in the pool
    return cover + [full] * forced


def _table_depths(m, forced, keys):
    """The depths the search reads off its above tables for packed keys
    appended one by one in canonical order: 1 + the number of leading
    tables holding the key's point, the appended key then ORing its pool
    entry's up-closure into its depth's table (the forced bottom's is
    every point)."""
    ups = {key: up for key, *_, up in search_mod._space(m, forced)[0]}
    above, depths = [0] * (len(keys) + 1), []
    for key in keys:
        point, depth = key & ~H_BIT | (key >= H_BIT) << m, 1
        while above[depth - 1] >> point & 1:
            depth += 1
        above[depth - 1] |= ups.get(key, (1 << (2 << m)) - 1)
        depths.append(depth)
    return depths


@settings(max_examples=300, deadline=None)
@given(_canonical_members(), st.integers(1, 6))
def test_leaf_verdicts_from_carried_depths_match_the_verifier(case, k):
    """The depths and coverage tables the search carries to a leaf are the
    verifier's, and _accepted's verdict on them is verify_saturated_k_sperner's."""
    m, forced, members = case
    keys = [packed_key(mem) for mem in members]
    depths = member_depths(keys).tolist()
    assert _table_depths(m, forced, keys) == depths
    if forced:
        # the search gives the forced top a layer of its own without a scan
        assert depths[-1] == 1 + max(depths[:-1])
    covers = _carried_covers(m, forced, keys, depths)
    assert covers == _layer_covers(m, keys)
    verdict = verify_saturated_k_sperner(Family(m, tuple(members)), k).verdict
    assert (_accepted(m, keys, covers, k) is not None) == verdict


def test_every_leaf_gets_its_layer_covers_and_the_verifier_verdict(monkeypatch):
    """At every leaf of the pinned boxes and the free box, the tables the
    depth-first search hands _accepted are the leaf's layer tables, so
    what a popped member covered never stays behind, and the verdict is
    verify_saturated_k_sperner's."""
    leaves = 0

    def checking(m, keys, covers, k):
        nonlocal leaves
        leaves += 1
        assert covers == _layer_covers(m, keys), (m, keys)
        accepted = _accepted(m, keys, covers, k)
        assert (accepted is not None) == verify_saturated_k_sperner(Family.from_keys(m, keys), k).verdict
        return accepted

    monkeypatch.setattr(search_mod, "_accepted", checking)
    verified = 0
    for k, max_atoms, max_size, forcing in [*_PINNED_COUNTS, (4, 3, 8, False)]:
        result = search_min(SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size), forcing=forcing)
        verified += result.counts.leaves_verified
    assert leaves == verified == 1 + 0 + 1 + 1 + 1


def _accepted_shape(keys, k, forcing):
    """What every family the search accepts has: largest depth k and, with
    forcing on and k >= 3, the forced layer-1 shape in the depth-2 members
    (singleton smalls, at least k-2 of them, exactly one large)."""
    depths = member_depths(keys).tolist()
    if max(depths) != k:
        return False
    if forcing and k >= 3:
        layer1 = [key for key, d in zip(keys, depths) if d == 2]
        smalls = [key for key in layer1 if key < H_BIT]
        return (all(key.bit_count() == 1 for key in smalls) and len(smalls) >= k - 2
                and len(layer1) - len(smalls) == 1)
    return True


@st.composite
def _partial_states(draw):
    """(k, forcing, m, pool, top, chosen, idx, after): the packed keys of
    members chosen in canonical order from the search's (key, atom mask,
    group) pool on m <= 3 atoms (after the forced bottom), the index of the
    next candidate, and how many members a leaf holds after it, the forced
    top aside."""
    m = draw(st.integers(0, 3))
    k = draw(st.integers(1, 6))
    forcing = draw(st.booleans())
    pool, _, bottom, top = search_mod._space(m, forcing and k >= 2)
    assume(pool)
    idx = draw(st.integers(0, len(pool) - 1))
    picks = [i for i in range(idx) if draw(st.booleans())]
    after = draw(st.integers(0, min(5, len(pool) - idx - 1)))
    return k, forcing, m, pool, top, bottom + [pool[i][0] for i in picks], idx, after


def _state(m, k, chosen, candidate, after):
    """A forced partial state as _partial_states draws it, from packed keys."""
    pool, _, bottom, top = search_mod._space(m, True)
    idx = [key for key, *_ in pool].index(candidate)
    return k, True, m, pool, top, bottom + chosen, idx, after


def _hole_reach(m, chosen, key, after):
    """The reach the search passes for appending key to the packed keys
    chosen (the forced bottom included, the forced top not): the largest
    depth once key is appended, plus the members still to append after it,
    minus the layers up to that depth whose carried cover table has a hole."""
    keys = chosen + [key]
    depths = member_depths(keys).tolist()
    full = (1 << (1 << m)) - 1
    # forced=False: keys hold no forced top, and the bottom's table is full either way
    return max(depths) + after - sum(c != full for c in _carried_covers(m, False, keys, depths))


# Forced, k = 4, two atoms: the singleton {1} alone at depth 2 with one member
# to follow.  Its depth plus that member reaches the depth limit 3, but layer
# 1 still has a hole and depth 3 is empty, and one member cannot fill both.
_HOLE_STATE = _state(2, 4, [], 0b01, 1)


def test_the_hole_rule_fires_where_the_layer_count_does_not():
    k, forcing, m, pool, top, chosen, idx, after = _HOLE_STATE
    key, _, kind, *_ = pool[idx]
    depth, depth_limit = int(member_depths(chosen + [key])[-1]), k - 1
    layer_count_reach = depth + after
    assert layer_count_reach >= depth_limit
    assert _candidate_rejection(kind, depth, layer_count_reach, 0, False, k, True, depth_limit) is None
    reach = _hole_reach(m, chosen, key, after)
    assert reach < depth_limit
    assert _candidate_rejection(kind, depth, reach, 0, False, k, True, depth_limit) == "reach_prunes"


# Random states seldom reach a layer-1 prune, so rules (a) and (b) also get
# one state each: {2,3} after the singleton {1}, and H+{3} after H+{2}; and
# the hole rule gets _HOLE_STATE, where the layer count alone keeps the candidate.
@settings(max_examples=300, deadline=None)
@given(_partial_states())
@example(_state(3, 3, [0b001], 0b110, 1))
@example(_state(3, 3, [0b001, H_BIT | 0b010], H_BIT | 0b100, 1))
@example(_HOLE_STATE)
def test_candidate_rules_turn_down_only_rejected_subtrees(state):
    """Whenever a candidate-level test fires, no completion below it (for a
    singleton prune, below every later candidate too) is accepted: none has
    the shape of an accepted family and the verifier's true verdict, whether
    or not the search would reach the state."""
    k, forcing, m, pool, top, chosen, idx, after = state
    depths = member_depths(chosen).tolist()
    singletons = sum(key < H_BIT and key.bit_count() == 1 for key in chosen)
    large2 = any(key >= H_BIT and d == 2 for key, d in zip(chosen, depths))

    def rejection(j):
        key, _, kind, *_ = pool[j]
        depth = int(member_depths(chosen + [key])[-1])
        return _candidate_rejection(kind, depth, _hole_reach(m, chosen, key, after), singletons, large2,
                                    k, forcing and k >= 3, k - 1 if forcing and k >= 2 else k)

    reason = rejection(idx)
    event(str(reason))
    if reason is None:
        return
    if reason == "singleton_prunes":
        assert all(rejection(j) == reason for j in range(idx, len(pool)))
        completions = combinations([key for key, *_ in pool[idx:]], after + 1)
    else:
        completions = ([pool[idx][0], *rest]
                       for rest in combinations([key for key, *_ in pool[idx + 1:]], after))
    for completion in completions:
        keys = chosen + list(completion) + top
        assert not (_accepted_shape(keys, k, forcing)
                    and verify_saturated_k_sperner(Family.from_keys(m, keys), k).verdict), \
            (reason, [hex(key) for key in keys])


def _relabel(mask, perm):
    return sum(1 << perm[b] for b in range(len(perm)) if mask >> b & 1)


@pytest.mark.parametrize("m", range(6))
def test_image_tables_relabel_every_mask(m):
    tables = _image_tables(m)
    assert len(tables) == factorial(m)
    for table, perm in zip(tables, permutations(range(m))):
        assert list(table) == [_relabel(mask, perm) for mask in range(1 << m)]


def _orbit_least(members, m):
    keys = [(mem.has_H, mem.atom_count, mem.atom_mask) for mem in members]
    return all(sorted((mem.has_H, mem.atom_count, _relabel(mem.atom_mask, perm)) for mem in members) >= keys
               for perm in permutations(range(m)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.data())
def test_groupwise_orbit_check_matches_the_definition(m, data):
    """Walk one depth-first path: each candidate's verdict, from the
    relabelings that fix every completed group, equals the direct one, and
    a passing check returns, in order, the tables that fix the new group."""
    pool = sorted((Member(mask, has_h) for has_h in (False, True) for mask in range(1 << m)),
                  key=Member.key)
    tables = _image_tables(m)[1:]
    chosen, live, group, fixing, group_key = [], tables, [], tables, None
    start = 0
    while start < len(pool):
        idx = data.draw(st.integers(start, len(pool) - 1))
        mem = pool[idx]
        start = idx + 1
        key = (mem.has_H, mem.atom_count)
        if group and key == group_key:
            next_live, next_group = live, group + [mem.atom_mask]
        else:
            next_live, next_group = fixing, [mem.atom_mask]
        next_fixing = _fixing(next_live, next_group)
        verdict = next_fixing is not None
        assert verdict == _orbit_least(chosen + [mem], m)
        if verdict:
            assert next_fixing == [t for t in next_live if sorted(t[x] for x in next_group) == next_group]
            chosen.append(mem)
            live, group, fixing, group_key = next_live, next_group, next_fixing, key
