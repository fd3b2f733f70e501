"""Bounded exhaustive search for minimum saturated k-Sperner systems.

Candidates are enumerated by size, then by universe size, then depth-first
by appending members in canonical order.  Partial families are pruned when
they already hold a chain of k+1 members, and (atom universes up to 8) when
they are not the lexicographically least relabeling of themselves, so each
isomorphism class is expanded once.  With structural forcing on (the
default) the empty set and the full set are fixed in every candidate and
complete candidates must show the layer-1 shape that any minimum system
can be rewritten into: singleton smalls, at least k-2 of them, exactly one
large.  Forcing narrows the space to where a minimum must live; disable it
to sweep the raw space at tiny bounds.

FOUND results are re-verified before they are returned.  NONE_WITHIN_BOUNDS
is only emitted after the whole pruned space was exhausted, and the
certificate repeats the exact bounds (and the forcing flag) the claim is
relative to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .family import Family, Member, member_depths
from .saturation import size_bounds_check, verify_saturated_k_sperner

FOUND = "FOUND"
NONE_WITHIN_BOUNDS = "NONE_WITHIN_BOUNDS"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

CANONICAL_MAX_ATOMS = 8


@dataclass(frozen=True)
class SearchBounds:
    k: int
    max_atoms: int
    max_size: int
    budget: int = 1_000_000

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= self.max_atoms <= 10:
            raise ValueError("max_atoms must be in [0, 10]")
        if not 1 <= self.max_size <= 64:
            raise ValueError("max_size must be in [1, 64]")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True)
class Certificate:
    """Exact bounds an exhaustive NONE claim is relative to."""

    k: int
    max_atoms: int
    max_size: int
    forced: bool


@dataclass(frozen=True)
class SearchResult:
    outcome: str
    family: Family | None
    nodes: int
    certificate: Certificate | None


def _atom_perms(m: int) -> list[tuple[int, ...]]:
    # perm[b] = image bit position of bit b
    return [tuple(p) for p in permutations(range(m))]


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _permuted_keys(members, perms):
    """For each atom permutation, the sorted canonical keys of the relabeled
    members."""
    for perm in perms:
        yield tuple(sorted((mem.has_H, mem.atom_count, _permute_mask(mem.atom_mask, perm))
                           for mem in members))


def canonical_form(f: Family) -> Family:
    """Least relabeling of the atoms: the member list whose canonical keys
    are lexicographically smallest over all m! atom permutations.  Two
    families are isomorphic iff their canonical forms are equal."""
    if f.m > CANONICAL_MAX_ATOMS:
        raise ValueError(f"canonical form supports at most {CANONICAL_MAX_ATOMS} atoms")
    best = min(_permuted_keys(f.members, _atom_perms(f.m)))
    return Family(f.m, tuple(Member(mask, has_h) for has_h, _, mask in best))


def _is_orbit_least(members: list[Member], perms) -> bool:
    base = tuple(mem.key() for mem in members)
    return all(keys >= base for keys in _permuted_keys(members, perms))


def _chain_fits(members: list[Member], k: int) -> bool:
    if not members:
        return True
    return int(member_depths(sorted(members, key=Member.key)).max()) <= k


def _layer1_shape_ok(report, k: int) -> bool:
    # only asked after a true verdict, so the decomposition has k layers
    if k < 3:
        return True
    d = size_bounds_check(report.decomposition, k)
    return d.layer1_small_singletons and d.layer1_small_count_ok and d.layer1_single_large


class _Budget(Exception):
    pass


def search_min(bounds: SearchBounds, *, forcing: bool = True) -> SearchResult:
    """Smallest saturated system with the given degree inside the bounds.

    Outcomes: FOUND with a verified family of minimum size within bounds,
    NONE_WITHIN_BOUNDS with an exhaustiveness certificate, or
    BUDGET_EXHAUSTED once more than `bounds.budget` nodes were expanded.
    """
    k = bounds.k
    nodes = 0
    found: list[Family] = []

    def dfs(m, perms, pool, chosen, next_index, size, forced_count):
        nonlocal nodes
        nodes += 1
        if nodes > bounds.budget:
            raise _Budget()
        if len(chosen) == size:
            family = Family(m, tuple(chosen))
            report = verify_saturated_k_sperner(family, k)
            if not report.verdict:
                return False
            if forcing and not _layer1_shape_ok(report, k):
                return False
            found.append(family)
            return True
        slack = size - len(chosen)
        for idx in range(next_index, len(pool) - slack + 1):
            candidate = pool[idx]
            extended = chosen + [candidate]
            if not _chain_fits(extended, k):
                continue
            if m <= CANONICAL_MAX_ATOMS and not _is_orbit_least(extended[forced_count:], perms):
                continue
            if dfs(m, perms, pool, extended, idx + 1, size, forced_count):
                return True
        return False

    try:
        for size in range(1, bounds.max_size + 1):
            for m in range(0, bounds.max_atoms + 1):
                force = forcing and k >= 2
                forced = [Member(0, False), Member((1 << m) - 1, True)] if force else []
                if len(forced) > size:
                    continue
                if forced and not _chain_fits(forced, k):
                    continue
                forced_set = set(forced)
                pool = sorted(
                    (Member(mask, has_h)
                     for has_h in (False, True)
                     for mask in range(1 << m)
                     if Member(mask, has_h) not in forced_set),
                    key=Member.key,
                )
                perms = _atom_perms(m) if m <= CANONICAL_MAX_ATOMS else []
                if dfs(m, perms, pool, list(forced), 0, size, len(forced)):
                    family = found[0]
                    report = verify_saturated_k_sperner(family, k)
                    if not report.verdict:
                        raise RuntimeError("search emitted an unverified family; this is a defect")
                    return SearchResult(FOUND, family, nodes, None)
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, nodes, None)
    certificate = Certificate(k=k, max_atoms=bounds.max_atoms,
                              max_size=bounds.max_size, forced=forcing and k >= 2)
    return SearchResult(NONE_WITHIN_BOUNDS, None, nodes, certificate)
