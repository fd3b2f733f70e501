"""Bounded exhaustive search for minimum saturated k-Sperner systems.

Candidates are enumerated by size, then by universe size, then depth-first
by appending members in canonical order.  Partial families are pruned when
they already hold a chain of k+1 members, and when they are not the
lexicographically least relabeling of themselves, so each isomorphism class
is expanded once.  With structural forcing on (the default) the empty set
and the full set are fixed in every candidate and complete candidates must
show the layer-1 shape that any minimum system can be rewritten into:
singleton smalls, at least k-2 of them, exactly one large.  Forcing narrows
the space to where a minimum must live; disable it to sweep the raw space
at tiny bounds.

Canonical order is a linear extension of containment, so appending never
changes the depth (longest chain from below) of a member already chosen,
and a candidate's depth is 1 + the largest depth among the chosen members
inside it.  The depths travel with the depth-first stack as tables on the
(m+1)-bit lattice of points, a point being an atom mask with H as bit m:
above[i] is the up-closure of the chosen members of depth i+1, the points
that contain one of them (every point, for the forced bottom).  Each pool
candidate carries the up-closure of its own point; appending a member ORs
it into its depth's entry, and popping it puts the old entry back.  The
tables nest: a point in above[i], i >= 1, contains a chosen member of
depth i+1, which contains one of depth i, so the point is in above[i-1]
too.  So the tables holding a candidate's point are above[0] up to
above[d-1], d the largest depth among the chosen members inside it, and
its depth is 1 + their number.  The largest depth of the chosen members
travels as a parameter.  Relabelings read one image table per atom
permutation (the image of every atom mask, m! * 2^m bytes per m); the
orbit check compares only the relabelings that fix every completed group
of equal (H flag, atom count), only on the open group, and hands those
that fix it too down to the next group (the argument is at _fixing).  The
candidate pool (each candidate's packed key, atom mask, group, coverage
table and up-closure) and the image tables of each m are built once per
call, when the search first reaches that m; the search builds no Member.

A complete candidate (a leaf) must have what every accepted family has:
  1. largest depth k, because the verifier's layer count is the largest
     depth and a true verdict needs exactly k layers;
  2. with forcing on and k >= 3, the forced layer-1 shape in its depth-2
     members (the verifier's layer 1): singleton smalls, at least k-2 of
     them, exactly one large.
A leaf that has them is decided by _accepted from coverage tables that
travel with the depth-first stack; the verifier is not called.  A small
covers the atom subsets that contain its mask, a large those inside its
mask, and each pool candidate carries that table, the up- or down-closure
of its atom mask; the forced bottom and top cover every subset.  The stack
keeps cover[i], the OR of the tables of the chosen members of depth i+1:
appending a member ORs its table into its depth's entry, and popping it
puts the old entry back.  The leaf is accepted iff its largest depth, plus
1 for the forced top, is k and every cover[i] up to the largest depth
holds every subset; the forced top, whose key holds every other member's,
is alone in its layer and covers every subset.  This is
verify_saturated_k_sperner's verdict.  Its layers are the members of
equal depth, and the carried depths are its depths.  It scans layer i
through closure(smalls, upward) | closure(larges, downward) and accepts
iff first_hole finds no hole in any layer.  Closure distributes over
union, so that table is the OR of the layer's members' own closures,
which is cover[i].

Roots below the size and atom floors of _floors are never expanded: no
family there is accepted (the argument is at _floors).  Above them, a
candidate is turned down before the orbit check when no leaf below it has
1 and 2 and is accepted, so the search reaches the same first accepted
leaf as when every leaf of those roots was built and checked; only
subtrees with no accepted leaf are dropped.  As a chosen member's depth
is final, with forcing on and k >= 3 (the empty set alone at depth 1, so
every singleton small sits at depth 2):
  (a) a small of two atoms or more at depth 2 puts a non-singleton small in
      layer 1;
  (b) a second large at depth 2 puts two larges in layer 1;
  (c) singletons come before every other candidate in the pool, so once a
      non-singleton is reached with fewer than k-2 singletons chosen, no
      later candidate can give layer 1 its k-2 smalls, and the candidate
      loop ends;
and under every setting
  (d) a member covers atom subsets only in its own layer, so each layer up
      to the chosen members' largest depth whose cover entry is not full
      needs at least one later member of that depth, and each depth from
      there up to the depth limit (k-1 under forcing, where the full set
      adds the last level, k otherwise) needs one too.  These members sit
      at distinct depths, so they are distinct, and a candidate is turned
      down when the members still to append after it are fewer than
      holes' + (depth limit - height'), holes' being the layers up to
      height', the largest depth once it is appended, that still have a
      hole.  With no hole this is the layer-count rule: each appended
      member raises the largest depth by at most 1.
The chosen singletons, whether a depth-2 large is chosen and the number
of layers up to the largest depth that have a hole travel with the
depth-first stack; a candidate's depth is at most the largest + 1, so it
updates that number in O(1) from its own layer's entry.  Every leaf the
search reaches is then accepted: by (d) and the chain prune its largest
depth is the depth limit and every layer is full, which is _accepted's
verdict.  It also has all of 2: under forcing with k >= 3 the forced top sits at
depth k, (a) leaves only singleton smalls at depth 2, (b) at most one
large, and by (c) a leaf holds k-2 singletons before any other member, or
only singletons, size-2 >= 3k-7 >= k-2 of them; and a full layer 1 covers
the empty atom set, which among depth-2 members only a large covers.  So
no leaf is turned down for its shape.

A FOUND family, the only Family the search builds, is re-verified from
scratch by verify_saturated_k_sperner.  NONE_WITHIN_BOUNDS is only emitted
after the whole pruned space was exhausted, and the certificate repeats
the exact bounds (and the forcing flag) the claim is relative to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache, partial
from itertools import permutations

import numpy as np

# member_depths is not called here; perfbench/test_smoke.py reads the binding.
from .family import H_BIT, CapacityError, Family, member_depths  # noqa: F401
from .lattice import closure, pack
from .saturation import verify_saturated_k_sperner

FOUND = "FOUND"
NONE_WITHIN_BOUNDS = "NONE_WITHIN_BOUNDS"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

# The image tables take m! * 2^m bytes: 10 MB at m = 8, 186 MB at m = 9.
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
        if not 0 <= self.max_atoms <= CANONICAL_MAX_ATOMS:
            raise ValueError(f"max_atoms must be in [0, {CANONICAL_MAX_ATOMS}]")
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
class SearchCounts:
    """Where the candidates went.  Every candidate tried becomes a node or
    exactly one of the chain, orbit, singleton, reach and layer-1 prunes
    (a singleton prune also ends its candidate loop); every leaf node is a
    verified leaf, which the candidate rules make an accepted one, so
    shape_prunes stays 0."""

    candidates: int = 0
    chain_prunes: int = 0
    orbit_prunes: int = 0
    shape_prunes: int = 0
    leaves_verified: int = 0
    singleton_prunes: int = 0
    reach_prunes: int = 0
    layer1_prunes: int = 0


@dataclass(frozen=True)
class SearchResult:
    outcome: str
    family: Family | None
    nodes: int
    certificate: Certificate | None
    counts: SearchCounts = field(default_factory=SearchCounts)


def _image_tables(m: int) -> list[bytes]:
    """One table per atom permutation, identity first: table[mask] is the
    image of the atom mask.  m! * 2^m bytes in all."""
    perms = np.array(list(permutations(range(m))), dtype=np.uint8)
    table = np.zeros((len(perms), 1 << m), dtype=np.uint8)
    for b in range(m):
        table[:, 1 << b:2 << b] = table[:, :1 << b] | (np.uint8(1) << perms[:, b])[:, None]
    return [row.tobytes() for row in table]


def canonical_form(f: Family) -> Family:
    """Least relabeling of the atoms: the member list whose canonical keys
    are lexicographically smallest over all m! atom permutations.  Two
    families are isomorphic iff their canonical forms are equal.  Raises
    CapacityError beyond CANONICAL_MAX_ATOMS atoms."""
    if f.m > CANONICAL_MAX_ATOMS:
        raise CapacityError(f"canonical form supports at most {CANONICAL_MAX_ATOMS} atoms")
    # a large's bit count includes H, which keeps the larges in atom-count order
    entries = [(key >= H_BIT, key.bit_count(), key & ~H_BIT) for key in f.keys]
    best = min(sorted([(has_h, count, table[mask]) for has_h, count, mask in entries])
               for table in _image_tables(f.m))
    return Family.from_keys(f.m, [H_BIT * has_h | mask for has_h, _, mask in best])


# The orbit check.  A relabeling keeps every member's H flag and atom count,
# so the sorted keys of a relabeled family fall into the same groups of equal
# (H flag, atom count) as the family's own, and the two compare group by group.
# Members arrive group after group, and every prefix already passed the check:
# a relabeling that moves a completed group sorts it above itself, which no
# later member can undo.  Only the relabelings that fix every completed group
# (`live`) are compared, and only on the open group, and the check returns
# those that fix it too: the next group's live, which the search hands down.

def _fixing(live, group: list[int]) -> list[bytes] | None:
    """None if a table of live maps the ascending masks of group to a smaller
    sorted list, else the tables of live that map them onto themselves."""
    fixing = []
    for table in live:
        if (image := sorted([table[x] for x in group])) < group:
            return None
        if image == group:
            fixing.append(table)
    return fixing


def _floors(k: int, shaped: bool) -> tuple[int, int]:
    """(size, atoms): the fewest members and atoms an accepted family has.

    An accepted family has exactly k layers, each a saturated antichain.  A
    one-member saturated layer is {empty set} (every atom subset contains
    its small) or {all atoms + H} (every atom subset fits inside its large).
    The first is inside every other member and the second holds every
    other member, so they can sit only in layer 0 and in layer k-1, and
    each of the k-2 layers between holds two members or more: size >= 2k-2
    for k >= 2, and size >= 1 for k = 1.  Under forcing with k >= 3, layer
    0 and layer k-1 are those two sets and layer 1 holds at least k-2
    singleton smalls and one large: size >= 1 + (k-1) + 2(k-3) + 1 = 3k-5.
    A chain over m atoms + H is smalls, then larges, and the atom count
    rises at every step but the one from a small to a large, so it has at
    most m+2 members; k layers need a chain of k members, so m >= k-2.
    """
    if shaped:
        return 3 * k - 5, k - 2
    return max(1, 2 * k - 2), max(0, k - 2)


def _candidate_rejection(kind, depth: int, reach: int, singletons: int, large2: bool,
                         k: int, shaped: bool, depth_limit: int) -> str | None:
    """The SearchCounts field of the first test that turns down appending a
    candidate of this kind (H flag, atom count) and carried depth, or None
    when the orbit check has to decide.  reach is the larger of its depth
    and the chosen members' largest, plus the members still to append after
    it, minus the layers up to that depth that have a hole once it is
    appended; singletons counts the chosen singleton smalls, large2 says whether
    a depth-2 large is chosen, shaped whether leaves need the forced layer-1
    shape, and depth_limit is rule (d)'s.  Below a turned-down candidate no
    leaf has 1 and 2 of the module docstring (by its rules (a)-(d)), and
    "singleton_prunes" turns down every later candidate of the pool too."""
    if shaped and singletons < k - 2 and kind != (False, 1):
        return "singleton_prunes"
    if depth > depth_limit:
        return "chain_prunes"
    if reach < depth_limit:
        return "reach_prunes"
    if shaped and depth == 2 and (large2 if kind[0] else kind[1] >= 2):
        return "layer1_prunes"
    return None


class _Budget(Exception):
    pass


def _space(m: int, force: bool):
    """(pool, tables, bottom, top) on m atoms: the candidates in canonical
    order as (packed key, atom mask, group (H flag, atom count), cover, up),
    cover being the table of the atom subsets the candidate covers in its
    layer and up the up-closure of its point on the (m+1)-bit lattice with
    H as bit m; the image tables without the identity (which never sorts
    lower), and the packed keys of the forced bottom and top."""
    forced = [0, H_BIT | (1 << m) - 1] if force else []
    ordered = sorted(((has_h, mask.bit_count()), mask)
                     for has_h in (False, True) for mask in range(1 << m))
    pool = [(key, mask, kind, closure(pack([mask], m), m, upward=not kind[0]),
             closure(pack([mask | kind[0] << m], m + 1), m + 1, upward=True))
            for kind, mask in ordered if (key := H_BIT * kind[0] | mask) not in forced]
    return pool, _image_tables(m)[1:], forced[:1], forced[1:]


def _accepted(m: int, leaf: list[int], covers: list[int], k: int) -> list[int] | None:
    """leaf, the packed keys of a complete candidate over m atoms, if
    verify_saturated_k_sperner accepts it for k, else None.  covers holds
    the table of what each of its depth layers covers, in depth order; the
    verdict reads them alone (the argument is in the module docstring)."""
    full = (1 << (1 << m)) - 1
    return leaf if covers.count(full) == len(covers) == k else None


def search_min(bounds: SearchBounds, *, forcing: bool = True) -> SearchResult:
    """Smallest saturated system with the given degree inside the bounds.

    Outcomes: FOUND with a verified family of minimum size within bounds,
    NONE_WITHIN_BOUNDS with an exhaustiveness certificate, or
    BUDGET_EXHAUSTED once more than `bounds.budget` nodes were expanded.
    """
    k = bounds.k
    force = forcing and k >= 2
    shaped = forcing and k >= 3
    depth_limit = k - 1 if force else k
    nodes = 0
    tally = dict.fromkeys((f.name for f in fields(SearchCounts)), 0)
    space = cache(partial(_space, force=force))

    def dfs(start, live, group, fixing, group_kind, singletons, large2, height, holes):
        # Extends keys, cover and above (every member but the forced top)
        # from pool[start:]; live, group, group_kind and fixing (live's
        # tables that fix group) are the orbit check's state, singletons and
        # large2 _candidate_rejection's, height the chosen members' largest
        # depth and holes the number of cover[:height] entries that are not full.
        # Returns the keys of the first accepted leaf, or None.
        nonlocal nodes
        nodes += 1
        if nodes > bounds.budget:
            raise _Budget()
        if len(keys) == need:
            tally["leaves_verified"] += 1
            return _accepted(m, keys + top, cover[:height] + [full] * len(top), k)
        after = need - len(keys) - 1  # members still to append after a candidate
        for idx in range(start, len(pool) + len(keys) - need + 1):
            key, mask, kind, covered, up = pool[idx]
            tally["candidates"] += 1
            point, depth = mask | kind[0] << m, 1
            while above[depth - 1] >> point & 1:  # above[height] is empty
                depth += 1
            held, held_above = cover[depth - 1], above[depth - 1]  # 0, 0 at depth height + 1
            next_holes = holes - (depth <= height and held != full) + (held | covered != full)
            reason = _candidate_rejection(kind, depth, max(height, depth) + after - next_holes,
                                          singletons, large2, k, shaped, depth_limit)
            if reason is not None:
                tally[reason] += 1
                if reason == "singleton_prunes":
                    break
                continue
            if kind == group_kind:
                next_live, next_group = live, group + [mask]
            else:
                next_live, next_group = fixing, [mask]
            if (next_fixing := _fixing(next_live, next_group)) is None:
                tally["orbit_prunes"] += 1
                continue
            keys.append(key)
            cover[depth - 1], above[depth - 1] = held | covered, held_above | up
            found = dfs(idx + 1, next_live, next_group, next_fixing, kind, singletons + (kind == (False, 1)),
                        large2 or (kind[0] and depth == 2), max(height, depth), next_holes)
            keys.pop()
            cover[depth - 1], above[depth - 1] = held, held_above
            if found is not None:
                return found
        return None

    def result(outcome, family=None, certificate=None):
        return SearchResult(outcome, family, nodes, certificate, SearchCounts(**tally))

    size_floor, atom_floor = _floors(k, shaped)
    try:
        for size in range(size_floor, bounds.max_size + 1):
            for m in range(atom_floor, bounds.max_atoms + 1):
                pool, tables, bottom, top = space(m)
                need = size - len(top)
                full = (1 << (1 << m)) - 1  # every atom subset, what the forced bottom and top cover
                keys = list(bottom)
                # cover[i]: the subsets covered by the chosen members of depth i+1;
                # above[i]: the points that contain one of them
                cover = [full] * len(bottom) + [0] * need
                above = [(1 << (2 << m)) - 1] * len(bottom) + [0] * need
                found = dfs(0, tables, [], tables, None, 0, False, len(bottom), 0)
                if found is not None:
                    family = Family.from_keys(m, found)
                    if not verify_saturated_k_sperner(family, k).verdict:
                        raise RuntimeError("search emitted an unverified family; this is a defect")
                    return result(FOUND, family)
    except _Budget:
        return result(BUDGET_EXHAUSTED)
    certificate = Certificate(k=k, max_atoms=bounds.max_atoms,
                              max_size=bounds.max_size, forced=force)
    return result(NONE_WITHIN_BOUNDS, certificate=certificate)
