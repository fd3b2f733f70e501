"""Builders for saturated k-Sperner systems and the antichain reduction.

The power-set construction gives 2^(k-1) members for every k >= 2.  The
hand-built 7-layer system on 7 atoms has 56 members, beating 2^6 = 64;
composing it with itself and with the 4-member 3-layer system yields
systems of degree 5j+2+s and size 2^(s+1) * 28^j, which is where the
improved upper-bound exponent comes from.

reduce_antichain implements the rewriting that turns any saturated
antichain into one whose small members are singletons, without growing it:
pick an atom inside a non-singleton small member, shrink that member to
the bare atom, delete the atom everywhere else, then resolve the
containments this creates (keep minimal smalls, maximal larges; a small
inside a large redirects the rewrite to one of its atoms).  Each round
retires one atom for good: at most m rounds, each one sort and one scan.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import log2, prod

from .family import (
    H_BIT,
    MAX_ATOMS,
    CapacityError,
    Family,
    Member,
    _written,
    first_contained_pair,
    mask_of_atoms,
)
from .saturation import is_saturated_antichain, verify_saturated_k_sperner

# compose() and the two builders refuse, before building, to make more members than this.
MAX_MEMBERS = 1 << 21


def trivial_construction(k: int) -> Family:
    """All subsets of k-2 atoms as smalls, plus their complements: the
    2^(k-1)-member baseline, saturated with k layers, as the product of k-2
    copies of three_sperner().  Raises CapacityError, before building
    anything, beyond MAX_ATOMS atoms or MAX_MEMBERS members (from k = 23 on)."""
    return _product(CompositionPlan(k, 0, k - 2))[0]


def three_sperner() -> Family:
    """Minimum 3-layer system: empty set, one atom, H, and their union."""
    return Family.from_keys(1, [0, 1, H_BIT, H_BIT | 1])


def seven56() -> Family:
    """The 56-member system on 7 atoms with 7 layers.

    Layer 1 keeps five of the seven atoms as singletons; the two missing
    ones reappear in the single large member.  Layer 2 takes the cyclically
    consecutive pairs and the size-3 atom sets with no consecutive pair;
    layer 3 takes a projective-plane line set and the complements of its
    lines.  Layers 4-6 are the complements of layers 2-0, so the family is
    closed under complement.
    """
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7)]
    spread = [(3, 5, 7), (1, 4, 6), (2, 5, 7), (1, 3, 6), (2, 4, 7), (1, 3, 5), (2, 4, 6)]
    lines = [(1, 2, 6), (2, 3, 7), (1, 3, 4), (2, 4, 5), (3, 5, 6), (4, 6, 7), (1, 5, 7)]
    # layers 0, 1 and 2, then the lines of layer 3; the complements of all
    # of them are the rest of layer 3 and layers 6, 5 and 4
    lower = ([mask_of_atoms(s) for s in [(), (2,), (3,), (5,), (6,), (7,)] + pairs + lines]
             + [H_BIT | mask_of_atoms(s) for s in [(1, 4)] + spread])
    full = H_BIT | 0x7F
    return Family.from_keys(7, lower + [key ^ full for key in lower])


# the fixed-degree blocks `construct --kind` emits: name -> (builder, degree)
BLOCKS = {"three": (three_sperner, 3), "seven56": (seven56, 7)}


def compose(*factors: Family) -> Family:
    """Product on disjoint atom universes, each factor's atoms after those of
    the factors before it: smalls pair with smalls, larges with larges (their
    H blocks merge).  The size is the product of the small counts plus that
    of the large counts; n saturated factors give degree k1 + ... + kn -
    2(n - 1), and none give {empty, H} over 0 atoms, trivial_construction(2).
    Raises CapacityError, before building, beyond MAX_ATOMS atoms or
    MAX_MEMBERS members."""
    m = sum(f.m for f in factors)
    if m > MAX_ATOMS:
        raise CapacityError(f"composed universe needs {m} atoms, limit is {MAX_ATOMS}")
    # a factor's keys are its smalls, then its larges
    splits = [bisect_left(f.keys, H_BIT) for f in factors]
    size = prod(splits) + prod(f.size - split for f, split in zip(factors, splits))
    if size > MAX_MEMBERS:
        raise CapacityError(f"composed family needs {size} members, limit is {MAX_MEMBERS}")
    smalls, larges, shift = [0], [H_BIT], 0
    for f, split in zip(factors, splits):
        # with each factor's masks ascending and outermost, the keys come out
        # ascending, which Family's sort passes over in one run
        smalls = [b << shift | a for b in sorted(f.keys[:split]) for a in smalls]
        larges = [(b ^ H_BIT) << shift | a for b in sorted(f.keys[split:]) for a in larges]
        shift += f.m
    return Family.from_keys(m, smalls + larges)


@dataclass(frozen=True)
class CompositionPlan:
    """The composition law: j seven56() and s three_sperner() blocks, on
    7j + s atoms, compose to degree k = 5j + 2 + s with 2^(s+1) * 28^j members."""

    k: int
    j: int
    s: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")

    @classmethod
    def of(cls, k: int) -> CompositionPlan:
        """bootstrapped(k)'s plan: as many seven56() blocks as fit."""
        return cls(k, *divmod(k - 2, 5))

    @property
    def predicted_size(self) -> int:
        return 2 ** (self.s + 1) * 28 ** self.j

    @property
    def size_log2(self) -> float:
        return (self.s + 1) + self.j * log2(28.0)


def _product(plan: CompositionPlan, detail: str = "") -> tuple[Family, CompositionPlan]:
    """compose() of plan.j copies of seven56() and plan.s of three_sperner(),
    with the plan.  Raises CapacityError, before building, beyond MAX_ATOMS
    atoms or MAX_MEMBERS members.  The atoms are compared first, so the size
    is only formed once they fit, where it is below 2^64, and a refusal
    costs no more than writing k and the atom count (by _written)."""
    if (atoms := 7 * plan.j + plan.s) > MAX_ATOMS:
        raise CapacityError(f"degree {_written(plan.k)} needs {_written(atoms)} atoms "
                            f"(limit {MAX_ATOMS}){detail}")
    if (need := plan.predicted_size) > MAX_MEMBERS:
        raise CapacityError(f"degree {plan.k} needs {need} members (limit {MAX_MEMBERS}){detail}")
    return compose(*[seven56()] * plan.j, *[three_sperner()] * plan.s), plan


def bootstrapped(k: int) -> tuple[Family, CompositionPlan]:
    """Best available construction for degree k: the product of
    CompositionPlan.of(k), with as many 56-member systems as fit.
    For k < 7 this reproduces the power-set construction exactly.  Raises
    CapacityError, from the plan and before building anything, when the
    composed universe would exceed MAX_ATOMS atoms or the family MAX_MEMBERS
    members."""
    plan = CompositionPlan.of(k)
    return _product(plan, f"; plan: j={_written(plan.j)} s={plan.s}")


@dataclass(frozen=True)
class TraceStep:
    index: int
    action: str          # choose | replace | strip | merge | drop_small_superset | drop_large_subset | reassign
    before: Member | None
    after: Member | None
    atom: int | None = None

    def describe(self) -> str:
        parts = [f"{self.index}", self.action]
        if self.atom is not None:
            parts.append(f"atom={self.atom}")
        if self.before is not None:
            parts.append(f"before=[{self.before}]")
        if self.after is not None:
            parts.append(f"after=[{self.after}]")
        return " ".join(parts)


@dataclass(frozen=True)
class ReductionTrace:
    """Replayable log: applying the removals and insertions in order to the
    input membership reproduces the output."""

    steps: tuple[TraceStep, ...]

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)

    def replay(self, start: Family) -> Family:
        current = set(start.members)
        for step in self.steps:
            if step.action in ("choose", "reassign"):
                continue
            if step.before is not None:
                current.discard(step.before)
            if step.after is not None:
                current.add(step.after)
        return Family(start.m, tuple(current))


def _lowest_atom(small: int) -> int:
    """The lowest atom of a small member's packed key, its atom mask."""
    return (small & -small).bit_length()


def reduce_antichain(a: Family) -> tuple[Family, ReductionTrace]:
    """Rewrite a saturated antichain until every small member is a singleton.

    Never grows the family, preserves saturation, and leaves an input whose
    smalls already are singletons untouched.  Raises ValueError if the input
    is not a saturated antichain and RuntimeError if any postcondition fails
    (a defect, not an input error).  Only the trace holds Members.  A round
    retires its atom for good: after it the atom is only in its singleton,
    which no large contains, so no later target (a multi-atom small, or a
    small inside a large) has it as lowest atom; over m rounds is a defect.
    """
    saturated, _ = is_saturated_antichain(a)
    if not saturated:
        raise ValueError("input antichain is not saturated")
    keys = list(a.keys)  # the working family, in canonical order
    steps: list[TraceStep] = []

    def log(action, before=None, after=None, atom=None):
        before, after = (None if key is None else Member(key & ~H_BIT, key >= H_BIT)
                         for key in (before, after))
        steps.append(TraceStep(len(steps), action, before, after, atom))

    def first_multi_atom_small(keys):
        return next((key for key in keys if key < H_BIT and key.bit_count() > 1), None)

    had_multi_atom_small = first_multi_atom_small(a.keys) is not None
    target = None  # the small a containment redirected the rewrite to
    for rounds in range(a.m + 1):
        if target is None:
            target = first_multi_atom_small(keys)
            if target is None:
                break
            log("choose", before=target, atom=_lowest_atom(target))
        if rounds == a.m:
            raise RuntimeError("reduction exceeded its iteration bound; this is a defect")
        atom = _lowest_atom(target)
        bit = 1 << (atom - 1)  # the singleton small of the atom, as a packed key
        if target != bit:
            log("replace", before=target, after=bit, atom=atom)
        # the target becomes bit, every other key holding the atom loses it
        kept = {bit, *(key for key in keys if not key & bit)}
        for key in keys:
            if key & bit and key not in (bit, target):
                stripped = key ^ bit
                log("merge" if stripped in kept else "strip", before=key, after=stripped, atom=atom)
                kept.add(stripped)
        keys = list(Family.from_keys(a.m, kept).keys)
        # a drop makes no pair, so the scan resumes at the row of the last one
        target, row = None, 0
        while (pair := first_contained_pair(keys, row)) is not None:
            row, j = pair
            if keys[j] < H_BIT:
                log("drop_small_superset", before=keys.pop(j))
            elif keys[row] >= H_BIT:
                log("drop_large_subset", before=keys.pop(row))
            else:
                target = keys[row]
                log("reassign", before=target, atom=_lowest_atom(target))
                break
    result = Family.from_keys(a.m, keys)
    if result.size > a.size:
        raise RuntimeError("reduction grew the family; this is a defect")
    if not verify_saturated_k_sperner(result, 1).verdict:
        raise RuntimeError("reduction lost saturation; this is a defect")
    if first_multi_atom_small(result.keys) is not None:
        raise RuntimeError("reduction left a multi-atom small; this is a defect")
    if not had_multi_atom_small and result != a:
        raise RuntimeError("reduction changed an already-reduced input; this is a defect")
    return result, ReductionTrace(tuple(steps))
