"""Saturation tests for antichain layers and whole systems.

An antichain layer over m atoms is saturated when every subset T of the
atom universe contains some small member or fits inside some large one.
Checking all 2^m subsets is exact: a candidate set meeting only part of H
compares to smalls and larges exactly as its atom part does.  A system is
a saturated k-Sperner family precisely when its canonical decomposition
has exactly k layers and each layer passes this test; the verifier scans
the atom masks of each depth's members.
Every report that is a JSON document of its own gets to_json_dict from one
base class.

The module also carries the fully concrete side: instantiating the block H
as h real elements, recovering the atom structure of a concrete family
from membership fingerprints, and a brute-force saturation oracle that
works on raw subsets of {1..n} and never consults the layer machinery.
The oracle keeps its own kernel: each set of subsets of {1..n} is one
Python int with a bit per point of P([n]), chain depths come from peeling
levels of the member table with its own strict-closure bit loop, and no
numpy call is made.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import islice

from .family import (
    H_BIT,
    MAX_ATOMS,
    CapacityError,
    Family,
    Member,
    _depth_layers,
    _parse_members,
    _written,
    atoms_of_mask,
    member_depths,
)
from .lattice import SCAN_MAX_ATOMS, closure, first_hole, pack

# 2^n oracle tables stay tractable up to here.
ORACLE_MAX_GROUND = 24


def _first_uncovered(m: int, smalls: list[int], larges: list[int]) -> int | None:
    """Mask of the first atom subset of m atoms, in canonical order, that
    contains no mask of smalls and fits inside no mask of larges, or None."""
    covered = closure(pack(smalls, m), m, upward=True)
    covered |= closure(pack(larges, m), m, upward=False)
    return first_hole(covered, m)


WRONG_LAYER_COUNT = "WRONG_LAYER_COUNT"
LAYER_NOT_SATURATED = "LAYER_NOT_SATURATED"


def _json_fields(report) -> dict:
    """A report's fields in declaration order as JSON values.  Metadata
    renames or moves a field: atoms=name writes an atom mask as its atom
    list (or null) under name, margin=name puts the value under "margins"
    (the last key) by name."""
    out, margins = {}, {}
    for f in fields(report):
        value = getattr(report, f.name)
        if "atoms" in f.metadata:
            out[f.metadata["atoms"]] = None if value is None else list(atoms_of_mask(value))
        elif "margin" in f.metadata:
            margins[f.metadata["margin"]] = _json_value(value)
        else:
            out[f.name] = _json_value(value)
    return {**out, "margins": margins} if margins else out


class _JsonDocument:
    """A report that is a JSON document of its own: schema_version 1, then
    its fields as _json_fields writes them."""

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, **_json_fields(self)}


def _json_value(value):
    """A dataclass as its own document, a tuple as a list, a mapping with
    its keys as strings in ascending order (values as they are), inf as null."""
    if is_dataclass(value):
        return _json_fields(value)
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): item for key, item in sorted(value.items())}
    return None if value == math.inf else value


@dataclass(frozen=True)
class LayerReport:
    index: int
    size: int
    small: int
    large: int
    antichain: bool
    saturated: bool
    witness_mask: int | None = field(metadata={"atoms": "witness"})


@dataclass(frozen=True)
class Reason:
    code: str
    layer: int | None = None
    witness_mask: int | None = field(default=None, metadata={"atoms": "witness"})

    def describe(self) -> str:
        if self.code == WRONG_LAYER_COUNT:
            return self.code
        witness = Member(self.witness_mask or 0, False)
        return f"{self.code} layer={self.layer} witness=[{witness}]"


@dataclass(frozen=True)
class VerificationReport(_JsonDocument):
    """Outcome of the layer-based saturation check for one (family, k)."""

    verdict: bool
    k: int
    layer_count: int
    layers: tuple[LayerReport, ...]
    reasons: tuple[Reason, ...]


def verify_saturated_k_sperner(f: Family, k: int) -> VerificationReport:
    """Verdict is true iff the canonical decomposition has exactly k layers
    and every layer is a saturated antichain.  An empty family has no
    layers, so its verdict is false, as the oracle's is."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if f.m > SCAN_MAX_ATOMS:
        raise CapacityError(f"universe of size {f.m} is too large for the exhaustive scan")
    layers = _depth_layers(f.keys, member_depths(f.keys).tolist())
    layer_reports = []
    reasons = []
    for index, layer in enumerate(layers):
        smalls = [key for key in layer if key < H_BIT]
        larges = [key ^ H_BIT for key in layer if key >= H_BIT]
        # Members of equal depth cannot properly contain one another: no antichain check.
        witness = _first_uncovered(f.m, smalls, larges)
        layer_reports.append(LayerReport(
            index=index,
            size=len(layer),
            small=len(smalls),
            large=len(larges),
            antichain=True,
            saturated=witness is None,
            witness_mask=witness,
        ))
        if witness is not None:
            reasons.append(Reason(LAYER_NOT_SATURATED, layer=index, witness_mask=witness))
    if len(layers) != k:
        reasons.insert(0, Reason(WRONG_LAYER_COUNT))
    return VerificationReport(verdict=not reasons, k=k, layer_count=len(layers),
                              layers=tuple(layer_reports), reasons=tuple(reasons))


def is_saturated_antichain(layer: Family) -> tuple[bool, int | None]:
    """The verifier at k = 1: (True, None), or (False, witness) with the mask
    of the first uncovered subset in canonical order (atom count, then
    numeric value); the empty family has no layer, so the empty set is its
    witness.  Raises ValueError if the input is not an antichain, and
    CapacityError if the universe is too large to scan."""
    report = verify_saturated_k_sperner(layer, 1)
    if report.layer_count > 1:
        raise ValueError("input is not an antichain")
    return report.verdict, report.layers[0].witness_mask if report.layers else 0


@dataclass(frozen=True)
class ConcreteFamily:
    """Subsets of {1..n} as bitmasks, duplicate-free, canonical order."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_ATOMS:
            raise ValueError(f"ground set size must be in [0, {MAX_ATOMS}], got {self.n}")
        ordered = tuple(sorted(self.members, key=lambda t: (t.bit_count(), t)))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate member")
        top = 1 << self.n
        for mask in ordered:
            if not 0 <= mask < top:
                raise ValueError("member uses elements outside the ground set")
        object.__setattr__(self, "members", ordered)


def instantiate(f: Family, h: int) -> ConcreteFamily:
    """Realize H as elements {m+1 .. m+h}.  Requires h >= 2 and m+h <= 24
    so the result stays inside the oracle's reach."""
    if h < 2:
        raise ValueError("H must contain at least 2 elements")
    n = f.m + h
    if n > ORACLE_MAX_GROUND:
        raise CapacityError(f"ground set of size {_written(n)} exceeds the oracle limit "
                            f"{ORACLE_MAX_GROUND}")
    h_mask = ((1 << h) - 1) << f.m
    return ConcreteFamily(n, tuple(key if key < H_BIT else key ^ H_BIT | h_mask for key in f.keys))


def parse_concrete(text) -> ConcreteFamily:
    """Concrete family text: the family format without 'H' tokens, its
    universe read as the ground set {1..n}."""
    n, masks = _parse_members(text, allow_H=False)
    return ConcreteFamily(n, tuple(masks))


@dataclass(frozen=True)
class AtomPartition(_JsonDocument):
    """Partition of {1..n} by membership fingerprint.  Elements in one class
    hit exactly the same members; classes of size >= 2 are homogeneous."""

    n: int
    classes: tuple[tuple[int, ...], ...]
    homogeneous: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "homogeneous", tuple(c for c in self.classes if len(c) >= 2))


def find_atoms(c: ConcreteFamily) -> AtomPartition:
    groups: dict[tuple[int, ...], list[int]] = {}
    for elem in range(1, c.n + 1):
        fingerprint = tuple((mask >> (elem - 1)) & 1 for mask in c.members)
        groups.setdefault(fingerprint, []).append(elem)
    classes = sorted((tuple(v) for v in groups.values()), key=lambda cls: cls[0])
    return AtomPartition(c.n, tuple(classes))


def _oracle_halves(n: int) -> list[int]:
    """halves[b]: the points of P([n]) whose bit b is clear, as a table.
    Blocks of 2^b ones alternate with 2^b zeros from point 0 on; the block
    pair is doubled until it spans all 2^n points."""
    size = 1 << n
    halves = []
    for b in range(n):
        width = 1 << b
        mask, span = (1 << width) - 1, 2 * width
        while span < size:
            mask |= mask << span
            span *= 2
        halves.append(mask)
    return halves


def _oracle_strict_closure(table: int, halves: list[int], upward: bool) -> int:
    """The sets that properly contain (upward) or lie properly inside a set
    of the table.  After bits 0..b-1, incl holds each S reached from a table
    set t by adding (removing) bits below b, and proper those with S != t.
    Bit b moves every incl point across b: moved joins both, and proper
    needs nothing of its own, since proper is inside incl.  Kept apart from
    the verifier's lattice closure so the oracle stays independent."""
    incl = table
    proper = 0
    for b, half in enumerate(halves):
        moved = (incl & half) << (1 << b) if upward else (incl >> (1 << b)) & half
        proper |= moved
        incl |= moved
    return proper


def _oracle_peel(members: int, halves: list[int], upward: bool):
    """The strict closures of the nonempty levels of a member table's level
    peeling, one at a time.  Level 1 is the members; level d+1 is the
    members inside the strict closure of level d.  So, by induction, level
    d holds the members with a chain of d members ending (upward) or
    starting (downward) at them, and the strict closure of level d holds
    every set with a chain of d members strictly below (above) it."""
    level = members
    while level:
        closed = _oracle_strict_closure(level, halves, upward)
        yield closed
        level = members & closed


def _oracle_member_table(members: tuple[int, ...], n: int) -> int:
    """The table of the member masks, set byte by byte: OR-ing 1 << s per
    member would copy the whole 2^n-bit int each time."""
    table = bytearray(((1 << n) + 7) // 8)
    for s in members:
        table[s >> 3] |= 1 << (s & 7)
    return int.from_bytes(table, "little")


def brute_force_saturated(c: ConcreteFamily, k: int) -> bool:
    """Ground-truth saturation check on a concrete family.

    True iff the family has no chain of k+1 members and, for every absent
    subset S of {1..n}, inserting S would close a chain of k+1 sets:
    some d members strictly below S and k-d strictly above it.  Works on
    tables of subset masks (one Python int over the 2^n points of P([n]));
    independent of the layer-based verifier.

    B_d, the strict up-closure of up-level d, is the sets with a chain of
    d members below them, and A_e the same downward.  Up-level k+1 is
    nonempty iff some chain has k+1 members, so the up peel stops there.
    With B_0 = A_0 = every set, an absent S closes a chain iff S is in B_d
    and A_(k-d) for some d, and then the members below and above S form a
    chain of k.  So if the longest chain has fewer than k members, the
    family is saturated iff no set is absent.  Otherwise the down peel also
    has k levels, and the family is saturated iff the members and the k+1
    intersections cover every point.  Each closure is n masked shifts of a
    2^n-bit int, and at most 2k of them run: O(k*n*2^n) bit operations.
    Each A_e meets B_(k-e) as soon as it is made, and each B_d is dropped
    once used, so at most k + n tables of 2^n bits, and a few more, are
    alive at once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if c.n > ORACLE_MAX_GROUND:
        raise CapacityError(f"ground set of size {c.n} exceeds the oracle limit {ORACLE_MAX_GROUND}")
    halves = _oracle_halves(c.n)
    members = _oracle_member_table(c.members, c.n)
    points = 1 << c.n
    # a chain in P([n]) has at most n+1 sets, so the peel yields at most n+1
    # tables, and asking for n+2 of them answers every larger k alike
    below = list(islice(_oracle_peel(members, halves, True), min(k, c.n + 2)))
    if below and members & below[-1]:
        return False  # the peel stops early only on an empty level: this is level k+1
    if len(below) < k:
        return members.bit_count() == points
    covered = members | below.pop()  # B_k meets A_0
    # d = k-e runs down as e runs up, so B_d is the last table left in below
    for e, above in enumerate(_oracle_peel(members, halves, False), start=1):
        covered |= below.pop() & above if e < k else above  # B_0 meets A_k
    return covered.bit_count() == points


def eps_of(i: int, k: int) -> float:
    """Bias used to weight layer i of a k-layer system: (ln 2 / 2) * (1 - 2i/(k-1))."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return (math.log(2.0) / 2.0) * (1.0 - 2.0 * i / (k - 1))


def expected_hits(layer: Family, q: float) -> float:
    """Expected number of covering members when each atom is kept with
    probability q: sum of q^|S| over smalls plus (1-q)^(m-|S|) over larges,
    |S| the atom count.  At least 1 for every saturated antichain and
    every 0 < q < 1."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be strictly between 0 and 1")
    total = 0.0
    for key in layer.keys:
        if key < H_BIT:
            total += q ** key.bit_count()
        else:
            total += (1.0 - q) ** (layer.m + 1 - key.bit_count())  # H is one bit of the key
    return total
