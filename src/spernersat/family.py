"""Set families over an atom universe with one homogeneous block.

A family lives over m labelled atoms (1..m) plus one designated block H,
standing for "all remaining ground elements" (at least two of them).  Every
member either avoids H entirely (a "small" member) or contains all of H
(a "large" member), so a member is just a bitmask over the atoms plus one
flag.  Containment, chains, antichains and layer peeling computed on this
representation agree with the concrete ground-set poset for every
realization of H, which keeps all structural checks independent of the
ambient ground-set size n.

Canonical member order is (has_H, atom count, atom mask), read as the
digits of one int (Member.key); proper containment is strictly monotone
in this key, so sorting doubles as a topological order of the containment
DAG.

The canonical decomposition of a family is plain data: a tuple of layers,
bottom first, each a Family over the same universe, one per member of the
longest chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .lattice import SCAN_MAX_ATOMS, WORD_BITS, closure, contains, pack

MAX_ATOMS = 62


class FamilyFormatError(ValueError):
    """Malformed family text; carries its 1-based line, or None if nothing was read."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CapacityError(ValueError):
    """A well-formed input beyond the size an exhaustive computation allows;
    raised before any of that work starts."""


@dataclass(frozen=True, slots=True)
class Member:
    """One set: the atoms it contains, and whether it contains the block H."""

    atom_mask: int
    has_H: bool

    @property
    def atom_count(self) -> int:
        return self.atom_mask.bit_count()

    def cosize(self, m: int) -> int:
        """Atoms missing from the member; for a large member this equals
        n - |S| on every realization of H."""
        return m - self.atom_count

    def atoms(self) -> tuple[int, ...]:
        return atoms_of_mask(self.atom_mask)

    def issubset(self, other: "Member") -> bool:
        return (self.atom_mask & ~other.atom_mask) == 0 and (other.has_H or not self.has_H)

    def is_proper_subset(self, other: "Member") -> bool:
        return self != other and self.issubset(other)

    def key(self) -> int:
        """The canonical order key: H flag, atom count and atom mask as the
        digits of one int, since a mask inside the universe is below
        2**MAX_ATOMS and its count below 2**6."""
        return (self.has_H << 6 | self.atom_mask.bit_count()) << MAX_ATOMS | self.atom_mask

    def __str__(self) -> str:
        if self.atom_mask == 0 and not self.has_H:
            return "empty"
        parts = [str(a) for a in self.atoms()]
        if self.has_H:
            parts.append("H")
        return " ".join(parts)


def packed_key(mem: Member) -> int:
    """The atom mask with H as bit MAX_ATOMS: a member is inside another
    exactly when its key is a bit-subset of the other's."""
    return mem.atom_mask | (mem.has_H << MAX_ATOMS)


def atoms_of_mask(mask: int) -> tuple[int, ...]:
    """1-based atom indices of a bitmask, ascending."""
    if mask < 0:
        raise ValueError(f"atom mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def mask_of_atoms(atoms) -> int:
    mask = 0
    for a in atoms:
        mask |= 1 << (a - 1)
    return mask


@dataclass(frozen=True)
class Family:
    """A duplicate-free set of members over a fixed atom universe.

    Members are stored in canonical order, so two equal families compare
    and hash identically regardless of construction order.
    """

    m: int
    members: tuple[Member, ...]

    def __post_init__(self):
        if not 0 <= self.m <= MAX_ATOMS:
            raise ValueError(f"universe size must be in [0, {MAX_ATOMS}], got {self.m}")
        ordered = tuple(sorted(self.members, key=Member.key))
        top = 1 << self.m
        for mem in ordered:
            if not 0 <= mem.atom_mask < top:
                raise ValueError(f"member {mem} uses atoms outside universe of size {self.m}")
        # packed keys tell members apart only inside the universe
        if len(set(map(packed_key, ordered))) != len(ordered):
            raise ValueError("duplicate member")
        object.__setattr__(self, "members", ordered)

    @property
    def size(self) -> int:
        return len(self.members)

    def smalls(self) -> tuple[Member, ...]:
        return tuple(mem for mem in self.members if not mem.has_H)

    def larges(self) -> tuple[Member, ...]:
        return tuple(mem for mem in self.members if mem.has_H)

    def without(self, member: Member) -> "Family":
        if member not in self.members:
            raise ValueError(f"{member} is not a member")
        return Family(self.m, tuple(mem for mem in self.members if mem != member))


def complement_member(x: Member, m: int) -> Member:
    """Complement within the ground set: flip every atom and the H flag."""
    if x.atom_mask >> m:
        raise ValueError("member uses atoms outside the universe")
    return Member(((1 << m) - 1) ^ x.atom_mask, not x.has_H)


def complement_family(f: Family) -> Family:
    return Family(f.m, tuple(complement_member(mem, f.m) for mem in f.members))


def first_contained_pair(members) -> tuple[Member, Member] | None:
    """First (a, b) with a a proper subset of b, scanning a sequence in
    canonical order, where containment can only point forward."""
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a.is_proper_subset(b):
                return a, b
    return None


def is_antichain(f: Family) -> bool:
    """No member properly contains another."""
    return first_contained_pair(f.members) is None


def _lattice_keys(members):
    """(bits, keys): each member's atom mask with H as one more bit,
    squeezed onto the bits the members use, so that a member properly
    contains another exactly when its key is a proper bit-superset.  Keys
    are ints when their lattice fits one word, else an int64 array."""
    h_bit = 1 << MAX_ATOMS
    keys = list(map(packed_key, members))
    used = 0
    for key in keys:
        used |= key
    atoms = (used & ~h_bit).bit_count()
    if atoms > SCAN_MAX_ATOMS:
        raise CapacityError(f"members use {atoms} atoms, more than the {SCAN_MAX_ATOMS} "
                            "the depth tables allow")
    # the bits below the lowest unused one stay; the used ones above move down
    placed = (~used & (used + 1)).bit_length() - 1
    moves = list(enumerate(atoms_of_mask(used >> placed << placed), start=placed))

    def squeeze(key):
        out = key & ((1 << placed) - 1)
        for i, atom in moves:
            out |= ((key >> (atom - 1)) & 1) << i
        return out

    bits = used.bit_count()
    if bits <= WORD_BITS:
        return bits, [squeeze(key) for key in keys]
    return bits, squeeze(np.array(keys, dtype=np.int64))


def member_depths(members) -> np.ndarray:
    """depth[i] = number of members on the longest chain ending at members[i].

    Members must be duplicate-free.  Levels are peeled on the subset lattice
    of their keys: A_1 is every member, and A_{d+1} the members of A_d that
    properly contain a member of A_d, the ones its strict up-closure holds.
    A member's depth is the number of levels it is in.  Raises
    CapacityError, before building any table, when the members use more
    than SCAN_MAX_ATOMS atoms."""
    bits, keys = _lattice_keys(members)
    level = pack(keys, bits)
    if bits <= WORD_BITS:
        depth = [0] * len(keys)
        while level:
            for i, key in enumerate(keys):
                depth[i] += (level >> key) & 1
            level &= closure(level, bits, upward=True, strict=True)[1]
        return np.array(depth, dtype=np.int64)
    depth = np.zeros(len(keys), dtype=np.int64)
    while (hits := contains(level, keys)).any():
        depth += hits
        level &= closure(level, bits, upward=True, strict=True)[1]
    return depth


def _depth_layers(members, depths) -> list[list[Member]]:
    """The members grouped by depth, in their given order: layer i holds the
    members of depth i+1, and there are as many layers as the largest depth."""
    layers = [[] for _ in range(max(depths, default=0))]
    for mem, d in zip(members, depths):
        layers[d - 1].append(mem)
    return layers


def canonical_decomposition(f: Family) -> tuple[Family, ...]:
    """Peel minimal members into layers: layer i collects the members whose
    longest chain from below has exactly i+1 members, so there are as many
    layers as the longest chain has members.  Layers are antichains over
    f's universe, pairwise disjoint, cover the family, and every member of
    layer i (i >= 1) properly contains a member of layer i-1."""
    if not f.members:
        raise ValueError("cannot decompose an empty family")
    layers = _depth_layers(f.members, member_depths(f.members).tolist())
    return tuple(Family(f.m, tuple(layer)) for layer in layers)


def is_layered(layers, *, small_only: bool = False) -> bool:
    """Every member of layer i properly contains some member of layer i-1.

    With small_only=True only the small members participate on both sides,
    which is the criterion that transfers layering through saturated
    antichains sharing the block H.
    """
    layers = list(layers)
    for prev, cur in zip(layers, layers[1:]):
        if prev.m != cur.m:
            raise ValueError("layers live on different universes")
        below = prev.smalls() if small_only else prev.members
        for mem in (cur.smalls() if small_only else cur.members):
            if not any(b.is_proper_subset(mem) for b in below):
                return False
    return True


def _next_line(prefix: str) -> int:
    """1-based line of the character that would follow prefix, counted the
    way splitlines numbers the parser's lines."""
    return len((prefix + ".").splitlines())


def _decimal_int(tok: str) -> int:
    """int(tok) for ASCII digits with an optional leading '-', the integers
    of the format; ValueError for the rest of what int() takes: '_', '+'
    and digits of other scripts."""
    digits = tok.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(tok)
    return int(tok)


def _line_key(tokens: list[str], m: int, allow_H: bool) -> int:
    """Packed key of one member line, token by token, or a ValueError
    naming the first thing wrong with it."""
    if tokens == ["empty"]:
        return 0
    if "empty" in tokens:
        raise ValueError("'empty' cannot be combined with other tokens")
    key = 0
    for tok in tokens:
        if tok == "H" and allow_H:
            if key >> MAX_ATOMS:
                raise ValueError("duplicate 'H' token")
            key |= 1 << MAX_ATOMS
            continue
        try:
            atom = _decimal_int(tok)
        except ValueError:
            raise ValueError(f"malformed token {tok!r}") from None
        if not 1 <= atom <= m:
            raise ValueError(f"atom {atom} outside universe of size {m}")
        bit = 1 << (atom - 1)
        if key & bit:
            raise ValueError(f"duplicate atom {atom}")
        key |= bit
    return key


def _parse_members(text, allow_H: bool) -> tuple[int, list[int]]:
    """The one tokenizer of the text format: (m, the members' packed keys
    in file order).  Without allow_H an 'H' token is malformed."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FamilyFormatError(f"byte 0x{text[exc.start]:02x} is not valid UTF-8",
                                    _next_line(text[:exc.start].decode("utf-8"))) from None
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 2 or tokens[0] != "universe":
            raise FamilyFormatError("expected 'universe <m>' header", lineno)
        try:
            m = _decimal_int(tokens[1])
        except ValueError:
            raise FamilyFormatError(f"bad universe size {tokens[1]!r}", lineno) from None
        if not 0 <= m <= MAX_ATOMS:
            raise FamilyFormatError(f"universe size must be in [0, {MAX_ATOMS}]", lineno)
        break
    else:
        raise FamilyFormatError("missing 'universe <m>' header", _next_line(text))
    # the packed-key bit of each token as serialize_family writes it; a line
    # with any other token, or with a token twice, goes to _line_key
    bits = {str(atom): 1 << (atom - 1) for atom in range(1, m + 1)}
    if allow_H:
        bits["H"] = 1 << MAX_ATOMS
    zeros = repeat(0)
    keys = []
    seen = set()
    for lineno, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        # a token outside the table adds no bit, and a repeated one carries,
        # so either leaves fewer bits than tokens
        key = sum(map(bits.get, tokens, zeros))
        if key.bit_count() != len(tokens):
            try:
                key = _line_key(tokens, m, allow_H)
            except ValueError as exc:
                raise FamilyFormatError(str(exc), lineno) from None
        if key in seen:
            raise FamilyFormatError(f"duplicate member '{_unpacked(key)}'", lineno)
        seen.add(key)
        keys.append(key)
    return m, keys


def _unpacked(key: int) -> Member:
    """The member of a packed key."""
    return Member(key & ((1 << MAX_ATOMS) - 1), key >> MAX_ATOMS == 1)


def parse_family(text) -> Family:
    """Parse the family text format.

    Lines whose first non-blank character is '#' are comments; blank lines
    are skipped.  The first significant line must be 'universe <m>'.  Every
    other significant line is one member: the word 'empty', or atom indices
    (1..m) plus at most one 'H' token, whitespace-separated.  Numbers are
    ASCII digits with an optional leading '-'.
    """
    m, keys = _parse_members(text, allow_H=True)
    return Family(m, tuple(map(_unpacked, keys)))


def serialize_family(f: Family) -> str:
    """Canonical text form: header, then one member per line in canonical order."""
    width = (f.m + 7) // 8
    # tables[i][b]: the atoms of the byte value b at byte i of a mask, each
    # followed by a space
    tables = []
    for i in range(width):
        table = [""]
        for atom in range(8 * i + 1, 8 * i + 9):
            table += [text + f"{atom} " for text in table]
        tables.append(table)
    lines = [f"universe {f.m}"]
    for mem in f.members:
        atoms = "".join(map(list.__getitem__, tables, mem.atom_mask.to_bytes(width, "little")))
        lines.append(atoms + "H" if mem.has_H else atoms[:-1] or "empty")
    return "\n".join(lines) + "\n"
