"""Set families over an atom universe with one homogeneous block.

A family lives over m labelled atoms (1..m) plus one designated block H,
standing for "all remaining ground elements" (at least two of them).  Every
member either avoids H entirely (a "small" member) or contains all of H
(a "large" member), so a member is just a bitmask over the atoms plus one
flag.  Containment, chains, antichains and layer peeling computed on this
representation agree with the concrete ground-set poset for every
realization of H, which keeps all structural checks independent of the
ambient ground-set size n.

A Family keeps its members as packed keys, the atom mask with H as bit
MAX_ATOMS, in canonical order (has_H, atom count, atom mask).  Proper
containment is strictly monotone in that order, so it doubles as a
topological order of the containment DAG.  Every rule runs on the keys: a
member is inside another when its key is a bit-subset of the other's, and
its complement is its key XOR H_BIT | (2^m - 1).  Member is only the view
and the printer: Family.members builds one per key when first read, and
Member.key is the canonical order as the digits of one int.  The
serializer, the builders and the verifier make none, the parser only to
name a repeated member, and the reduction only for the steps of its trace.

The canonical decomposition of a family is plain data: a tuple of layers,
bottom first, each a Family over the same universe, one per member of the
longest chain.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice, repeat
from operator import eq, or_

import numpy as np

from .lattice import INT_BITS, SCAN_MAX_ATOMS, depths

MAX_ATOMS = 62
H_BIT = 1 << MAX_ATOMS  # the bit of a packed key that stands for H


class FamilyFormatError(ValueError):
    """Malformed family text; carries its 1-based line, or None if nothing was read."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CapacityError(ValueError):
    """A well-formed input beyond the size an exhaustive computation allows;
    raised before any of that work starts."""


def _written(n: int) -> str:
    """n for every CapacityError message: in decimal up to 256 bits, else by
    its bit length, so the bytes of a refusal never depend on the
    interpreter's int-to-str digit limit."""
    return str(n) if n.bit_length() <= 256 else f"<{n.bit_length()}-bit number>"


@dataclass(frozen=True, slots=True)
class Member:
    """One set: the atoms it contains, and whether it contains the block H."""

    atom_mask: int
    has_H: bool

    @property
    def atom_count(self) -> int:
        return self.atom_mask.bit_count()

    def atoms(self) -> tuple[int, ...]:
        return atoms_of_mask(self.atom_mask)

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


@dataclass(frozen=True, init=False, repr=False)
class Family:
    """A duplicate-free set of members over a fixed atom universe.

    The state is m and the members' packed keys in canonical order, so two
    equal families compare and hash identically regardless of construction
    order.  Family(m, members) takes Member objects, Family.from_keys(m,
    keys) packed keys; both pass through _settle.
    """

    m: int
    keys: tuple[int, ...]

    def __init__(self, m: int, members):
        members = tuple(members)
        # a mask from bit MAX_ATOMS on would read as H in its key: the range is checked first
        if 0 <= m <= MAX_ATOMS and (outside := [mem for mem in members if mem.atom_mask >> m]):
            raise ValueError(f"member {min(outside, key=Member.key)} uses atoms outside "
                             f"universe of size {m}")
        self._settle(m, map(packed_key, members))

    @classmethod
    def from_keys(cls, m: int, keys) -> "Family":
        """The family of the members with these packed keys, in any order."""
        family = object.__new__(cls)
        family._settle(m, keys)
        return family

    def _settle(self, m: int, keys) -> None:
        """Check m and the keys (inside the universe, no key twice) and store
        the keys in canonical order."""
        if not 0 <= m <= MAX_ATOMS:
            raise ValueError(f"universe size must be in [0, {MAX_ATOMS}], got {m}")
        keys = sorted(keys)
        split = bisect_left(keys, H_BIT)
        top = 1 << m
        # the least key, the largest small and the largest key
        if keys and (keys[0] < 0 or split and keys[split - 1] >= top or keys[-1] >= H_BIT + top):
            bad = next(key for key in keys if (key & ~H_BIT) >> m)
            raise ValueError(f"packed key {bad:#x} lies outside universe of size {m}")
        if any(map(eq, keys, islice(keys, 1, None))):
            raise ValueError("duplicate member")
        # numeric order is (H flag, atom mask); a stable sort of the smalls
        # and of the larges by bit count puts the atom count before the mask
        larges = keys[split:]
        del keys[split:]
        keys.sort(key=int.bit_count)
        larges.sort(key=int.bit_count)
        keys += larges
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "keys", tuple(keys))

    @cached_property
    def members(self) -> tuple[Member, ...]:
        """The members in canonical order, as Member objects."""
        return tuple(Member(key & ~H_BIT, key >= H_BIT) for key in self.keys)

    def __repr__(self) -> str:
        return f"Family(m={self.m!r}, members={self.members!r})"

    @property
    def size(self) -> int:
        return len(self.keys)


def complement_family(f: Family) -> Family:
    """Complement within the ground set: every key with each atom and H flipped."""
    full = H_BIT | ((1 << f.m) - 1)
    return Family.from_keys(f.m, [key ^ full for key in f.keys])


def first_contained_pair(keys, start: int = 0) -> tuple[int, int] | None:
    """First index pair (i, j), i >= start, with keys[i] a bit-subset of
    keys[j]: a member properly inside another, by rows of distinct packed
    keys in canonical order, where containment only points forward (j > i)."""
    for i in range(start, len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] & ~keys[j] == 0:
                return i, j
    return None


def is_antichain(f: Family) -> bool:
    """No member properly contains another: a quadratic pair scan, about 3 s
    on bootstrapped(17)'s largest layer (7,854 members), where
    (member_depths(f.keys) <= 1).all() gives the same verdict in
    milliseconds (up to SCAN_MAX_ATOMS atoms)."""
    return first_contained_pair(f.keys) is None


def _lattice_keys(keys):
    """(keys, bits): the packed keys squeezed onto the bits they use, so
    that a member properly contains another exactly when its key is a
    proper bit-superset.  Keys are ints when their lattice is one int
    (INT_BITS), else an int64 array."""
    used = reduce(or_, keys, 0)
    atoms = (used & ~H_BIT).bit_count()
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
    if bits <= INT_BITS:
        return [squeeze(key) for key in keys], bits
    return squeeze(np.array(keys, dtype=np.int64)), bits


def member_depths(keys) -> np.ndarray:
    """depth[i] = number of members on the longest chain ending at the
    member whose packed key is keys[i].

    Keys must be duplicate-free.  A member properly contains another
    exactly when its squeezed key is a proper bit-superset, so the depths
    are lattice.depths of the squeezed keys.  Raises CapacityError, before
    building any table, when the members use more than SCAN_MAX_ATOMS atoms."""
    return depths(*_lattice_keys(keys))


def canonical_decomposition(f: Family) -> tuple[Family, ...]:
    """Peel minimal members into layers: layer i collects the members whose
    longest chain from below has exactly i+1 members, so there are as many
    layers as the longest chain has members.  Layers are antichains over
    f's universe, pairwise disjoint, cover the family, and every member of
    layer i (i >= 1) properly contains a member of layer i-1.  An empty
    family has no layers."""
    key_depths = member_depths(f.keys).tolist()
    layers = [[] for _ in range(max(key_depths, default=0))]
    for key, d in zip(f.keys, key_depths):
        layers[d - 1].append(key)
    return tuple(Family.from_keys(f.m, layer) for layer in layers)


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
            raise FamilyFormatError(f"duplicate member '{Member(key & ~H_BIT, key >= H_BIT)}'", lineno)
        seen.add(key)
        keys.append(key)
    return m, keys


def parse_family(text) -> Family:
    """Parse the family text format.

    Lines whose first non-blank character is '#' are comments; blank lines
    are skipped.  The first significant line must be 'universe <m>'.  Every
    other significant line is one member: the word 'empty', or atom indices
    (1..m) plus at most one 'H' token, whitespace-separated.  Numbers are
    ASCII digits with an optional leading '-'.
    """
    m, keys = _parse_members(text, allow_H=True)
    return Family.from_keys(m, keys)


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
    low = H_BIT - 1
    lines = [f"universe {f.m}"]
    for key in f.keys:
        atoms = "".join(map(list.__getitem__, tables, (key & low).to_bytes(width, "little")))
        lines.append(atoms + "H" if key > low else atoms[:-1] or "empty")
    lines.append("")  # the final newline, without a copy of the text to add it
    return "\n".join(lines)
