"""Member/Family model, text format, complements, chains, decomposition."""

import hashlib
import random
import signal
import tracemalloc
from contextlib import contextmanager
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spernersat import (
    MAX_ATOMS,
    SCAN_MAX_ATOMS,
    CapacityError,
    Family,
    FamilyFormatError,
    Member,
    ReductionTrace,
    atoms_of_mask,
    bootstrapped,
    canonical_decomposition,
    compose,
    complement_family,
    expected_hits,
    is_antichain,
    mask_of_atoms,
    member_depths,
    packed_key,
    parse_concrete,
    parse_family,
    reduce_antichain,
    serialize_family,
    seven56,
    three_sperner,
    trivial_construction,
    verify_saturated_k_sperner,
)
from spernersat.family import H_BIT, first_contained_pair
from helpers import random_family


# ---------------------------------------------------------------- members

def test_member_str_forms():
    assert str(Member(0, False)) == "empty"
    assert str(Member(0, True)) == "H"
    assert str(Member(0b1001, False)) == "1 4"
    assert str(Member(0b1001, True)) == "1 4 H"


def test_member_atom_helpers():
    assert atoms_of_mask(0) == ()
    assert atoms_of_mask(0b101101) == (1, 3, 4, 6)
    assert mask_of_atoms([6, 1, 4, 3]) == 0b101101
    rng = random.Random(7001)
    for _ in range(200):
        mask = rng.getrandbits(20)
        assert mask_of_atoms(atoms_of_mask(mask)) == mask


@contextmanager
def _within(seconds: int):
    """Turn a hang into a failure: SIGALRM after the given seconds."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_negative_atom_mask_is_refused():
    with _within(5):
        for mask in (-1, -2, -(1 << 70)):
            with pytest.raises(ValueError, match=f"atom mask {mask} is negative"):
                atoms_of_mask(mask)
            with pytest.raises(ValueError, match="is negative"):
                str(Member(mask, False))


def test_family_refuses_a_negative_atom_mask_at_once():
    with _within(5):
        for members in ((Member(-1, False),), (Member(0, False), Member(-6, True))):
            with pytest.raises(ValueError, match="is negative"):
                Family(3, members)


def test_member_key_monotone_under_containment():
    """The canonical sort key strictly increases along proper containment,
    a proper bit-subset of packed keys, making the canonical order a
    topological order."""
    rng = random.Random(7002)
    for _ in range(500):
        a = Member(rng.getrandbits(6), rng.random() < 0.5)
        b = Member(rng.getrandbits(6), rng.random() < 0.5)
        if a != b and packed_key(a) & ~packed_key(b) == 0:
            assert a.key() < b.key()


# ---------------------------------------------------------------- families

def test_family_canonical_order_is_construction_independent():
    members = [Member(0b10, False), Member(0, False), Member(0b11, True)]
    f1 = Family(2, tuple(members))
    f2 = Family(2, tuple(reversed(members)))
    assert f1 == f2
    assert hash(f1) == hash(f2)
    assert [str(mem) for mem in f1.members] == ["empty", "2", "1 2 H"]
    assert repr(three_sperner()) == (
        "Family(m=1, members=(Member(atom_mask=0, has_H=False), Member(atom_mask=1, has_H=False), "
        "Member(atom_mask=0, has_H=True), Member(atom_mask=1, has_H=True)))")


def test_family_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        Family(2, (Member(1, False), Member(1, False)))
    with pytest.raises(ValueError):
        Family(2, (Member(0b100, False),))
    with pytest.raises(ValueError):
        Family(-1, ())
    with pytest.raises(ValueError):
        Family(63, ())
    # bit 62 of a mask is where a packed key keeps H: the range is checked first
    with pytest.raises(ValueError, match=r"^member 1 63 uses atoms outside universe of size 2$"):
        Family(2, (Member(1 << 62 | 1, False), Member(1, True)))
    with pytest.raises(ValueError, match=r"^member 63 uses atoms outside universe of size 62$"):
        Family(62, (Member(1 << 62, False), Member(0, True)))


def test_smalls_larges_split():
    f = seven56()
    # canonical order puts the smalls first; complement closure makes the split even
    assert [mem.has_H for mem in f.members] == [False] * 28 + [True] * 28


# ------------------------------------------------------------- complements

def test_complement_fixed_example():
    # complement of the small {1,2,4,6} over 7 atoms is {3,5,7} plus H
    x = Family(7, (Member(mask_of_atoms([1, 2, 4, 6]), False),))
    y = complement_family(x)
    assert y.members == (Member(mask_of_atoms([3, 5, 7]), True),)
    assert complement_family(y) == x


def test_complement_is_involution_and_order_reversing():
    """Complementing twice gives the family back, and a member's
    complement lies inside the complement of every member inside it."""
    rng = random.Random(7003)
    for _ in range(300):
        f = random_family(rng, max_atoms=6)
        g = complement_family(f)
        assert complement_family(g) == f
        full = H_BIT | ((1 << f.m) - 1)
        assert sorted(key ^ full for key in f.keys) == sorted(g.keys)
        for a in f.keys:
            for b in f.keys:
                if a != b and a & ~b == 0:
                    assert (b ^ full) & ~(a ^ full) == 0


def test_complement_family_round_trip():
    f = seven56()
    assert complement_family(complement_family(f)) == f
    # seven56 is complement-closed
    assert complement_family(f) == f


# ---------------------------------------------------------------- chains

def test_longest_chain_examples():
    assert member_depths((packed_key(Member(0, False)),)).tolist() == [1]
    chain3 = (Member(0, False), Member(0b1, False), Member(0b11, False))
    assert member_depths(list(map(packed_key, chain3))).tolist() == [1, 2, 3]
    assert member_depths(seven56().keys).max() == 7


def test_member_depths_on_explicit_chain():
    members = tuple(sorted(
        (Member(0, False), Member(0b1, False), Member(0b11, False), Member(0b11, True)),
        key=Member.key))
    assert list(member_depths(list(map(packed_key, members)))) == [1, 2, 3, 4]


def _properly_inside(a: Member, b: Member) -> bool:
    """a is a proper subset of b, from the atom masks and the H flags: the
    block H only grows a member, so a large is never inside a small."""
    return a != b and a.atom_mask & ~b.atom_mask == 0 and (b.has_H or not a.has_H)


# Masks over a few low atoms and the top ones, so that chains are common and
# atom 62 (bit 61) sits right below the H bit of the packed keys.
_BITS = (0, 1, 2, MAX_ATOMS - 2, MAX_ATOMS - 1)
_members = st.builds(
    lambda bits, has_h: Member(sum(1 << b for b in bits), has_h),
    st.sets(st.sampled_from(_BITS)), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.sets(_members, max_size=24))
def test_member_depths_match_longest_chain_definition(members):
    f = Family(MAX_ATOMS, tuple(members))

    @cache
    def longest_ending_at(mem):
        return 1 + max((longest_ending_at(b) for b in f.members if _properly_inside(b, mem)),
                       default=0)

    assert member_depths(f.keys).tolist() == [longest_ending_at(mem) for mem in f.members]


# Masks over atoms 1..13 and the top two: with H up to 16 key bits, past
# the 12 of one int, so the depth pass runs on word tables and squeezes out
# the unused atoms between.
_WIDE_BITS = (*range(13), MAX_ATOMS - 2, MAX_ATOMS - 1)
_wide_members = st.builds(
    lambda bits, has_h: Member(sum(1 << b for b in bits), has_h),
    st.sets(st.sampled_from(_WIDE_BITS)), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.sets(_wide_members, max_size=40))
def test_member_depths_on_word_tables_match_longest_chain_definition(members):
    f = Family(MAX_ATOMS, tuple(members))

    @cache
    def longest_ending_at(mem):
        return 1 + max((longest_ending_at(b) for b in f.members if _properly_inside(b, mem)),
                       default=0)

    assert member_depths(f.keys).tolist() == [longest_ending_at(mem) for mem in f.members]


def test_member_depths_refuses_too_many_atoms_before_building_a_table(monkeypatch):
    import spernersat.family as family_mod

    def no_table(points, m):
        raise AssertionError(f"a {m}-bit table was requested")

    monkeypatch.setattr(family_mod, "depths", no_table)
    # one singleton per atom: 29 atoms are refused, whatever the atoms' positions
    wide = [Member(1 << (2 * i), i % 2 == 0) for i in range(SCAN_MAX_ATOMS + 1)]
    wide_keys = list(map(packed_key, wide))
    with pytest.raises(CapacityError, match="members use 29 atoms, more than the 28 the depth tables allow"):
        member_depths(wide_keys)
    with pytest.raises(CapacityError):
        canonical_decomposition(Family(MAX_ATOMS, tuple(wide)))
    # 28 atoms pass the guard: the table (28 atoms and H) is the next step
    with pytest.raises(AssertionError, match="a 29-bit table was requested"):
        member_depths(wide_keys[1:])


def test_member_depths_memory_is_linear():
    keys = bootstrapped(13)[0].keys
    assert len(keys) == 3136
    tracemalloc.start()
    try:
        member_depths(keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_is_antichain_examples():
    assert is_antichain(Family(2, (Member(0b01, False), Member(0b10, False))))
    assert not is_antichain(Family(2, (Member(0b01, False), Member(0b11, False))))
    # a small and the large on the same mask are comparable
    assert not is_antichain(Family(2, (Member(0b01, False), Member(0b01, True))))


def test_is_antichain_matches_chain_length():
    rng = random.Random(7004)
    for _ in range(300):
        f = random_family(rng)
        assert is_antichain(f) == (member_depths(f.keys).max() <= 1)
        # from every start row, the first contained pair in row order
        pairs = [(i, j) for i, a in enumerate(f.keys) for j, b in enumerate(f.keys)
                 if i != j and a & ~b == 0]
        for start in range(f.size + 1):
            assert first_contained_pair(f.keys, start) == next(
                (pair for pair in pairs if pair[0] >= start), None)


# ----------------------------------------------------------- decomposition

def test_decomposition_trivial_examples():
    two = Family(2, (Member(0, False), Member(0b11, True)))
    d = canonical_decomposition(two)
    assert [layer.members for layer in d] == [
        (Member(0, False),), (Member(0b11, True),)]

    f = Family(2, (Member(0b01, False), Member(0b10, False), Member(0b11, False)))
    d = canonical_decomposition(f)
    assert len(d) == 2
    assert set(d[0].members) == {Member(0b01, False), Member(0b10, False)}
    assert d[1].members == (Member(0b11, False),)

    # three_sperner's layers written out by hand
    layers = (Family(1, (Member(0, False),)), Family(1, (Member(1, False), Member(0, True))),
              Family(1, (Member(1, True),)))
    assert canonical_decomposition(three_sperner()) == layers


def test_decomposition_of_empty_has_no_layers():
    assert canonical_decomposition(Family(3, ())) == ()


def test_decomposition_invariants_random():
    """Layers are disjoint antichains covering the family, layer count equals
    the longest chain, and the stack is layered."""
    rng = random.Random(7005)
    for _ in range(200):
        f = random_family(rng)
        d = canonical_decomposition(f)
        assert len(d) == member_depths(f.keys).max()
        seen: set[Member] = set()
        for layer in d:
            assert layer.size > 0
            assert is_antichain(layer)
            assert not (seen & set(layer.members))
            seen.update(layer.members)
        assert seen == set(f.members)
        assert _layered(d)


def _layered(layers, *, small_only: bool = False) -> bool:
    """Every key of layer i >= 1 is a proper bit-superset of some key of
    layer i-1; with small_only, of the smalls (keys below H_BIT) alone."""
    stack = [[key for key in layer.keys if not small_only or key < H_BIT] for layer in layers]
    return all(any(low != key and low & ~key == 0 for low in below)
               for below, above in zip(stack, stack[1:]) for key in above)


def test_layered_check_sees_a_gap():
    # {2} does not properly contain {1}, so the stack is not layered
    top = Family(2, (Member(0b10, False),))
    assert not _layered([Family(2, (Member(0b01, False),)), top])
    assert _layered([Family(2, (Member(0, False),)), top])


def test_seven56_layer_profile():
    d = canonical_decomposition(seven56())
    assert [layer.size for layer in d] == [1, 6, 14, 14, 14, 6, 1]
    assert _layered(d)
    assert _layered(d, small_only=True)


# ------------------------------------------------------------ text format

def test_parse_serialize_round_trip_fixed():
    text = "\n".join([
        "# a comment",
        "universe 3",
        "empty",
        "1 3",
        "2 H",
        "H",
        "",
    ])
    f = parse_family(text)
    assert f.m == 3
    assert parse_family(serialize_family(f)) == f


def test_serialize_is_canonical_and_round_trips_random():
    rng = random.Random(7006)
    for _ in range(200):
        f = random_family(rng)
        text = serialize_family(f)
        assert parse_family(text) == f
        # serializing twice is a fixed point
        assert serialize_family(parse_family(text)) == text


@st.composite
def _families(draw):
    # any universe size, smalls and larges, the empty family included
    m = draw(st.integers(0, MAX_ATOMS))
    members = draw(st.sets(st.builds(Member, st.integers(0, (1 << m) - 1), st.booleans()),
                           max_size=16))
    return Family(m, tuple(members))


@settings(max_examples=300, deadline=None)
@given(_families())
def test_parse_serialize_is_a_fixed_point(f):
    text = serialize_family(f)
    assert parse_family(text) == f
    assert serialize_family(parse_family(text)) == text


@settings(max_examples=300, deadline=None)
@given(_families())
def test_serialized_lines_are_the_members_in_order(f):
    """Checked against Member.__str__, which the serializer does not call,
    so a serializer and parser wrong in the same way cannot pass."""
    header, *lines = serialize_family(f).split("\n")[:-1]
    assert header == f"universe {f.m}"
    assert lines == [str(mem) for mem in f.members]


@settings(max_examples=300, deadline=None)
@given(_families(), st.randoms(use_true_random=False))
def test_key_constructor_builds_the_family_of_the_member_constructor(f, rng):
    members = list(f.members)
    rng.shuffle(members)
    keys = [packed_key(mem) for mem in members]
    by_keys, by_members = Family.from_keys(f.m, keys), Family(f.m, members)
    assert by_keys == by_members == f
    assert hash(by_keys) == hash(by_members)
    assert by_keys.members == by_members.members == tuple(sorted(members, key=Member.key))
    assert by_keys.keys == by_members.keys == tuple(sorted(keys, key=lambda key: (
        key >= H_BIT, key.bit_count(), key)))
    text = serialize_family(by_keys)
    assert serialize_family(by_members) == text
    assert parse_family(text) == by_keys
    assert parse_family(text).members == by_keys.members


def test_key_constructor_refuses_keys_outside_the_universe_and_twice():
    assert Family.from_keys(MAX_ATOMS, [H_BIT | (H_BIT - 1)]).members == (
        Member(H_BIT - 1, True),)
    for keys in ([0b100], [H_BIT | 0b100], [-1], [2 * H_BIT], [0, H_BIT, H_BIT + 4]):
        with pytest.raises(ValueError, match="outside universe of size 2$"):
            Family.from_keys(2, keys)
    with pytest.raises(ValueError, match="^duplicate member$"):
        Family.from_keys(2, [H_BIT | 1, 0, H_BIT | 1])
    with pytest.raises(ValueError, match=r"^universe size must be in \[0, 62\], got 63$"):
        Family.from_keys(63, [])


def test_parse_verify_and_compose_build_no_member(monkeypatch):
    """The text, the verifier, the builders, the reduction and the lemma
    helpers work on packed keys: Member objects are made only when a
    family's members are read, or a reduction logs a step."""
    text = serialize_family(bootstrapped(10)[0])
    factors = (seven56(), three_sperner(), three_sperner(), three_sperner())
    # five singleton smalls and one large: already reduced
    layer = canonical_decomposition(factors[0])[1]
    built = []
    init = Member.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Member, "__init__", counted)
    family = parse_family(text)
    assert verify_saturated_k_sperner(family, 10).verdict
    assert compose(*factors) == family
    assert three_sperner() == factors[1] and seven56() == factors[0]
    assert bootstrapped(12)[0].size == 2 * 28 ** 2
    assert reduce_antichain(layer) == (layer, ReductionTrace(()))
    assert is_antichain(layer)
    assert expected_hits(layer, 0.5) == 5 * 0.5 + 0.5 ** 5
    assert built == []
    assert len(family.members) == len(built) == 448


# Universe sizes on either side of each byte of the atom mask.
_DIGEST_UNIVERSES = (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 61, 62)


def test_serialized_bytes_are_pinned():
    """Regression pin: one digest over the serialized text of the built-in
    constructions, two compositions and 2,000 seeded families."""
    families = [bootstrapped(k)[0] for k in range(2, 15)]
    families += [trivial_construction(k) for k in range(2, 11)]
    families += [compose(seven56(), three_sperner()), compose(seven56(), seven56())]
    rng = random.Random(7007)
    for _ in range(2000):
        m = rng.choice(_DIGEST_UNIVERSES)
        members = {Member(rng.getrandbits(m), rng.random() < 0.5) for _ in range(rng.randint(0, 12))}
        families.append(Family(m, tuple(members)))
    digest = hashlib.sha256()
    for f in families:
        digest.update(serialize_family(f).encode())
    assert digest.hexdigest() == "5c596dc1f24e95e9706359395ecaa932a31bfbc594979bcc9a1981b31b8502ec"


def test_parse_accepts_bytes_and_comments_anywhere():
    f = parse_family(b"# lead\nuniverse 2\n# mid\n1\n")
    assert f.members == (Member(0b1, False),)


# (text, message from parse_family, message from parse_concrete when it differs)
_PARSE_ERRORS = [
    ("universe x\n", "line 1: bad universe size 'x'"),
    ("weird 3\n", "line 1: expected 'universe <m>' header"),
    ("universe 63\n", "line 1: universe size must be in [0, 62]"),
    ("universe 2\nempty H\n", "line 2: 'empty' cannot be combined with other tokens"),
    ("universe 2\n1 H H\n", "line 2: duplicate 'H' token", "line 2: malformed token 'H'"),
    ("universe 3\nH 2 H\n", "line 2: duplicate 'H' token", "line 2: malformed token 'H'"),
    ("universe 2\n1 1\n", "line 2: duplicate atom 1"),
    ("universe 3\n1 01\n", "line 2: duplicate atom 1"),
    ("universe 3\n1 H 1\n", "line 2: duplicate atom 1", "line 2: malformed token 'H'"),
    ("universe 3\n1 2 3 1\n", "line 2: duplicate atom 1"),
    ("universe 2\n3\n", "line 2: atom 3 outside universe of size 2"),
    ("universe 3\n4 H\n", "line 2: atom 4 outside universe of size 3"),
    ("universe 62\n63\n", "line 2: atom 63 outside universe of size 62"),
    ("universe 0\n1\n", "line 2: atom 1 outside universe of size 0"),
    ("universe 3\n-0\n", "line 2: atom 0 outside universe of size 3"),
    ("universe 2\n1 bogus\n", "line 2: malformed token 'bogus'"),
    ("universe 3\nH\n", None, "line 2: malformed token 'H'"),
    ("universe 2\n1\n\n1\n", "line 4: duplicate member '1'"),
    ("universe 3\nH\nH\n", "line 3: duplicate member 'H'", "line 2: malformed token 'H'"),
    ("universe 3\n2\tH\r\n2 H\n", "line 3: duplicate member '2 H'", "line 2: malformed token 'H'"),
    ("# only comments\n", "line 2: missing 'universe <m>' header"),
    ("universe 2\n1 empty\n", "line 2: 'empty' cannot be combined with other tokens"),
    ("\n# lead\nuniverse -1\n", "line 3: universe size must be in [0, 62]"),
    ("universe 1 2\n", "line 1: expected 'universe <m>' header"),
    ("universe 3\n\n2 1\n# gap\n1 2\n", "line 5: duplicate member '1 2'"),
    # int() takes these, the format does not
    ("universe 1_0\n", "line 1: bad universe size '1_0'"),
    ("universe +2\n", "line 1: bad universe size '+2'"),
    ("universe \u0663\n", "line 1: bad universe size '\u0663'"),
    ("universe 12\n2\n1_0 H\n", "line 3: malformed token '1_0'"),
    ("universe 3\n+3\n", "line 2: malformed token '+3'"),
    ("# ok\nuniverse 3\n\u0663 2\n", "line 3: malformed token '\u0663'"),
    ("universe 3\n-1 +2\n", "line 2: atom -1 outside universe of size 3"),
]


def test_parse_error_positions():
    """Every message in full, with its line, from both parsers, which share
    the tokenizer."""
    for text, family_message, *concrete in _PARSE_ERRORS:
        for parse, message in ((parse_family, family_message),
                               (parse_concrete, concrete[0] if concrete else family_message)):
            if message is None:
                parse(text)
                continue
            with pytest.raises(FamilyFormatError) as err:
                parse(text)
            assert str(err.value) == message, (parse.__name__, text)
            assert err.value.line == int(message.split(":")[0].removeprefix("line ")), text


def test_parse_takes_leading_zeros_tabs_and_crlf():
    assert parse_family("universe 7\n01\n007\n").members == (Member(1, False), Member(1 << 6, False))
    assert parse_concrete("universe 7\n01\n007\n").members == (1, 1 << 6)
    spaced = parse_family("universe 4\n1 3\n2 4 H\nempty\n")
    for text in ("universe\t4\n1\t3\n2\t4\tH\nempty\n", "universe 4\r\n1 3\r\n2 4 H\r\nempty\r\n",
                 " universe  4 \n\t1 \t 3\r\n 2 4  H\t\r\n empty \n"):
        assert parse_family(text) == spaced, text
    assert parse_concrete("universe\t4\r\n1\t3\r\n").members == (0b101,)


def test_parse_names_the_line_of_an_undecodable_byte():
    cases = [
        (b"universe 2\n1 \xff\n", 2, "byte 0xff is not valid UTF-8"),
        (b"\xffuniverse 2\n", 1, "byte 0xff is not valid UTF-8"),
        (b"universe 2\r\n1\r\n\xc3", 3, "byte 0xc3 is not valid UTF-8"),
        (b"# caf\xc3\xa9\runiverse 2\r2 \x80\n", 3, "byte 0x80 is not valid UTF-8"),
    ]
    for parse in (parse_family, parse_concrete):
        for data, line, fragment in cases:
            with pytest.raises(FamilyFormatError) as err:
                parse(data)
            assert err.value.line == line, data
            assert str(err.value) == f"line {line}: {fragment}", data


def test_parse_bytes_lf_and_crlf_alike():
    text = "# seven56\n" + serialize_family(seven56())
    for data in (text, text.encode(), text.replace("\n", "\r\n"),
                 text.replace("\n", "\r\n").encode()):
        assert parse_family(data) == seven56()
    with pytest.raises(FamilyFormatError) as err:
        parse_family(b"universe 2\r\n1 \r\n3\r\n")
    assert err.value.line == 3


def test_parse_h_alone_is_the_block():
    f = parse_family("universe 0\nH\nempty\n")
    assert set(f.members) == {Member(0, True), Member(0, False)}
