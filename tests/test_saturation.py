"""Layer checks, the verifier, the concrete brute-force oracle, and the
probabilistic helpers."""

import hashlib
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spernersat import (
    LAYER_NOT_SATURATED,
    ORACLE_MAX_GROUND,
    SCAN_MAX_ATOMS,
    WRONG_LAYER_COUNT,
    CapacityError,
    ConcreteFamily,
    Family,
    Member,
    bootstrapped,
    brute_force_saturated,
    canonical_decomposition,
    eps_of,
    expected_hits,
    find_atoms,
    instantiate,
    is_saturated_antichain,
    mask_of_atoms,
    parse_concrete,
    seven56,
    three_sperner,
    trivial_construction,
    verify_saturated_k_sperner,
)
from helpers import (
    builtin_families,
    composed_families,
    random_family,
    random_saturated_antichain,
)
from spernersat.saturation import _first_uncovered


# ------------------------------------------------- saturated antichains

def test_saturated_antichain_trivial_examples():
    ok, witness = is_saturated_antichain(Family(0, (Member(0, False),)))
    assert ok and witness is None
    # {1} small over one atom: T = empty contains no small, no large exists
    ok, witness = is_saturated_antichain(Family(1, (Member(0b1, False),)))
    assert not ok and witness == 0


def test_saturated_antichain_fano_layer():
    layers = canonical_decomposition(seven56())
    for layer in layers:
        ok, witness = is_saturated_antichain(layer)
        assert ok, f"layer of size {layer.size} failed with witness {witness}"


def test_saturated_antichain_witness_is_canonically_first():
    # {1,2} small over two atoms: empty and the singletons are uncovered;
    # the witness must be the canonically first one (fewest atoms, then value)
    ok, witness = is_saturated_antichain(Family(2, (Member(0b11, False),)))
    assert not ok and witness == 0
    # a lone large {1}+H covers empty and {1}; first failure is {2}
    ok, witness = is_saturated_antichain(Family(2, (Member(0b01, True),)))
    assert not ok and witness == 0b10


@st.composite
def _small_layers(draw):
    m = draw(st.integers(0, 6))
    members = draw(st.sets(st.tuples(st.integers(0, (1 << m) - 1), st.booleans()), max_size=8))
    return Family(m, tuple(Member(mask, has_h) for mask, has_h in members))


@settings(max_examples=300, deadline=None)
@given(_small_layers())
@example(Family(2, ()))
def test_first_uncovered_is_the_first_hole_by_atom_count_then_value(layer):
    smalls = [mem.atom_mask for mem in layer.members if not mem.has_H]
    larges = [mem.atom_mask for mem in layer.members if mem.has_H]

    def covered(t):
        return any(s & ~t == 0 for s in smalls) or any(t & ~l == 0 for l in larges)
    holes = [t for t in range(1 << layer.m) if not covered(t)]
    first = min(holes, key=lambda t: (t.bit_count(), t), default=None)
    assert _first_uncovered(layer.m, smalls, larges) == first

    # is_saturated_antichain against the definition: the empty family gets
    # (False, 0), since nothing covers the empty set
    def inside(a, b):
        return a != b and a.atom_mask & ~b.atom_mask == 0 and a.has_H <= b.has_H
    if any(inside(a, b) for a in layer.members for b in layer.members):
        with pytest.raises(ValueError, match="input is not an antichain"):
            is_saturated_antichain(layer)
    else:
        assert is_saturated_antichain(layer) == (first is None, first)


def test_first_uncovered_on_a_wide_universe():
    # every subset but the full one is a hole; the first is the empty set
    assert _first_uncovered(22, [(1 << 22) - 1], []) == 0


def test_saturated_antichain_rejects_non_antichain():
    with pytest.raises(ValueError):
        is_saturated_antichain(Family(2, (Member(0b01, False), Member(0b11, False))))


def test_antichain_check_is_not_quadratic():
    # the middle layer of 16 atoms: 12,870 smalls, no large, so every set of
    # fewer than 8 atoms is uncovered and the empty set comes first
    middle = [Member(mask, False) for mask in range(1 << 16) if mask.bit_count() == 8]
    layer = Family(16, tuple(middle))
    assert layer.size == 12870
    start = time.perf_counter()
    assert is_saturated_antichain(layer) == (False, 0)
    assert time.perf_counter() - start < 0.5
    # one member above the layer makes it a chain of two
    with pytest.raises(ValueError, match="input is not an antichain"):
        is_saturated_antichain(Family(16, (*middle, Member(0x1FF, False))))
    # and so does a large on a small's atoms
    with pytest.raises(ValueError, match="input is not an antichain"):
        is_saturated_antichain(Family(16, (*middle, Member(middle[-1].atom_mask, True))))


def test_saturated_antichain_agrees_with_degree_one_oracle():
    """A layer is saturated exactly when it is a saturated 1-Sperner system."""
    rng = random.Random(8101)
    for _ in range(150):
        layer = random_saturated_antichain(rng, max_atoms=5)
        for h in (2, 3, 4):
            assert brute_force_saturated(instantiate(layer, h), 1)
    # and a non-saturated antichain fails the oracle the same way
    bad = Family(2, (Member(0b11, False),))
    ok, _ = is_saturated_antichain(bad)
    assert not ok
    for h in (2, 3, 4):
        assert not brute_force_saturated(instantiate(bad, h), 1)


# ---------------------------------------------------------- the verifier

def test_verify_seven56():
    report = verify_saturated_k_sperner(seven56(), 7)
    assert report.verdict
    assert report.layer_count == 7
    assert [lr.size for lr in report.layers] == [1, 6, 14, 14, 14, 6, 1]
    assert report.reasons == ()


def test_verify_trivial_constructions():
    for k in range(2, 11):
        f = trivial_construction(k)
        assert f.size == 2 ** (k - 1)
        assert verify_saturated_k_sperner(f, k).verdict


def test_verify_wrong_layer_count():
    report = verify_saturated_k_sperner(seven56(), 6)
    assert not report.verdict
    assert report.reasons[0].code == WRONG_LAYER_COUNT


def test_verify_unsaturated_layer_reports_index_and_witness():
    # two incomparable 2-chains: right layer count, but layers not saturated
    f = Family(2, (Member(0b01, False), Member(0b10, False),
                   Member(0b01, True), Member(0b10, True)))
    report = verify_saturated_k_sperner(f, 2)
    assert not report.verdict
    codes = {r.code for r in report.reasons}
    assert codes == {LAYER_NOT_SATURATED}
    assert report.reasons[0].witness_mask is not None
    layer = report.reasons[0].layer
    assert layer in (0, 1)


def test_verify_gives_empty_family_a_false_verdict_and_accepts_any_k():
    report = verify_saturated_k_sperner(Family(2, ()), 2)
    assert not report.verdict
    assert report.layer_count == 0
    assert [reason.code for reason in report.reasons] == [WRONG_LAYER_COUNT]
    with pytest.raises(ValueError, match="k must be >= 1"):
        verify_saturated_k_sperner(three_sperner(), 0)
    assert not verify_saturated_k_sperner(three_sperner(), 2).verdict
    assert not verify_saturated_k_sperner(three_sperner(), 4).verdict


def test_verify_refuses_large_universe_before_decomposing(monkeypatch):
    import spernersat.saturation as saturation_mod

    def no_depths(members):
        raise AssertionError("the depth pass ran before the size check")

    monkeypatch.setattr(saturation_mod, "member_depths", no_depths)
    big = Family(29, (Member(0, False), Member((1 << 29) - 1, True)))
    with pytest.raises(ValueError, match="universe of size 29 is too large for the exhaustive scan"):
        verify_saturated_k_sperner(big, 2)


def test_verify_report_json_shape():
    d = verify_saturated_k_sperner(three_sperner(), 3).to_json_dict()
    assert d["schema_version"] == 1
    assert d["verdict"] is True
    assert d["k"] == 3 and d["layer_count"] == 3
    assert [layer["size"] for layer in d["layers"]] == [1, 2, 1]
    assert d["reasons"] == []


def test_single_member_removal_breaks_saturation():
    for name, f, k in [("three", three_sperner(), 3),
                       ("trivial(4)", trivial_construction(4), 4)]:
        for mem, key in zip(f.members, f.keys):
            smaller = Family.from_keys(f.m, [other for other in f.keys if other != key])
            assert not verify_saturated_k_sperner(smaller, k).verdict, f"{name} minus {mem} still verified"


# ------------------------------------------------------- concrete side

def test_instantiate_three():
    c = instantiate(three_sperner(), 2)
    assert c.n == 3
    assert c.members == (0b000, 0b001, 0b110, 0b111)


def test_instantiate_guards():
    with pytest.raises(ValueError):
        instantiate(three_sperner(), 1)
    with pytest.raises(ValueError):
        instantiate(seven56(), 18)  # 7 + 18 > 24


def test_parse_concrete():
    c = parse_concrete("# c\nuniverse 3\nempty\n1 3\n")
    assert c.n == 3 and c.members == (0b000, 0b101)
    with pytest.raises(ValueError):
        parse_concrete("universe 2\n1 H\n")


def test_concrete_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        ConcreteFamily(2, (0b01, 0b01))
    with pytest.raises(ValueError):
        ConcreteFamily(2, (0b100,))
    for n in (63, -1):
        with pytest.raises(ValueError, match="ground set size"):
            ConcreteFamily(n, ())


def test_find_atoms_examples():
    part = find_atoms(instantiate(seven56(), 3))
    assert part.classes[:7] == tuple((a,) for a in range(1, 8))
    assert part.homogeneous == ((8, 9, 10),)

    all_or_nothing = ConcreteFamily(4, (0, 0b1111))
    part = find_atoms(all_or_nothing)
    assert part.classes == ((1, 2, 3, 4),)
    assert part.homogeneous == ((1, 2, 3, 4),)

    part = find_atoms(instantiate(three_sperner(), 2))
    assert part.classes == ((1,), (2, 3))


def test_find_atoms_recovers_h_for_builtins():
    """With pair-separating smalls (all built-ins), the only homogeneous
    class is exactly the h realized copies of the block."""
    for name, f, _k in builtin_families() + composed_families():
        for h in (2, 3):
            if f.m + h > 24:
                continue
            part = find_atoms(instantiate(f, h))
            expected = tuple(range(f.m + 1, f.m + h + 1))
            assert part.homogeneous == (expected,), name


# ------------------------------------------------------- brute force

def test_brute_force_tiny_hand_cases():
    # {empty} over one element: adding {1} makes a 2-chain
    assert brute_force_saturated(ConcreteFamily(1, (0,)), 1)
    assert not brute_force_saturated(ConcreteFamily(1, (0, 0b1)), 1)
    # {empty, full} over two elements: each singleton completes a 3-chain
    assert brute_force_saturated(ConcreteFamily(2, (0, 0b11)), 2)
    assert not brute_force_saturated(ConcreteFamily(2, (0,)), 2)
    # a 3-chain violates degree 2
    assert not brute_force_saturated(ConcreteFamily(2, (0, 0b1, 0b11)), 2)


def test_brute_force_on_instantiated_builtins():
    assert brute_force_saturated(instantiate(three_sperner(), 2), 3)
    assert brute_force_saturated(instantiate(trivial_construction(4), 2), 4)
    assert not brute_force_saturated(instantiate(trivial_construction(4), 2), 3)


def test_brute_force_rejects_large_ground_set():
    with pytest.raises(ValueError):
        brute_force_saturated(ConcreteFamily(25, (0,)), 1)


def test_oracle_equivalence_sample():
    """The layer verdict and the ground-set oracle agree on random families."""
    rng = random.Random(8102)
    for _ in range(120):
        f = random_family(rng)
        chain = len(canonical_decomposition(f))
        for k in sorted({max(1, chain - 1), chain, chain + 1} - {0}):
            verdict = verify_saturated_k_sperner(f, k).verdict
            for h in (2, 3):
                assert brute_force_saturated(instantiate(f, h), k) == verdict


def test_brute_force_degree_beyond_int8():
    # Degrees far above the longest chain in P([n]) (n+1 sets), past any
    # fixed-width integer a depth table could use, and past sys.maxsize,
    # which no index can hold.
    three = three_sperner()
    for k in (127, 128, 255, 256, 300, 2**63, 10**20):
        assert not brute_force_saturated(ConcreteFamily(2, (0, 0b11)), k)
        # no set is absent from P([3]), and its chains have 4 sets
        assert brute_force_saturated(ConcreteFamily(3, tuple(range(8))), k)
        assert brute_force_saturated(instantiate(three, 2), k) == verify_saturated_k_sperner(three, k).verdict
    assert not brute_force_saturated(ConcreteFamily(3, tuple(range(8))), 3)


def test_brute_force_tables_memory():
    n = 20
    c = ConcreteFamily(n, (0, (1 << n) - 1))
    tracemalloc.start()
    try:
        assert brute_force_saturated(c, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 20 half masks and a few 2^20-bit tables, 128 KiB each: ~3.7 MiB at the peak
    assert peak < 8 * 2**20, peak


def test_oracle_verdicts_are_pinned():
    """Regression pin: one digest over the oracle's verdict bits on 3,000
    seeded arbitrary families over n <= 10 elements with up to 40 members,
    at every k = 1..n+2, and on every built-in at h = 2..4 at its degree
    and the degrees next to it."""
    rng = random.Random(1313)
    bits = []
    for _ in range(3000):
        n = rng.randint(0, 10)
        members = rng.sample(range(1 << n), rng.randint(0, min(40, 1 << n)))
        c = ConcreteFamily(n, tuple(members))
        bits.extend(brute_force_saturated(c, k) for k in range(1, n + 3))
    for _name, f, k in builtin_families() + composed_families():
        for h in (2, 3, 4):
            if f.m + h <= ORACLE_MAX_GROUND:
                concrete = instantiate(f, h)
                bits.extend(brute_force_saturated(concrete, probe) for probe in (k - 1, k, k + 1)
                            if probe >= 1)
    text = "".join("1" if bit else "0" for bit in bits)
    assert (len(bits), sum(bits)) == (21059, 879)
    assert hashlib.sha256(text.encode()).hexdigest() == "9d639087d29843045091bf563080e59f31edd52a80a7780d2bdb5f3982d6e52b"


@pytest.mark.parametrize("k", range(2, 17))
def test_verifier_matches_oracle_on_bootstrapped(k):
    # the paper's construction, checked against the oracle at |H| = 2
    f, _ = bootstrapped(k)
    concrete = instantiate(f, 2)
    for probe in (k - 1, k, k + 1):
        assert verify_saturated_k_sperner(f, probe).verdict == (probe == k)
        assert brute_force_saturated(concrete, probe) == (probe == k)


def test_capacity_refusals_are_capacity_errors():
    assert issubclass(CapacityError, ValueError)
    big = Family(SCAN_MAX_ATOMS + 1, (Member(0, False),))
    with pytest.raises(CapacityError, match="universe of size 29 is too large for the exhaustive scan"):
        verify_saturated_k_sperner(big, 1)
    # refused before the depth pass, so a comparable pair does not matter
    chain = Family(SCAN_MAX_ATOMS + 1, (Member(0, False), Member(1, False)))
    with pytest.raises(CapacityError, match="universe of size 29 is too large for the exhaustive scan"):
        is_saturated_antichain(chain)
    with pytest.raises(CapacityError, match="ground set of size 27 exceeds the oracle limit 24"):
        instantiate(seven56(), 20)
    with pytest.raises(CapacityError, match="ground set of size 25 exceeds the oracle limit 24"):
        brute_force_saturated(ConcreteFamily(ORACLE_MAX_GROUND + 1, (0,)), 1)
    # a bad h or k stays a plain ValueError
    for call in (lambda: instantiate(seven56(), 1), lambda: brute_force_saturated(ConcreteFamily(1, (0,)), 0)):
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, CapacityError)


@st.composite
def _abstract_families(draw):
    # m <= 5 atoms, 0..12 members, smalls and larges
    m = draw(st.integers(0, 5))
    members = draw(st.sets(st.builds(Member, st.integers(0, (1 << m) - 1), st.booleans()),
                           min_size=0, max_size=12))
    return Family(m, tuple(members))


@settings(max_examples=200, deadline=None)
@given(_abstract_families(), st.sampled_from((2, 3)))
def test_verifier_matches_oracle_property(f, h):
    chain = len(canonical_decomposition(f))
    concrete = instantiate(f, h)
    for k in range(max(1, chain - 1), chain + 2):
        assert brute_force_saturated(concrete, k) == verify_saturated_k_sperner(f, k).verdict, k


# ------------------------------------------------- probabilistic helpers

def test_expected_hits_fixed_values():
    bottom = Family(0, (Member(0, False),))
    for q in (0.05, 0.5, 0.95):
        assert expected_hits(bottom, q) == 1.0
    pairs_layer = canonical_decomposition(seven56())[2]
    assert expected_hits(pairs_layer, 0.5) == pytest.approx(2.1875, abs=1e-12)
    q = 0.5 - eps_of(2, 7)
    assert expected_hits(pairs_layer, q) >= 1.0


def test_expected_hits_rejects_bad_q():
    layer = Family(0, (Member(0, False),))
    for q in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            expected_hits(layer, q)


def test_expected_hits_at_least_one_on_saturated_layers():
    rng = random.Random(8103)
    grid = [i / 20 for i in range(1, 20)]
    for _ in range(100):
        layer = random_saturated_antichain(rng, max_atoms=5)
        for q in grid:
            assert expected_hits(layer, q) >= 1.0 - 1e-12


def test_eps_of_values():
    # midpoint layer has eps 0; the proof's range is i in [2, (k-1)/2]
    assert eps_of(3, 7) == 0.0
    assert eps_of(2, 7) == pytest.approx(0.34657359 / 6 * 2, rel=1e-6)
    assert eps_of(2, 7) > 0.0
    with pytest.raises(ValueError, match="k must be >= 2"):
        eps_of(0, 1)
