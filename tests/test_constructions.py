"""Built-in constructions, composition, bootstrap plans, and reduction."""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spernersat import (
    EPS_NEW,
    CapacityError,
    CompositionPlan,
    Family,
    Member,
    ReductionTrace,
    bootstrapped,
    canonical_decomposition,
    complement_family,
    compose,
    eps_of,
    expected_hits,
    is_antichain,
    is_saturated_antichain,
    layer_lower_bound,
    mask_of_atoms,
    reduce_antichain,
    serialize_family,
    seven56,
    three_sperner,
    trivial_construction,
    upper_bound_report,
    verify_saturated_k_sperner,
)
from helpers import (
    at_each_int_str_limit,
    builtin_families,
    composed_families,
    random_saturated_antichain,
    singleton_smalls,
    split_sizes,
)


# ----------------------------------------------------------- power set

def _power_set(k: int) -> Family:
    """Built here, not by the library: every mask on k - 2 atoms as a small
    and its complement as a large."""
    m = k - 2
    full = (1 << m) - 1
    return Family(m, tuple(member for mask in range(1 << m)
                           for member in (Member(mask, False), Member(full ^ mask, True))))


def test_trivial_construction_is_the_power_set():
    for k in range(2, 13):
        assert trivial_construction(k) == _power_set(k), k


def test_trivial_construction_exact_members():
    assert set(trivial_construction(2).members) == {Member(0, False), Member(0, True)}
    expected = {
        Member(0b00, False), Member(0b01, False), Member(0b10, False), Member(0b11, False),
        Member(0b11, True), Member(0b10, True), Member(0b01, True), Member(0b00, True),
    }
    assert set(trivial_construction(4).members) == expected


def test_trivial_construction_sizes_and_verdicts():
    for k in range(2, 11):
        f = trivial_construction(k)
        assert f.m == k - 2
        assert f.size == 2 ** (k - 1)
        assert verify_saturated_k_sperner(f, k).verdict


def test_trivial_construction_guard():
    with pytest.raises(ValueError):
        trivial_construction(1)


def test_three_sperner_is_the_smallest_power_set():
    assert three_sperner() == trivial_construction(3) == _power_set(3)
    assert three_sperner().size == 4


# ------------------------------------------------------------- seven56

SEVEN56_LAYER_ATOMS = {
    1: ([(2,), (3,), (5,), (6,), (7,)], [(1, 4)]),
    2: ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7)],
        [(3, 5, 7), (1, 4, 6), (2, 5, 7), (1, 3, 6), (2, 4, 7), (1, 3, 5), (2, 4, 6)]),
    3: ([(1, 2, 6), (2, 3, 7), (1, 3, 4), (2, 4, 5), (3, 5, 6), (4, 6, 7), (1, 5, 7)],
        [(3, 4, 5, 7), (1, 4, 5, 6), (2, 5, 6, 7), (1, 3, 6, 7), (1, 2, 4, 7),
         (1, 2, 3, 5), (2, 3, 4, 6)]),
}


def test_seven56_shape():
    f = seven56()
    assert f.m == 7
    assert f.size == 56
    report = verify_saturated_k_sperner(f, 7)
    assert report.verdict
    assert [lr.size for lr in report.layers] == [1, 6, 14, 14, 14, 6, 1]


def test_seven56_explicit_lower_layers():
    layers = canonical_decomposition(seven56())
    assert layers[0].members == (Member(0, False),)
    for index, (smalls, larges) in SEVEN56_LAYER_ATOMS.items():
        layer = layers[index]
        assert set(layer.members) == ({Member(mask_of_atoms(a), False) for a in smalls}
                                      | {Member(mask_of_atoms(a), True) for a in larges})


def test_seven56_upper_layers_are_complements():
    from spernersat import complement_family
    layers = canonical_decomposition(seven56())
    for low, high in ((0, 6), (1, 5), (2, 4), (3, 3)):
        assert complement_family(layers[low]) == layers[high]


# ------------------------------------------------------------- compose

def test_compose_of_threes_is_the_powerset():
    assert compose(three_sperner(), three_sperner()) == _power_set(4)


def test_compose_size_identity_all_builtin_pairs():
    builtins = builtin_families()
    for name1, f1, _ in builtins:
        for name2, f2, _ in builtins:
            g = compose(f1, f2)
            (s1, l1), (s2, l2) = split_sizes(f1), split_sizes(f2)
            expected = s1 * s2 + l1 * l2
            assert g.size == expected, f"{name1} * {name2}"
            assert g.m == f1.m + f2.m


def test_compose_preserves_verification():
    """Degrees add minus two; checked for every built-in pair small enough
    to decompose (includes both pairs with named expected sizes)."""
    builtins = builtin_families()
    checked = 0
    for name1, f1, k1 in builtins:
        for name2, f2, k2 in builtins:
            g = compose(f1, f2)
            if g.size > 1600:
                continue
            assert verify_saturated_k_sperner(g, k1 + k2 - 2).verdict, f"{name1} * {name2}"
            checked += 1
    assert checked >= 80


def test_compose_named_sizes():
    g = compose(seven56(), three_sperner())
    assert (g.m, g.size) == (8, 112)
    assert verify_saturated_k_sperner(g, 8).verdict
    g = compose(seven56(), seven56())
    assert (g.m, g.size) == (14, 1568)
    assert verify_saturated_k_sperner(g, 12).verdict


def test_compose_universe_cap():
    wide = Family(40, (Member(0, False), Member((1 << 40) - 1, True)))
    with pytest.raises(ValueError):
        compose(wide, Family(30, (Member(0, False), Member((1 << 30) - 1, True))))


def test_compose_caps_raise_capacity_error_before_building():
    wide = Family(40, (Member(0, False), Member((1 << 40) - 1, True)))
    with pytest.raises(CapacityError, match="composed universe needs 70 atoms, limit is 62"):
        compose(wide, Family(30, (Member(0, False), Member((1 << 30) - 1, True))))
    # 2048 smalls and 2048 larges each: 2 * 2048^2 = 8,388,608 members
    power = trivial_construction(13)
    with pytest.raises(CapacityError, match="composed family needs 8388608 members, limit is 2097152"):
        compose(power, power)


def _families(max_atoms: int = 4, max_members: int = 10):
    """Arbitrary duplicate-free families, the empty family included."""
    return st.integers(0, max_atoms).flatmap(lambda m: st.builds(
        lambda masks: Family(m, tuple(Member(mask, has_h) for mask, has_h in masks)),
        st.sets(st.tuples(st.integers(0, (1 << m) - 1), st.booleans()), max_size=max_members)))


@settings(max_examples=200, deadline=None)
@given(_families(), _families())
def test_compose_size_identity_property(f1, f2):
    g = compose(f1, f2)
    assert g.m == f1.m + f2.m
    (s1, l1), (s2, l2) = split_sizes(f1), split_sizes(f2)
    assert split_sizes(g) == (s1 * s2, l1 * l2)


@settings(max_examples=200, deadline=None)
@given(_families(), _families(), _families())
def test_compose_product_laws_property(a, b, c):
    """compose() is the unit, the product is associative, and the small and
    large counts multiply."""
    assert compose() == trivial_construction(2)
    assert compose(a) == a == compose(compose(), a)
    abc = compose(a, b, c)
    assert abc == compose(compose(a, b), c) == compose(a, compose(b, c))
    assert abc.m == a.m + b.m + c.m
    (sa, la), (sb, lb), (sc, lc) = map(split_sizes, (a, b, c))
    assert split_sizes(abc) == (sa * sb * sc, la * lb * lc)


# saturated k-Sperner built-ins up to 64 members, so every pair verifies quickly
_SMALL_BUILTINS = [entry for entry in builtin_families() if entry[1].size <= 64]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SMALL_BUILTINS), st.sampled_from(_SMALL_BUILTINS),
       st.booleans(), st.booleans())
def test_compose_degree_identity_property(left, right, flip_left, flip_right):
    """The complement of a saturated k-Sperner system is one too, and
    composing two gives degree k1 + k2 - 2."""
    (_, f1, k1), (_, f2, k2) = left, right
    f1 = complement_family(f1) if flip_left else f1
    f2 = complement_family(f2) if flip_right else f2
    assert verify_saturated_k_sperner(compose(f1, f2), k1 + k2 - 2).verdict


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_SMALL_BUILTINS))
def test_compose_with_own_complement_property(entry):
    """F composed with F^c: degree 2k - 2, s*l smalls and s*l larges."""
    _, f, k = entry
    g = compose(f, complement_family(f))
    small, large = split_sizes(f)
    assert split_sizes(g) == (small * large, small * large)
    assert verify_saturated_k_sperner(g, 2 * k - 2).verdict


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 14))
def test_builtins_are_complement_closed(k):
    assert complement_family(trivial_construction(k)) == trivial_construction(k)
    assert complement_family(seven56()) == seven56()


# ----------------------------------------------------------- bootstrap

def test_bootstrapped_matches_powerset_below_seven():
    for k in range(2, 7):
        fam, plan = bootstrapped(k)
        assert fam == _power_set(k)
        assert plan.j == 0 and plan.s == k - 2
        assert plan.predicted_size == 2 ** (k - 1)


# degree and atom count of each factor a composition plan multiplies
_FACTORS = {"seven56": (7, 7), "three": (3, 1)}


def _plan_factors(plan):
    """The factors of plan's product, in compose order: j seven56 blocks,
    then s three blocks."""
    return ("seven56",) * plan.j + ("three",) * plan.s


def _plan_degree(plan):
    """The degree of the product of plan's factors: n factors of degrees
    k1..kn compose to k1 + ... + kn - 2(n - 1)."""
    factors = _plan_factors(plan)
    return sum(_FACTORS[name][0] for name in factors) - 2 * (len(factors) - 1)


def test_bootstrapped_materialized_sizes():
    for k in range(7, 18):
        fam, plan = bootstrapped(k)
        assert fam is not None
        assert _plan_degree(plan) == k
        assert fam.m == sum(_FACTORS[name][1] for name in _plan_factors(plan))
        assert fam.size == plan.predicted_size == 2 ** (plan.s + 1) * 28 ** plan.j


def test_bootstrapped_verifies():
    for k in range(7, 14):
        fam, _ = bootstrapped(k)
        assert verify_saturated_k_sperner(fam, k).verdict, k


def _lemma_families():
    yield "seven56", seven56(), 7
    for k in range(7, 11):
        yield f"trivial({k})", trivial_construction(k), k
    yield "seven56*three", compose(seven56(), three_sperner()), 8
    yield "seven56*seven56", compose(seven56(), seven56()), 12
    for k in range(7, 17):
        yield f"bootstrapped({k})", bootstrapped(k)[0], k


def test_built_layers_meet_the_per_layer_lemma():
    """Layer i of each built k-layer system holds at least
    layer_lower_bound(j, k) members, j = min(i, k-1-i), wherever j >= 2;
    and every layer covers at least once in expectation when atoms are kept
    with probability 1/2 - eps_of(i, k), the weighted covering step behind
    that bound."""
    for name, f, k in _lemma_families():
        layers = canonical_decomposition(f)
        assert len(layers) == k, name
        for i, layer in enumerate(layers):
            j = min(i, k - 1 - i)
            if j >= 2:
                assert layer.size >= layer_lower_bound(j, k), (name, i)
            assert expected_hits(layer, 0.5 - eps_of(i, k)) >= 1, (name, i)


def test_bootstrapped_size_identity_arithmetic():
    """Fold the exact small/large counts through the composition size
    identity for every k up to 32.  Only the counts are tracked, so the
    check stays cheap where the family itself would not fit in memory; the
    counts come from the same factors the materializing path composes."""
    from spernersat import CompositionPlan

    factor_counts = {"seven56": (28, 28), "three": (2, 2)}
    for k in range(7, 33):
        j, s = divmod(k - 2, 5)
        plan = CompositionPlan(k=k, j=j, s=s)
        smalls, larges = 1, 1  # compose() of no factors: {empty, H}
        for name in _plan_factors(plan):
            fs, fl = factor_counts[name]
            smalls *= fs
            larges *= fl
        total = smalls + larges
        assert total == plan.predicted_size == 2 ** (s + 1) * 28 ** j
        assert _plan_degree(plan) == k
        assert math.log2(total) <= (1.0 - EPS_NEW) * k + 1e-9


def test_bootstrapped_plan_only_beyond_atom_cap(monkeypatch):
    import spernersat.constructions as constructions_mod

    def no_compose(*factors):
        raise AssertionError("compose ran past the atom cap")

    monkeypatch.setattr(constructions_mod, "compose", no_compose)
    # k = 47 = 5 * 9 + 2: nine seven56 blocks, 63 atoms, 2 * 28^9 members
    with pytest.raises(CapacityError, match=r"degree 47 needs 63 atoms \(limit 62\); plan: j=9 s=0$"):
        bootstrapped(47)
    with pytest.raises(ValueError):
        bootstrapped(1)


def test_bootstrapped_member_cap_is_checked_from_the_plan(monkeypatch):
    import spernersat.constructions as constructions_mod

    class Composed(Exception):
        pass

    def no_compose(*factors):
        raise Composed()

    monkeypatch.setattr(constructions_mod, "compose", no_compose)
    # k = 23 = 5 * 4 + 2 + 1: 29 atoms, under the atom cap
    with pytest.raises(CapacityError, match=r"degree 23 needs 2458624 members \(limit 2097152\); "
                                            r"plan: j=4 s=1$"):
        bootstrapped(23)
    assert 2_458_624 > constructions_mod.MAX_MEMBERS
    # k = 22 (1,229,312 members) is still under the cap, so it gets built
    with pytest.raises(Composed):
        bootstrapped(22)


def test_one_plan_serves_bounds_and_bootstrapped(monkeypatch):
    """upper_bound_report and bootstrapped read the same CompositionPlan, and
    a report's j, s and upper_log2 are the law's closed form, to the bit."""
    import spernersat.constructions as constructions_mod

    for k in [*range(2, 5001), 10 ** 6, 4_000_001]:
        report = upper_bound_report(k)
        j, s = divmod(k - 2, 5)
        assert (report.j, report.s) == (j, s), k
        assert report.upper_log2 == (s + 1) + j * math.log2(28.0), k
    # the plan is returned beside the product, which need not be built
    monkeypatch.setattr(constructions_mod, "compose", lambda *factors: None)
    for k in range(2, 23):
        assert bootstrapped(k) == (None, CompositionPlan.of(k)), k
    for make in (lambda: CompositionPlan.of(1), lambda: CompositionPlan(1, 0, -1)):
        with pytest.raises(ValueError, match=r"^k must be >= 2$"):
            make()


GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
                    .read_text(encoding="utf-8"))

# bootstrapped(15..17): s = 3, s = 4 and the step to j = 3
PINNED_CONSTRUCT = {
    15: "786524e988b8f8f6b068dba0afeb9eadff804909c77779fc1330ea6af985d379",
    16: "fc912374f31c7dc27bd29bdb3d9166b391f106b4b2cd06c7e60cf072b1890027",
    17: "4d82448f1511409411d78962033a7171855154d167587d46ab169b1b7ac1d12b",
}


def test_bootstrapped_bytes_are_pinned():
    """The text of bootstrapped(7..14) matches the benchmark's golden
    `construct` digests, and that of 15..17 its own pins."""
    expected = {k: GOLDEN[f"construct K={k}"] for k in range(7, 15)} | PINNED_CONSTRUCT
    for k, digest in expected.items():
        text = serialize_family(bootstrapped(k)[0])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, k


def test_a_degree_too_long_to_write_in_decimal_is_a_capacity_error():
    """Python refuses to write an int of more than 4,300 digits in decimal;
    the refusal gives such a number's bit length instead, and so with the
    limit off too."""
    k = 10 ** 5000
    bits = k.bit_length()
    j, s = divmod(k - 2, 5)

    def check():
        with pytest.raises(CapacityError) as refused:
            bootstrapped(k)
        assert (bits, (7 * j + s).bit_length(), j.bit_length(), s) == (16610, 16611, 16608, 3)
        assert str(refused.value) == ("degree <16610-bit number> needs <16611-bit number> atoms "
                                      "(limit 62); plan: j=<16608-bit number> s=3")
        with pytest.raises(CapacityError) as refused:
            trivial_construction(k)
        assert str(refused.value) == f"degree <{bits}-bit number> needs <{bits}-bit number> atoms (limit 62)"
        # up to 256 bits a degree is still written in decimal
        with pytest.raises(CapacityError, match=f"^degree {2 ** 256 - 1} needs {2 ** 256 - 3} atoms"):
            trivial_construction(2 ** 256 - 1)

    at_each_int_str_limit(check)


def test_trivial_construction_member_cap_is_checked_before_building(monkeypatch):
    import spernersat.constructions as constructions_mod

    class Built(Exception):
        pass

    def no_compose(*factors):
        raise Built()

    monkeypatch.setattr(constructions_mod, "compose", no_compose)
    with pytest.raises(CapacityError, match=r"^degree 30 needs 536870912 members \(limit 2097152\)$"):
        trivial_construction(30)
    with pytest.raises(CapacityError, match=r"^degree 23 needs 4194304 members \(limit 2097152\)$"):
        trivial_construction(23)
    with pytest.raises(CapacityError, match=r"^degree 100 needs 98 atoms \(limit 62\)$"):
        trivial_construction(100)
    # k = 22 (2^21 members) is at the cap, so it gets built
    with pytest.raises(Built):
        trivial_construction(22)


# ----------------------------------------------------------- reduction

def test_reduce_identity_on_singleton_smalls():
    layers = canonical_decomposition(seven56())
    for layer in (layers[0], layers[1]):
        out, trace = reduce_antichain(layer)
        assert out == layer
        assert trace.steps == ()
    bottom = Family(0, (Member(0, False),))
    out, trace = reduce_antichain(bottom)
    assert out == bottom and trace.steps == ()


def test_reduce_pairs_layer_snapshot():
    """Regression pin: the deterministic tie-breaks send the 14-member
    pairs/triples layer to six singletons plus one large."""
    layer = canonical_decomposition(seven56())[2]
    out, trace = reduce_antichain(layer)
    expected = {Member(mask_of_atoms((a,)), False) for a in (1, 2, 3, 4, 5, 7)}
    expected.add(Member(mask_of_atoms((6,)), True))
    assert set(out.members) == expected
    assert out.size == 7
    assert len(trace.steps) == 30
    assert trace.replay(layer) == out


def test_reduce_trace_replay_random():
    rng = random.Random(8301)
    for _ in range(100):
        a = random_saturated_antichain(rng, max_atoms=5)
        out, trace = reduce_antichain(a)
        assert trace.replay(a) == out
        described = trace.describe()
        if trace.steps:
            assert len(described.splitlines()) == len(trace.steps)


def test_reduce_postconditions_random():
    rng = random.Random(8302)
    for _ in range(150):
        a = random_saturated_antichain(rng)
        out, _ = reduce_antichain(a)
        assert out.size <= a.size
        assert is_antichain(out)
        ok, _ = is_saturated_antichain(out)
        assert ok
        assert singleton_smalls(out)
        if singleton_smalls(a):
            assert out == a


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reduce_postconditions_property(rng):
    """The five postconditions: no growth, still a saturated antichain,
    singleton smalls, reduced input left alone, and a trace that replays."""
    a = random_saturated_antichain(rng)
    out, trace = reduce_antichain(a)
    assert out.size <= a.size
    assert is_antichain(out)
    assert is_saturated_antichain(out)[0]
    assert singleton_smalls(out)
    assert reduce_antichain(out) == (out, ReductionTrace(()))
    if singleton_smalls(a):
        assert out == a
    assert trace.replay(a) == out


def test_reduce_is_deterministic():
    rng = random.Random(8303)
    for _ in range(50):
        a = random_saturated_antichain(rng)
        out1, trace1 = reduce_antichain(a)
        out2, trace2 = reduce_antichain(a)
        assert out1 == out2
        assert trace1 == trace2


def test_reduce_traces_and_outputs_are_pinned():
    """Regression pin: one digest over the trace and the output of 1,000
    seeded antichains on up to 7 atoms, which between them take every
    action of the rewriting."""
    rng = random.Random(0)
    digest = hashlib.sha256()
    actions = set()
    for _ in range(1000):
        a = random_saturated_antichain(rng, max_atoms=7)
        out, trace = reduce_antichain(a)
        digest.update(f"{trace.describe()}\n{serialize_family(out)}".encode())
        actions.update(step.action for step in trace.steps)
    assert actions == {"choose", "replace", "strip", "merge", "drop_small_superset",
                       "drop_large_subset", "reassign"}
    assert digest.hexdigest() == "4217e3cff24e2d42a14c6cd2ef9b50e240edf90732881a471cbf090470a1bd65"


def test_reduce_of_a_large_layer_is_pinned():
    """Regression pin at scale: the trace and output of the largest layer of
    bootstrapped(15), 2,452 members reduced over hundreds of merges and drops."""
    layer = max(canonical_decomposition(bootstrapped(15)[0]), key=lambda layer: layer.size)
    out, trace = reduce_antichain(layer)
    assert (layer.size, out.size, len(trace.steps)) == (2452, 14, 7406)
    digest = hashlib.sha256(f"{trace.describe()}\n{serialize_family(out)}".encode())
    assert digest.hexdigest() == "304b72df0ebc57bb259d65c413d6a4093d4a47b8911d2ea0b5cd819bf052b131"


def test_reduce_rejects_bad_input():
    with pytest.raises(ValueError):
        reduce_antichain(Family(2, (Member(0b01, False), Member(0b11, False))))
    with pytest.raises(ValueError):
        reduce_antichain(Family(2, (Member(0b11, False),)))


# A defect in the rewriting is a RuntimeError, never an input rejection: each
# test below breaks the containment scan the reduction relies on.

def test_reduce_that_leaves_a_containment_is_a_defect(monkeypatch):
    import spernersat.constructions as constructions_mod

    monkeypatch.setattr(constructions_mod, "first_contained_pair", lambda keys, start=0: None)
    # the result holds comparable members: not a saturated 1-Sperner system
    with pytest.raises(RuntimeError, match="reduction lost saturation; this is a defect"):
        reduce_antichain(canonical_decomposition(seven56())[2])


def test_cli_reduce_never_rejects_the_input_for_a_defect(tmp_path, capsys, monkeypatch):
    import spernersat.constructions as constructions_mod
    from spernersat import cli

    src = tmp_path / "layer.txt"
    src.write_text(serialize_family(canonical_decomposition(seven56())[2]))
    monkeypatch.setattr(constructions_mod, "first_contained_pair", lambda keys, start=0: None)
    with pytest.raises(RuntimeError, match="reduction lost saturation; this is a defect"):
        cli.main(["reduce", "--in", str(src)])
    assert "input rejected" not in capsys.readouterr().err


def test_reduce_that_never_settles_hits_its_iteration_bound(monkeypatch):
    import spernersat.constructions as constructions_mod

    layer = canonical_decomposition(seven56())[2]
    # the first small, inside the last large, redirects the rewrite to it, round after round
    monkeypatch.setattr(constructions_mod, "first_contained_pair",
                        lambda keys, start=0: (0, len(keys) - 1))
    with pytest.raises(RuntimeError, match="reduction exceeded its iteration bound; this is a defect"):
        reduce_antichain(layer)
