"""Numeric engine: hand-rolled erf/erfc against independent oracles, the
per-layer and summed lower bounds, the closed-form erf bound, the threshold
scan, and the assembled per-k reports."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spernersat import bounds as bounds_mod
from spernersat import (
    EPS_MNS,
    EPS_NEW,
    CapacityError,
    bound_table,
    bracket_factor,
    erf_fn,
    erfc_fn,
    erf_lower_bound_log2,
    find_threshold,
    layer_lower_bound,
    sum_lower_bound,
    upper_bound_report,
)

from helpers import at_each_int_str_limit

# Reference values computed once with 40-digit arbitrary-precision
# arithmetic and frozen; the implementation must match to 1e-12 absolute.
ERF_TABLE = [
    (0.25, 0.27632639016823693299, 0.72367360983176306701),
    (0.5, 0.52049987781304653768, 0.47950012218695346232),
    (1.0, 0.84270079294971486934, 0.15729920705028513066),
    (1.5, 0.96610514647531072707, 0.033894853524689272933),
    (2.0, 0.99532226501895273416, 0.0046777349810472658379),
    (2.5, 0.99959304798255504106, 0.00040695201744495893956),
    (2.9, 0.99995890212190054116, 0.000041097878099458835684),
    (3.0, 0.99997790950300141456, 0.000022090496998585441373),
    (3.1, 0.9999883513426328004, 0.000011648657367199596034),
    (3.5, 0.99999925690162765859, 7.4309837234141274552e-7),
    (4.0, 0.99999998458274209972, 1.5417257900280018852e-8),
    (5.0, 0.99999999999846254021, 1.5374597944280348502e-12),
    (6.0, 0.99999999999999997848, 2.1519736712498913117e-17),
    (8.0, 1.0, 1.122429717298292708e-29),
]


# ------------------------------------------------------------ erf / erfc

def test_erf_frozen_table():
    for x, erf_ref, erfc_ref in ERF_TABLE:
        assert erf_fn(x) == pytest.approx(erf_ref, abs=1e-12), x
        assert erfc_fn(x) == pytest.approx(erfc_ref, abs=1e-12), x


def test_erfc_relative_accuracy_in_the_tail():
    """Absolute error 1e-12 is vacuous at x >= 6; the continued fraction
    actually holds relative error there."""
    for x, _, erfc_ref in ERF_TABLE:
        if x > 3.0:
            assert erfc_fn(x) == pytest.approx(erfc_ref, rel=1e-10), x


def test_erf_odd_symmetry_and_complement():
    for x in [0.0, 0.3, 1.7, 2.9, 3.0, 3.2, 5.5]:
        assert erf_fn(-x) == pytest.approx(-erf_fn(x), abs=1e-15)
        assert erfc_fn(-x) == pytest.approx(2.0 - erfc_fn(x), abs=1e-12)
        assert erf_fn(x) + erfc_fn(x) == pytest.approx(1.0, abs=1e-12)


def test_erf_matches_stdlib():
    x = -6.0
    while x <= 6.0:
        assert erf_fn(x) == pytest.approx(math.erf(x), abs=1e-12), x
        assert erfc_fn(x) == pytest.approx(math.erfc(x), abs=1e-12), x
        x += 0.0625


def test_erf_matches_mpmath_when_available():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    x = 0.0
    worst = 0.0
    while x <= 8.0:
        worst = max(worst, abs(erf_fn(x) - float(mpmath.erf(x))))
        worst = max(worst, abs(erfc_fn(x) - float(mpmath.erfc(x))))
        x += 0.03125
    assert worst < 1e-12


def test_erf_series_lentz_crossover_is_seamless():
    eps = 1e-9
    assert erf_fn(3.0 + eps) - erf_fn(3.0 - eps) == pytest.approx(0.0, abs=1e-11)
    assert erfc_fn(3.0 + eps) - erfc_fn(3.0 - eps) == pytest.approx(0.0, abs=1e-11)


def test_erf_and_erfc_hold_on_all_of_r():
    """At +-inf, at NaN and far out, where exp(-x^2) is 0 or NaN, the
    continued fraction is skipped.  Run there, it could miss its stopping
    test and raise after 10,000 steps: at inf, NaN and, of the finite x
    tried, first at 379612932.76..."""
    inf = math.inf
    assert (erf_fn(inf), erf_fn(-inf)) == (1.0, -1.0)
    assert (erfc_fn(inf), erfc_fn(-inf)) == (0.0, 2.0)
    for x in (379612932.76016015, 1.7e308):
        assert (erf_fn(x), erf_fn(-x), erfc_fn(x), erfc_fn(-x)) == (1.0, -1.0, 0.0, 2.0), x
    assert math.isnan(erf_fn(math.nan)) and math.isnan(erfc_fn(math.nan))
    for x in np.geomspace(8.0, 1e308, 2000).tolist():
        for y in (x, -x):
            assert erf_fn(y) == pytest.approx(math.erf(y), abs=1e-12), y
            assert erfc_fn(y) == pytest.approx(math.erfc(y), abs=1e-12), y


# -------------------------------------------------------- layer and sum

def test_layer_lower_bound_fixed_values():
    assert layer_lower_bound(2, 7) == pytest.approx(2.0 ** (8.0 / 3.0), rel=1e-15)
    assert layer_lower_bound(3, 7) == pytest.approx(8.0, rel=1e-15)
    assert layer_lower_bound(4, 11) == pytest.approx(2.0 ** 4.8, rel=1e-15)
    assert layer_lower_bound(5, 11) == pytest.approx(2.0 ** 5.0, rel=1e-15)


def test_layer_lower_bound_guards():
    with pytest.raises(ValueError):
        layer_lower_bound(2, 6)
    with pytest.raises(ValueError):
        layer_lower_bound(1, 7)
    with pytest.raises(ValueError):
        layer_lower_bound(4, 7)


def test_sum_lower_bound_frozen_values():
    assert sum_lower_bound(7) == pytest.approx(34.699208415745595, abs=1e-9)
    assert sum_lower_bound(8) == pytest.approx(52.025981710340204, abs=1e-9)
    assert sum_lower_bound(20) == pytest.approx(4781.247615176261, rel=1e-12)
    with pytest.raises(ValueError):
        sum_lower_bound(6)


def test_sum_lower_bound_dominates_its_pieces():
    for k in range(7, 40):
        total = 2.0 + 2.0 * (k - 1)
        for i in range(2, (k - 1) // 2 + 1):
            total += layer_lower_bound(i, k) * (1 if 2 * i == k - 1 else 2)
        assert sum_lower_bound(k) == pytest.approx(total, rel=1e-12)


def _root_of_two_below(k: int) -> int:
    """The c with c^(k-1) <= 2^(48(k-1)+1) < (c+1)^(k-1): c / 2^48 is
    2^(1/(k-1)) cut down to 48 bits, from a float guess corrected exactly."""
    top = 1 << (48 * (k - 1) + 1)
    c = int(2.0 ** (48 + 1 / (k - 1)))
    while c ** (k - 1) > top:
        c -= 1
    while (c + 1) ** (k - 1) <= top:
        c += 1
    return c


def test_layer_sum_lower_bound_clears_the_claim_exactly():
    """For 7 <= k <= 500 the layer sum is at least sqrt(k) * 2^(k/2), in
    integers: the term 2^(2i(k-i-1)/(k-1)) is at least 2^a * (c / 2^48)^r
    for (a, r) = divmod(2i(k-i-1), k-1), and every value is scaled by
    2^(48(k-2)).  This checks the sum's arithmetic, not the per-layer lemma."""
    for k in range(7, 501):
        c = _root_of_two_below(k)
        powers = [1]
        for _ in range(k - 2):
            powers.append(powers[-1] * c)
        total = 2 * k << 48 * (k - 2)  # the end layers: 1 and k - 1 each side
        for i in range(2, (k - 1) // 2 + 1):
            a, r = divmod(2 * i * (k - i - 1), k - 1)
            weight = 1 if 2 * i == k - 1 else 2
            total += weight * powers[r] << a + 48 * (k - 2 - r)
        assert total * total >= k << k + 96 * (k - 2), k
        assert upper_bound_report(k).sum_lower_log2 >= k / 2 + math.log2(k) / 2, k


def _scalar_layers_and_sum_log2(k):
    """The per-term evaluation the arrays in bounds.py replace, summed by an
    explicit left-to-right loop so the reference does not depend on sum()."""
    layers = {i: 2.0 * i * (k - i - 1) / (k - 1) for i in range(2, (k - 1) // 2 + 1)}
    terms = [1.0, 1.0 + math.log2(k - 1.0)] + [1.0 + t for t in layers.values()]
    if k % 2 == 1:
        terms[-1] = layers[(k - 1) // 2]
    peak = max(terms)
    total = 0.0
    for t in terms:
        total += 2.0 ** (t - peak)
    return layers, peak + math.log2(total)


def test_array_evaluation_is_bit_identical_to_the_scalar_loop():
    # 7..2100 crosses the switch of sum_lower to inf at k = 2029
    for k in range(7, 2101):
        layers, sum_log2 = _scalar_layers_and_sum_log2(k)
        report = upper_bound_report(k)
        assert list(report.layer_bounds_log2.items()) == list(layers.items()), k
        assert report.sum_lower_log2 == sum_log2, k
        assert sum_lower_bound(k) == (2.0 ** sum_log2 if sum_log2 < 1020 else math.inf), k
    # past k = 20,000, where numpy may take its SIMD pow for the terms
    for k in (20_001, 50_000, 99_999, 100_000, 250_001, 500_000, 1_000_000, 1_000_001):
        _, sum_log2 = _scalar_layers_and_sum_log2(k)
        assert upper_bound_report(k).sum_lower_log2 == sum_log2, k
        assert sum_lower_bound(k) == (2.0 ** sum_log2 if sum_log2 < 1020 else math.inf), k


# ------------------------------------------------------ closed-form bound

def test_bracket_factor_frozen_values():
    assert bracket_factor(496) == pytest.approx(0.9999525926429138, abs=1e-12)
    assert bracket_factor(497) == pytest.approx(1.0000184905969367, abs=1e-12)
    assert bracket_factor(10 ** 6) == pytest.approx(1.063052274288716, rel=1e-9)
    assert bracket_factor(496) < 1.0 < bracket_factor(497)
    with pytest.raises(ValueError, match="k must be >= 7"):
        bracket_factor(6)


def test_bracket_factor_increases():
    samples = [7, 20, 100, 496, 497, 1000, 5000, 10 ** 5, 10 ** 6]
    values = [bracket_factor(k) for k in samples]
    assert values == sorted(values)
    # limit sqrt(pi / (4 ln 2)) is never exceeded
    assert values[-1] < math.sqrt(math.pi / (4.0 * math.log(2.0)))


def test_erf_lower_bound_log2_frozen():
    assert erf_lower_bound_log2(7) == pytest.approx(3.2507642849041414, abs=1e-9)
    assert erf_lower_bound_log2(497) == pytest.approx(252.97857769682702, abs=1e-9)
    with pytest.raises(ValueError):
        erf_lower_bound_log2(6)


def test_erf_bound_equals_baseline_plus_bracket_margin():
    for k in (7, 50, 497, 2000):
        margin = erf_lower_bound_log2(k) - (k / 2.0 + 0.5 * math.log2(k))
        assert margin == pytest.approx(math.log2(bracket_factor(k)), abs=1e-12)


# ------------------------------------------------------------- threshold

def test_find_threshold_at_1000():
    scan = find_threshold(1000)
    assert scan.threshold == 497
    assert scan.margins[496] == pytest.approx(-6.839598020746962e-05, abs=1e-12)
    assert scan.margins[497] == pytest.approx(2.6676045877138677e-05, abs=1e-12)
    assert scan.margins[496] < 0.0 < scan.margins[497]
    d = scan.to_json_dict()
    assert d["schema_version"] == 1 and d["threshold"] == 497


def test_threshold_is_stable_for_larger_scans():
    scan = find_threshold(5000)
    assert scan.threshold == 497
    tail = [scan.margins[k] for k in range(497, 5001)]
    assert all(b > a for a, b in zip(tail, tail[1:]))


def test_find_threshold_guard():
    with pytest.raises(ValueError):
        find_threshold(6)


# ------------------------------------------------------------ constants

def test_epsilon_constants():
    assert EPS_NEW == 1.0 - math.log2(28.0) / 5.0
    assert EPS_MNS == 1.0 - math.log2(15.0) / 4.0
    assert EPS_NEW == pytest.approx(0.038529, abs=1e-6)
    assert EPS_MNS == pytest.approx(0.023277, abs=1e-6)


# -------------------------------------------------------------- reports

def test_report_below_seven_has_no_lower_side():
    r = upper_bound_report(4)
    assert (r.j, r.s) == (0, 2)
    assert r.upper_log2 == pytest.approx(3.0)
    for field in (r.layer_bounds_log2, r.sum_lower, r.sum_lower_log2,
                  r.erf_lower_log2, r.margin_166, r.margin_497):
        assert field is None
    with pytest.raises(ValueError):
        upper_bound_report(1)


def test_report_at_seven():
    r = upper_bound_report(7)
    assert (r.j, r.s) == (1, 0)
    assert r.upper_log2 == pytest.approx(1.0 + math.log2(28.0), rel=1e-15)
    assert r.layer_bounds_log2 == {2: pytest.approx(8.0 / 3.0), 3: pytest.approx(3.0)}
    assert r.sum_lower == pytest.approx(34.699208415745595, abs=1e-9)
    assert r.sum_lower_log2 == pytest.approx(math.log2(r.sum_lower), abs=1e-12)
    assert r.erf_lower_log2 == pytest.approx(3.2507642849041414, abs=1e-9)
    assert r.margin_166 > 0.0       # beats the 1.66-constant line already
    assert r.margin_497 < 0.0       # but not the constant-free line below 497
    assert r.margin_upper >= 0.0


def test_report_upper_margin_nonnegative_through_sixty():
    for k in range(2, 61):
        r = upper_bound_report(k)
        assert r.margin_upper >= 0.0, k
        assert r.upper_log2 <= (1.0 - EPS_NEW) * k + 1e-12, k


def test_layer_exponents_read_as_the_dict_of_their_items():
    k = 12
    layers = upper_bound_report(k).layer_bounds_log2
    expected = {i: 2.0 * i * (k - i - 1) / (k - 1) for i in range(2, (k - 1) // 2 + 1)}
    assert layers == expected and expected == layers
    assert not layers != expected
    assert layers != {**expected, 5: 0.0} and layers != {i: expected[i] for i in range(2, 5)}
    assert layers != list(expected.items())
    assert list(layers.items()) == list(expected.items())
    assert all(type(i) is int and type(t) is float for i, t in layers.items())
    assert list(layers) == [2, 3, 4, 5] and list(layers.values()) == list(expected.values())
    for i in (1, (k - 1) // 2 + 1):
        with pytest.raises(KeyError):
            layers[i]
        assert i not in layers
    assert len(layers) == 4 and 2 in layers and 5 in layers and layers[5] == expected[5]
    assert dict(layers) == expected and layers.get(6) is None
    assert repr(layers) == f"LayerExponents({expected!r})"
    report = upper_bound_report(k)
    assert report == upper_bound_report(k) and upper_bound_report(4) == upper_bound_report(4)
    assert report == replace(report, layer_bounds_log2=expected)
    assert report != replace(report, layer_bounds_log2={**expected, 2: 0.0})
    # a threshold scan's margins, keyed from k = 7: items() reads the array a
    # block at a time, and past the first block every key meets its own value
    margins = bounds_mod.LayerExponents(np.arange(200_003, dtype=np.float64), 7)
    assert list(margins.items()) == [(7 + i, float(i)) for i in range(200_003)]
    assert list(margins) == list(range(7, 200_010))
    assert margins[7] == 0.0 and margins[200_009] == 200_002.0
    assert 6 not in margins and 200_010 not in margins


def test_a_report_holds_its_exponents_as_one_array():
    # with its 998 terms as a dict, a report of k = 2000 held about 80 KB
    tracemalloc.start()
    try:
        report = upper_bound_report(2000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.layer_bounds_log2) == 998
    assert held < 16 * 1024, held


def test_a_threshold_scan_holds_its_margins_as_one_array():
    # with its 49,994 margins as a dict, a scan up to 50,000 held about 5.5 MB
    tracemalloc.start()
    try:
        scan = find_threshold(50_000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan.margins) == 49_994 and scan.threshold == 497
    assert held < 49_994 * 8 + 16 * 1024, held


def test_report_switches_to_log_space_when_sum_overflows():
    r = upper_bound_report(2100)
    assert r.sum_lower == math.inf
    assert r.sum_lower_log2 == pytest.approx(1055.6078744768547, rel=1e-12)
    assert r.sum_lower_log2 < 2100  # still far below the trivial upper bound


def test_sum_lower_bound_is_inf_where_the_report_is():
    assert sum_lower_bound(2100) == math.inf
    for k in range(7, 2101):
        assert sum_lower_bound(k) == upper_bound_report(k).sum_lower, k


def test_report_json_shape():
    d = upper_bound_report(12).to_json_dict()
    assert d["schema_version"] == 1
    assert d["k"] == 12
    assert set(d["margins"]) == {"upper_vs_eps", "erf_vs_166", "erf_vs_497"}
    assert d["layer_bounds_log2"]["2"] == pytest.approx(2 * 2 * 9 / 11)


def test_bound_table_range():
    table = bound_table(2, 12)
    assert [r.k for r in table] == list(range(2, 13))
    with pytest.raises(ValueError):
        bound_table(5, 4)
    with pytest.raises(ValueError):
        bound_table(1, 4)


def test_layer_term_limit_is_checked_before_any_work(monkeypatch):
    with pytest.raises(CapacityError, match=r"degree 4000002 needs 2000001 layer terms \(limit 2000000\)"):
        upper_bound_report(4_000_002)
    with pytest.raises(CapacityError, match="table 7..20000 needs 99999991 layer terms"):
        bound_table(7, 20_000)
    with pytest.raises(CapacityError, match="threshold scan up to 2000007 needs 2000001 layer terms"):
        find_threshold(2_000_007)
    # the counts of the largest everyday requests, read from the guard alone
    monkeypatch.setattr(bounds_mod, "MAX_LAYER_TERMS", 0)
    with pytest.raises(CapacityError, match="table 7..2000 needs 999991 layer terms"):
        bound_table(7, 2000)
    with pytest.raises(CapacityError, match="threshold scan up to 2000 needs 1994 layer terms"):
        find_threshold(2000)
    with pytest.raises(CapacityError, match="table 2..3 needs 2 layer terms"):
        bound_table(2, 3)


def test_a_degree_too_long_to_write_in_decimal_is_a_capacity_error():
    """Python refuses to write an int of more than 4,300 digits in decimal;
    the refusal names such a k by its bit length, and so with the limit off
    too.  The CLI turns these k away earlier, as usage errors."""
    k = 10 ** 5000
    big = f"<{k.bit_length()}-bit number>"

    def check():
        for call, message in (
                (upper_bound_report, f"degree {big} needs <{(k // 2).bit_length()}-bit number>"),
                (find_threshold, f"threshold scan up to {big} needs <{(k - 6).bit_length()}-bit number>"),
                (lambda k_hi: bound_table(7, k_hi),
                 f"table 7..{big} needs <{((k // 2) * ((k + 1) // 2) - 9).bit_length()}-bit number>")):
            with pytest.raises(CapacityError) as refused:
                call(k)
            assert str(refused.value) == f"{message} layer terms (limit 2000000)"

    at_each_int_str_limit(check)


def test_a_degree_past_256_bits_is_written_by_its_bit_length():
    """A 100-digit k is far inside Python's decimal limit, and is still
    written by its bit length, as every number past 256 bits is."""
    k = 10 ** 99
    for call, message in (
            (upper_bound_report, "degree <329-bit number> needs <328-bit number>"),
            (find_threshold, "threshold scan up to <329-bit number> needs <329-bit number>"),
            (lambda k_hi: bound_table(7, k_hi), "table 7..<329-bit number> needs <656-bit number>")):
        with pytest.raises(CapacityError) as refused:
            call(k)
        assert str(refused.value) == f"{message} layer terms (limit 2000000)"
