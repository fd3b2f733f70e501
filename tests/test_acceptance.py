"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria with time limits measure wall-clock time and assert the budget.
"""

import contextlib
import math
import random
import time

from spernersat import (
    EPS_MNS,
    EPS_NEW,
    FOUND,
    NONE_WITHIN_BOUNDS,
    Family,
    SearchBounds,
    brute_force_saturated,
    canonical_decomposition,
    canonical_form,
    compose,
    erf_lower_bound_log2,
    expected_hits,
    find_threshold,
    instantiate,
    is_antichain,
    is_saturated_antichain,
    layer_lower_bound,
    reduce_antichain,
    search_min,
    seven56,
    sum_lower_bound,
    three_sperner,
    trivial_construction,
    verify_saturated_k_sperner,
)
from helpers import (
    builtin_families,
    composed_families,
    random_family,
    random_saturated_antichain,
    singleton_smalls,
    split_sizes,
)


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {summary}")
        raise
    print(f"criterion {number}: PASS — {summary}")


def test_criterion_1_seven56_verifies():
    with criterion(1, "seven56 is a saturated 7-Sperner system of size 56 (28+28) in < 1 s"):
        start = time.perf_counter()
        f = seven56()
        report = verify_saturated_k_sperner(f, 7)
        elapsed = time.perf_counter() - start
        assert report.verdict
        assert f.size == 56
        assert split_sizes(f) == (28, 28)
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_2_trivial_construction_verifies():
    with criterion(2, "trivial_construction(k) verifies at size 2^(k-1) for k = 2..10, each < 1 s"):
        for k in range(2, 11):
            start = time.perf_counter()
            f = trivial_construction(k)
            report = verify_saturated_k_sperner(f, k)
            elapsed = time.perf_counter() - start
            assert f.size == 2 ** (k - 1), k
            assert report.verdict, k
            assert elapsed < 1.0, f"k={k} took {elapsed:.3f} s"


def test_criterion_3_compose_identities():
    with criterion(3, "compose size identity on all built-in pairs; 7*3 -> (8, 112); 7*7 -> (12, 1568)"):
        builtins = builtin_families()
        for name1, f1, _ in builtins:
            for name2, f2, _ in builtins:
                g = compose(f1, f2)
                (s1, l1), (s2, l2) = split_sizes(f1), split_sizes(f2)
                expected = s1 * s2 + l1 * l2
                assert g.size == expected, f"{name1} * {name2}"
        g = compose(seven56(), three_sperner())
        assert g.size == 112 and verify_saturated_k_sperner(g, 8).verdict
        g = compose(seven56(), seven56())
        assert g.size == 1568 and verify_saturated_k_sperner(g, 12).verdict


def test_criterion_4_oracle_equivalence():
    with criterion(4, "layer verifier == brute-force oracle on built-ins (h=2..4) "
                      "and 1000 random families (h=2,3), zero disagreements, < 5 min"):
        start = time.perf_counter()
        comparisons = 0
        for name, f, k in builtin_families() + composed_families():
            for h in (2, 3, 4):
                if f.m + h > 24:
                    continue
                concrete = instantiate(f, h)
                for probe in (k - 1, k, k + 1):
                    if probe < 1:
                        continue
                    verdict = verify_saturated_k_sperner(f, probe).verdict
                    assert brute_force_saturated(concrete, probe) == verdict, (name, h, probe)
                    comparisons += 1
        rng = random.Random(424242)
        for _ in range(1000):
            f = random_family(rng, max_atoms=5, max_members=12)
            chain = len(canonical_decomposition(f))
            for probe in sorted({max(1, chain - 1), chain, chain + 1} - {0}):
                verdict = verify_saturated_k_sperner(f, probe).verdict
                for h in (2, 3):
                    assert brute_force_saturated(instantiate(f, h), probe) == verdict
                    comparisons += 1
        elapsed = time.perf_counter() - start
        assert comparisons >= 1000
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_criterion_5_single_member_removal():
    with criterion(5, "all 56 single-member deletions from seven56 fail verification (56/56)"):
        f = seven56()
        failures = 0
        for key in f.keys:
            smaller = Family.from_keys(f.m, [other for other in f.keys if other != key])
            if not verify_saturated_k_sperner(smaller, 7).verdict:
                failures += 1
        assert failures == 56, f"only {failures}/56 deletions break saturation"


def test_criterion_6_bound_values():
    with criterion(6, "eps constants at 1e-6; sum bound 34.70 +- 0.01; threshold 497 "
                      "(fails at 496); erf bound clears the 1.66-line on k = 7..2000"):
        assert abs(EPS_NEW - 0.038529) < 1e-6
        assert abs(EPS_MNS - 0.023277) < 1e-6
        assert abs(sum_lower_bound(7) - 34.70) <= 0.01
        scan = find_threshold(1000)
        assert scan.threshold == 497
        assert scan.margins[496] < 0.0
        for k in range(7, 2001):
            claimed = k / 2.0 + 0.5 * math.log2(k) - 1.66
            assert erf_lower_bound_log2(k) >= claimed, k


def test_criterion_7_probabilistic_layer_bounds():
    with criterion(7, "expected_hits >= 1 on every built-in layer over the 19-point q grid; "
                      "layer bounds at k=7 sit below the realized layer sizes"):
        grid = [i / 20 for i in range(1, 20)]
        for name, f, _k in builtin_families() + composed_families():
            for layer in canonical_decomposition(f):
                for q in grid:
                    hits = expected_hits(layer, q)
                    assert hits >= 1.0 - 1e-12, (name, q, hits)
        layer_sizes = [layer.size for layer in canonical_decomposition(seven56())]
        for i in (2, 3):
            assert layer_lower_bound(i, 7) < layer_sizes[i], i


def test_criterion_8_reduction_postconditions():
    with criterion(8, "all five reduction postconditions on 500 random saturated "
                      "antichains (m <= 6), zero failures"):
        rng = random.Random(171717)
        for trial in range(500):
            a = random_saturated_antichain(rng, max_atoms=6)
            out, trace = reduce_antichain(a)
            assert out.size <= a.size, trial
            assert is_antichain(out), trial
            ok, witness = is_saturated_antichain(out)
            assert ok, (trial, witness)
            assert singleton_smalls(out), trial
            if singleton_smalls(a):
                assert out == a, trial
            assert trace.replay(a) == out, trial


def test_criterion_9_search_scenarios():
    with criterion(9, "search: k=2 -> size 2; k=3 -> none at 3, size 4 (isomorphic to the "
                      "power set) at 4; k=4 -> none within (m<=3, size<=7); all "
                      "exhaustive, < 10 min"):
        start = time.perf_counter()

        result = search_min(SearchBounds(k=2, max_atoms=2, max_size=4))
        assert result.outcome == FOUND and result.family.size == 2

        result = search_min(SearchBounds(k=3, max_atoms=2, max_size=3))
        assert result.outcome == NONE_WITHIN_BOUNDS
        assert result.certificate is not None

        result = search_min(SearchBounds(k=3, max_atoms=2, max_size=4))
        assert result.outcome == FOUND and result.family.size == 4
        assert canonical_form(result.family) == canonical_form(three_sperner())

        result = search_min(SearchBounds(k=4, max_atoms=3, max_size=7))
        assert result.outcome == NONE_WITHIN_BOUNDS
        assert result.certificate is not None
        assert (result.certificate.max_atoms, result.certificate.max_size) == (3, 7)

        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f} s"
