"""Numeric bounds on the minimum size of a saturated k-Sperner system.

Lower bounds: every layer i of a k-layer system has at least
2^(2i(k-i-1)/(k-1)) members (a weighted covering argument), summing the
layers gives sum_lower_bound, and approximating that sum by a Gaussian
integral gives the closed form

    2^(k/2) * sqrt(k) * sqrt(pi(k-1)/(4k ln 2))
            * (erf(sqrt((k-3)^2 ln2 / (2(k-1)))) - erf(sqrt(2 ln2 / (k-1))))

handled here entirely in log2 space.  The bracketed factor tends to
sqrt(pi/(4 ln 2)) ~ 1.0645 > 1, so the bound eventually beats
sqrt(k) * 2^(k/2); find_threshold locates the first k where it stays
ahead.  Upper bounds come from the composition law that
constructions.CompositionPlan holds: size 2^(s+1) * 28^j at degree
k = 5j+2+s, i.e. exponent (1 - eps) * k with eps = 1 - log2(28)/5 ~ 0.0385,
improving on eps = 1 - log2(15)/4.

The layer exponents and their sum are evaluated as numpy arrays, built
once per k: the exponents (2.0 * i) * (k - i - 1) / (k - 1), the log2
terms 1 + t (t alone at odd k's centre), their powers of two below the
peak term, and a left-to-right np.cumsum.  These are the operations of
a per-term Python loop (the reference in tests/test_bounds.py), in the
same order and summed sequentially, so every printed byte is the loop's;
ndarray.sum() adds pairwise and would not be.  The result no longer depends on the
semantics of Python's sum(), which is compensated from 3.12 on and
changes sum_lower_log2 at 6 values of k in 7..2100 (k = 39 among them).
numpy's vectorised pow can differ from the C library's pow in the last
bit of a single term (on an AVX-512 x86-64 host, 57,326 of the 1.1
million terms of 7..2100); peak + log2(sum) absorbs that at every k in
7..20,000 and at 4,000,001.  A BoundReport keeps the exponent array
itself, read as a mapping from layer i = 2 by LayerExponents; a dict of the
terms is made only where one is read, as the JSON encoder does, so the
text table never builds one.  A ThresholdScan keeps its margins as one
array too, read by the same mapping from k = 7.

erf is computed locally to keep the whole chain auditable: a Maclaurin
series up to |x| = 3 and a continued fraction for the complement beyond,
both well inside the 1e-12 absolute-error budget.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .constructions import CompositionPlan
from .family import CapacityError, _written
from .saturation import _JsonDocument

LN2 = math.log(2.0)
SQRT_PI = math.sqrt(math.pi)

EPS_NEW = 1.0 - math.log2(28.0) / 5.0
EPS_MNS = 1.0 - math.log2(15.0) / 4.0

# Most layer terms (k // 2 per report, one margin per scanned k) one request
# may hold.  A term costs up to ~350 bytes of peak RSS through `bounds --json`
# (~40 in text, where it stays in float64 arrays; ~10 per threshold margin,
# text or JSON, since a scan keeps its margins in one float64 array), so the
# largest accepted request stays under about 1 GB.
MAX_LAYER_TERMS = 2_000_000


def _check_terms(terms: int, what: str) -> None:
    if terms > MAX_LAYER_TERMS:
        raise CapacityError(f"{what} needs {_written(terms)} layer terms (limit {MAX_LAYER_TERMS})")


def _erf_series(x: float) -> float:
    # erf(x) = (2/sqrt(pi)) * sum (-1)^n x^(2n+1) / (n! (2n+1)); |x| <= 3
    term = x
    total = x
    n = 0
    xx = x * x
    while True:
        n += 1
        term *= -xx / n
        contribution = term / (2 * n + 1)
        total += contribution
        if abs(contribution) < 1e-18 * max(1.0, abs(total)):
            break
    return (2.0 / SQRT_PI) * total


def _erfc_continued_fraction(x: float) -> float:
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))));
    # modified Lentz iteration, x > 3.  Every partial numerator a is positive,
    # so c (from x) and the denominator x + a * d (d from 0) stay at least
    # x > 0, and Lentz's guard against a zero c or d is not needed.  Where
    # exp(-x^2) is 0 (x > ~27.3) or NaN, so is erfc, and the loop is skipped.
    if not (scale := math.exp(-x * x)) > 0.0:
        return scale
    f = x
    c = x
    d = 0.0
    n = 0
    while True:
        n += 1
        a = n / 2.0
        d = x + a * d
        c = x + a / c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
        if n > 10_000:
            raise RuntimeError("erfc continued fraction failed to converge; this is a defect")
    return scale / SQRT_PI / f


def erf_fn(x: float) -> float:
    """Error function, absolute error <= 1e-12 on all of R."""
    if x < 0.0:
        return -erf_fn(-x)
    if x <= 3.0:
        return _erf_series(x)
    return 1.0 - _erfc_continued_fraction(x)


def erfc_fn(x: float) -> float:
    """Complementary error function, absolute error <= 1e-12 on all of R."""
    if x < 0.0:
        return 2.0 - erfc_fn(-x)
    if x <= 3.0:
        return 1.0 - _erf_series(x)
    return _erfc_continued_fraction(x)


def layer_lower_bound(i: int, k: int) -> float:
    """Minimum size of layer i in a k-layer system: 2^(2i(k-i-1)/(k-1))."""
    if k < 7:
        raise ValueError("k must be >= 7")
    if not 2 <= i <= (k - 1) // 2:
        raise ValueError(f"layer index must be in [2, {(k - 1) // 2}]")
    return 2.0 ** (2.0 * i * (k - i - 1) / (k - 1))


def _layer_bounds_log2(k: int) -> np.ndarray:
    """log2 of layer_lower_bound(i, k) for each i in [2, (k-1)//2], in order of i."""
    i = np.arange(2, (k - 1) // 2 + 1)
    return (2.0 * i) * (k - i - 1) / (k - 1)


class LayerExponents(Mapping):
    """Read-only mapping from the consecutive ints first, first + 1, ... to
    the floats of an array: i -> log2 of layer_lower_bound(i, k) over the
    array of _layer_bounds_log2(k) from first = 2, and a threshold scan's
    k -> margin from first = 7.  It reads as the dict of these items would,
    and == compares it with any mapping by its items."""

    __slots__ = ("_array", "_first")

    def __init__(self, array: np.ndarray, first: int):
        self._array = array
        self._first = first

    def __getitem__(self, i) -> float:
        if i not in range(self._first, len(self._array) + self._first):
            raise KeyError(i)
        return float(self._array[int(i) - self._first])

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._first, len(self._array) + self._first))

    def __len__(self) -> int:
        return len(self._array)

    def items(self) -> ItemsView:
        return _LayerItems(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _LayerItems(ItemsView):
    # the pairs from one tolist() per block of 2^16 values, not a float per
    # lookup, nor a list of the 2 million margins of a long threshold scan
    def __iter__(self):
        first, array = self._mapping._first, self._mapping._array
        for start in range(0, len(array), 1 << 16):
            block = array[start:start + (1 << 16)].tolist()
            yield from zip(range(first + start, first + start + len(block)), block)


def _sum_lower_log2(k: int, layers: np.ndarray) -> float:
    """log2 of sum_lower_bound(k) from the exponents t of _layer_bounds_log2(k),
    summed in log2 space: 2^(1+t) per layer and its mirror, 2^t at odd k's centre."""
    terms = np.concatenate(([1.0, 1.0 + math.log2(k - 1.0)], 1.0 + layers))
    if k % 2 == 1:
        terms[-1] = layers[-1]
    peak = float(terms.max())
    # cumsum adds left to right; ndarray.sum() adds pairwise, which changes the last bit at some k
    return peak + math.log2(np.cumsum(np.power(2.0, terms - peak))[-1])


def _linear(log2_value: float) -> float:
    # 2^log2_value, or inf from 2^1020 on, near the top of the float range
    return 2.0 ** log2_value if log2_value < 1020 else math.inf


def sum_lower_bound(k: int) -> float:
    """Sum of the per-layer minima: 2 for the end layers, 2(k-1) for the
    layers next to them, the doubled middle terms, and the center layer
    when k is odd.  inf from k = 2029 on, where the sum passes 2^1020."""
    if k < 7:
        raise ValueError("k must be >= 7")
    return _linear(_sum_lower_log2(k, _layer_bounds_log2(k)))


def _erf_bracket_parts(k: int) -> tuple[float, float]:
    """(sqrt factor, erf difference) of the closed-form bound."""
    if k < 7:
        raise ValueError("k must be >= 7")
    a = math.sqrt((k - 3) * (k - 3) * LN2 / (2.0 * (k - 1)))
    b = math.sqrt(2.0 * LN2 / (k - 1))
    diff = (1.0 - erfc_fn(a)) - erf_fn(b)
    root = math.sqrt(math.pi * (k - 1) / (4.0 * k * LN2))
    return root, diff


def bracket_factor(k: int) -> float:
    """sqrt(pi(k-1)/(4k ln2)) * (erf(a_k) - erf(b_k)); the bound beats
    sqrt(k) * 2^(k/2) exactly when this exceeds 1."""
    root, diff = _erf_bracket_parts(k)
    return root * diff


def erf_lower_bound_log2(k: int) -> float:
    """log2 of the closed-form lower bound."""
    root, diff = _erf_bracket_parts(k)
    if diff <= 0.0:
        raise RuntimeError("erf difference must be positive; this is a defect")
    return k / 2.0 + 0.5 * math.log2(k) + math.log2(root) + math.log2(diff)


@dataclass(frozen=True)
class ThresholdScan(_JsonDocument):
    """Smallest k whose whole suffix up to k_max clears sqrt(k) * 2^(k/2)."""

    k_max: int
    threshold: int | None
    margins: LayerExponents  # k -> erf_lower_bound_log2(k) - (k/2 + log2(k)/2), k = 7..k_max


def find_threshold(k_max: int) -> ThresholdScan:
    """Scan k in [7, k_max] for the first k from which the closed-form bound
    stays at or above k/2 + log2(k)/2 through k_max."""
    if k_max < 7:
        raise ValueError("k_max must be >= 7")
    _check_terms(k_max - 6, f"threshold scan up to {_written(k_max)}")
    margins = np.fromiter((erf_lower_bound_log2(k) - (k / 2.0 + 0.5 * math.log2(k))
                           for k in range(7, k_max + 1)), dtype=np.float64, count=k_max - 6)
    # the suffix starts after the last negative margin, at 7 if there is none
    negative = np.flatnonzero(margins < 0.0)
    start = 7 + int(negative[-1]) + 1 if negative.size else 7
    threshold = start if start <= k_max else None
    return ThresholdScan(k_max=k_max, threshold=threshold, margins=LayerExponents(margins, 7))


@dataclass(frozen=True)
class BoundReport(_JsonDocument):
    """Every bound the package knows about one degree k.

    Log-space fields are always finite; sum_lower is inf (null in JSON)
    from k = 2029 on and is accompanied by its log2.  Fields that require
    k >= 7 are None below that.
    """

    k: int
    baseline_lower_log2: float
    j: int
    s: int
    upper_log2: float
    eps_new: float
    eps_mns: float
    margin_upper: float = field(metadata={"margin": "upper_vs_eps"})
    layer_bounds_log2: LayerExponents | None = None  # the exponent array, keyed from i = 2
    sum_lower: float | None = None
    sum_lower_log2: float | None = None
    erf_lower_log2: float | None = None
    claimed_lower_log2_166: float | None = None
    claimed_lower_log2: float | None = None
    margin_166: float | None = field(default=None, metadata={"margin": "erf_vs_166"})
    margin_497: float | None = field(default=None, metadata={"margin": "erf_vs_497"})


def upper_bound_report(k: int) -> BoundReport:
    """Assemble the full report for one k (k >= 2); the lower-bound side is
    populated from k = 7 on."""
    plan = CompositionPlan.of(k)
    _check_terms(k // 2, f"degree {_written(k)}")
    lower = {}
    if k >= 7:
        layers = _layer_bounds_log2(k)
        sum_log2 = _sum_lower_log2(k, layers)
        erf_log2 = erf_lower_bound_log2(k)
        claimed = k / 2.0 + 0.5 * math.log2(k)
        lower = dict(
            layer_bounds_log2=LayerExponents(layers, 2),
            sum_lower=_linear(sum_log2), sum_lower_log2=sum_log2, erf_lower_log2=erf_log2,
            claimed_lower_log2_166=claimed - 1.66, claimed_lower_log2=claimed,
            margin_166=erf_log2 - (claimed - 1.66), margin_497=erf_log2 - claimed,
        )
    return BoundReport(
        k=k, baseline_lower_log2=k / 2.0 - 0.5, j=plan.j, s=plan.s, upper_log2=plan.size_log2,
        eps_new=EPS_NEW, eps_mns=EPS_MNS, margin_upper=(1.0 - EPS_NEW) * k - plan.size_log2, **lower,
    )


def bound_table(k_lo: int, k_hi: int) -> Iterator[BoundReport]:
    """The reports for k_lo..k_hi, made one at a time as they are read; the
    range and the layer-term count are checked at the call."""
    if not 2 <= k_lo <= k_hi:
        raise ValueError("need 2 <= k_lo <= k_hi")
    # sum of k // 2 over k = 0..n is (n // 2) * ((n + 1) // 2)
    terms = (k_hi // 2) * ((k_hi + 1) // 2) - ((k_lo - 1) // 2) * (k_lo // 2)
    _check_terms(terms, f"table {_written(k_lo)}..{_written(k_hi)}")
    return map(upper_bound_report, range(k_lo, k_hi + 1))
