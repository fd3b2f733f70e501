"""Shared test utilities: seeded random generators and the built-in roster.

The saturated-antichain generator is deliberately independent of the
library's own coverage scan: it tracks coverage with its own bit loop, so a
defect in the numpy closures would surface as a generator/checker mismatch.
"""

import inspect
import random
import sys
import types

import pytest

from spernersat import (
    Family,
    Member,
    compose,
    is_antichain,
    is_saturated_antichain,
    seven56,
    three_sperner,
    trivial_construction,
)
from spernersat.family import H_BIT


def split_sizes(f: Family) -> tuple[int, int]:
    """(smalls, larges): the number of f's keys below H_BIT, and above."""
    small = sum(key < H_BIT for key in f.keys)
    return small, f.size - small


def singleton_smalls(f: Family) -> bool:
    """Every member of f without H has at most one atom."""
    return all(key.bit_count() <= 1 for key in f.keys if key < H_BIT)


def random_family(rng: random.Random, max_atoms: int = 5, max_members: int = 12) -> Family:
    """Arbitrary non-empty duplicate-free family; no structure guaranteed."""
    m = rng.randint(0, max_atoms)
    count = rng.randint(1, max_members)
    seen: set[Member] = set()
    while len(seen) < count:
        seen.add(Member(rng.randint(0, (1 << m) - 1), rng.random() < 0.5))
        if len(seen) == 1 << (m + 1):
            break
    return Family(m, tuple(seen))


def _covered(t: int, smalls: set[int], larges: set[int]) -> bool:
    # t is covered when it contains some small mask or sits inside some large
    return any(s & ~t == 0 for s in smalls) or any(t & ~l == 0 for l in larges)


def random_saturated_antichain(rng: random.Random, max_atoms: int = 6) -> Family:
    """Randomized completion: seed a few pairwise-incomparable members, then
    repeatedly pick an uncovered atom set and adopt it as a small or a large,
    dropping the members it dominates.  Each adoption keeps the family an
    antichain and never uncovers a covered set, so the loop terminates with
    a saturated antichain."""
    m = rng.randint(0, max_atoms)
    full = (1 << m) - 1
    smalls: set[int] = set()
    larges: set[int] = set()
    for _ in range(rng.randint(0, 3)):
        mask = rng.randint(0, full)
        as_large = rng.random() < 0.5
        clash = False
        for s in smalls:
            if (s & ~mask == 0) if as_large else (s & ~mask == 0 or mask & ~s == 0):
                clash = True
        for l in larges:
            if (l & ~mask == 0 or mask & ~l == 0) if as_large else (mask & ~l == 0):
                clash = True
        if not clash:
            (larges if as_large else smalls).add(mask)
    while True:
        uncovered = [t for t in range(full + 1) if not _covered(t, smalls, larges)]
        if not uncovered:
            break
        t = rng.choice(uncovered)
        if rng.random() < 0.5:
            smalls = {s for s in smalls if not (t & ~s == 0 and s != t)}
            smalls.add(t)
        else:
            larges = {l for l in larges if not (l & ~t == 0 and l != t)}
            larges.add(t)
    fam = Family(m, tuple([Member(s, False) for s in smalls]
                          + [Member(l, True) for l in larges]))
    assert is_antichain(fam), "generator emitted a comparable pair"
    ok, witness = is_saturated_antichain(fam)
    assert ok, f"generator emitted an unsaturated antichain, witness {witness}"
    return fam


def builtin_families() -> list[tuple[str, Family, int]]:
    """Every built-in construction as (name, family, degree)."""
    out: list[tuple[str, Family, int]] = [
        ("three", three_sperner(), 3),
        ("seven56", seven56(), 7),
    ]
    for k in range(2, 11):
        out.append((f"trivial({k})", trivial_construction(k), k))
    return out


def composed_families() -> list[tuple[str, Family, int]]:
    """The compose results with individually pinned shapes."""
    return [
        ("three*three", compose(three_sperner(), three_sperner()), 4),
        ("seven56*three", compose(seven56(), three_sperner()), 8),
        ("seven56*seven56", compose(seven56(), seven56()), 12),
    ]


def reachable(func) -> set[str]:
    """Qualified names of the spernersat functions func reaches through the
    global names its code (nested code included) looks up."""
    seen: set[str] = set()
    stack = [func]
    while stack:
        f = stack.pop()
        name = f"{f.__module__}.{f.__qualname__}"
        if name in seen:
            continue
        seen.add(name)
        codes = [f.__code__]
        while codes:
            code = codes.pop()
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            for global_name in code.co_names:
                target = f.__globals__.get(global_name)
                if inspect.isfunction(target) and target.__module__.startswith("spernersat"):
                    stack.append(target)
    return seen


def at_each_int_str_limit(check) -> None:
    """Run check() at the interpreter's int-to-str digit limit, then again
    with the limit off, and put the limit back.  Skips the second run where
    the interpreter has no such limit to set."""
    check()
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        check()
    finally:
        sys.set_int_max_str_digits(limit)
