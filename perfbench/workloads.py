"""The benchmark's workloads: their inputs, their operations, and the answer
each operation must give.

Every operation returns the list of problems it found; an empty list means
the answer was right.  Operations reach the program only through module
attributes (`saturation.verify_saturated_k_sperner`, `cli.main`, ...), so a
traced pass sees every call.  Checks that decide whether an answer is right
(antichain, saturation, k-Sperner saturation of a found family) use this
file's own pure-Python code, never the layer being measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spernersat import cli, constructions, saturation, search
from spernersat.family import Family, Member

GOLDEN_PATH = Path(__file__).with_name("golden.json")

LADDER_KS = range(7, 15)          # bootstrapped(15) needs a ~1.3 GB temporary
SMOKE_LADDER_KS = range(7, 11)
BOUNDS_K_MAX = 2000
THRESHOLD = 497
RANDOM_FAMILIES = 400             # with the built-ins and antichains: ~2,900 operations
RANDOM_ANTICHAINS = 500
SMOKE_RANDOM_FAMILIES = 5
SMOKE_RANDOM_ANTICHAINS = 3


@dataclass
class PassStats:
    """What the operations of one pass report besides their problems."""

    counts: Counter = field(default_factory=Counter)
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Op:
    label: str
    run: Callable[[PassStats], list[str]]


def _run_cli(argv: list[str], stats: PassStats) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    data = out.getvalue().encode("utf-8")
    stats.counts["output_bytes"] += len(data)
    return code, data


def _check_digest(key: str, data: bytes, golden: dict, stats: PassStats, problems: list[str]) -> None:
    digest = hashlib.sha256(data).hexdigest()
    stats.digests[key] = digest
    want = golden.get(key)
    if digest != want:
        problems.append(f"{key}: sha256 {digest[:12]} differs from golden {(want or 'missing')[:12]}")


# ---- independent checks -------------------------------------------------

def _properly_inside(a: Member, b: Member) -> bool:
    return a != b and a.atom_mask & ~b.atom_mask == 0 and (b.has_H or not a.has_H)


def _is_antichain(f: Family) -> bool:
    return not any(_properly_inside(a, b) for a in f.members for b in f.members)


def _is_saturated_antichain(f: Family) -> bool:
    smalls = [mem.atom_mask for mem in f.members if not mem.has_H]
    larges = [mem.atom_mask for mem in f.members if mem.has_H]
    return all(any(s & ~t == 0 for s in smalls) or any(t & ~l == 0 for l in larges)
               for t in range(1 << f.m))


def _longest_chain(sets: list[int]) -> int:
    # sets sorted by popcount, duplicate-free: proper subsets come first
    depth: list[int] = []
    for i, s in enumerate(sets):
        depth.append(1 + max((depth[j] for j in range(i) if sets[j] & ~s == 0), default=0))
    return max(depth, default=0)


def _saturated_k_sperner(f: Family, k: int) -> bool:
    """Brute force on the realization |H| = 2: no chain of k+1 members, and
    every absent set would close one."""
    h_mask = 3 << f.m
    sets = sorted({mem.atom_mask | (h_mask if mem.has_H else 0) for mem in f.members},
                  key=lambda t: (t.bit_count(), t))
    if _longest_chain(sets) > k:
        return False
    present = set(sets)
    for t in range(1 << (f.m + 2)):
        if t in present:
            continue
        below = [s for s in sets if s & ~t == 0]
        above = [s for s in sets if t & ~s == 0]
        if _longest_chain(below) + 1 + _longest_chain(above) < k + 1:
            return False
    return True


def _member_chain_length(f: Family) -> int:
    # Family members are in canonical order, a topological order of containment
    mems = f.members
    depth: list[int] = []
    for i, b in enumerate(mems):
        depth.append(1 + max((depth[j] for j in range(i) if _properly_inside(mems[j], b)), default=0))
    return max(depth, default=0)


# ---- seeded input generators --------------------------------------------

def random_family(rng: random.Random, max_atoms: int = 5, max_members: int = 12) -> Family:
    """A non-empty duplicate-free family with no structure guaranteed."""
    m = rng.randint(0, max_atoms)
    count = min(rng.randint(1, max_members), 1 << (m + 1))
    seen: set[Member] = set()
    while len(seen) < count:
        seen.add(Member(rng.randint(0, (1 << m) - 1), rng.random() < 0.5))
    return Family(m, tuple(seen))


def random_saturated_antichain(rng: random.Random, max_atoms: int = 6) -> Family:
    """Seed a few incomparable members, then adopt uncovered atom sets as
    smalls or larges (dropping what they dominate) until every set is
    covered.  Each adoption keeps an antichain and covers one more set."""
    m = rng.randint(0, max_atoms)
    full = (1 << m) - 1
    smalls: set[int] = set()
    larges: set[int] = set()
    for _ in range(rng.randint(0, 3)):
        mask = rng.randint(0, full)
        if rng.random() < 0.5:
            if not any(s & ~mask == 0 for s in smalls) and not any(
                    l & ~mask == 0 or mask & ~l == 0 for l in larges):
                larges.add(mask)
        elif not any(s & ~mask == 0 or mask & ~s == 0 for s in smalls) and not any(
                mask & ~l == 0 for l in larges):
            smalls.add(mask)
    while True:
        uncovered = [t for t in range(full + 1)
                     if not any(s & ~t == 0 for s in smalls) and not any(t & ~l == 0 for l in larges)]
        if not uncovered:
            break
        t = rng.choice(uncovered)
        if rng.random() < 0.5:
            smalls = {s for s in smalls if t & ~s != 0} | {t}
        else:
            larges = {l for l in larges if l & ~t != 0} | {t}
    return Family(m, tuple([Member(s, False) for s in smalls] + [Member(l, True) for l in larges]))


# ---- verify_ladder ------------------------------------------------------

def _ladder_rung(k: int, path: Path, golden: dict) -> Op:
    j, s = divmod(k - 2, 5)
    size = 2 ** (s + 1) * 28 ** j

    def run(stats: PassStats) -> list[str]:
        problems: list[str] = []
        code, _ = _run_cli(["construct", "--kind", "bootstrap", "--k", str(k), "--out", str(path)], stats)
        if code != 0:
            return [f"construct exit code {code}"]
        family_text = path.read_bytes()
        stats.counts["output_bytes"] += len(family_text)
        _check_digest(f"construct K={k}", family_text, golden, stats, problems)
        code, out = _run_cli(["verify", "--k", str(k), "--in", str(path), "--json"], stats)
        if code != 0:
            problems.append(f"verify exit code {code}")
        _check_digest(f"verify K={k}", out, golden, stats, problems)
        report = json.loads(out)
        if report["verdict"] is not True:
            problems.append(f"verdict {report['verdict']}")
        if report["layer_count"] != k:
            problems.append(f"layer_count {report['layer_count']}")
        found = sum(layer["size"] for layer in report["layers"])
        if found != size:
            problems.append(f"size {found}, expected {size}")
        return problems

    return Op(f"K={k}", run)


# ---- search_box ---------------------------------------------------------

def box(k: int, max_atoms: int, max_size: int, outcome: str, size: int | None) -> Op:
    bounds = search.SearchBounds(k=k, max_atoms=max_atoms, max_size=max_size)

    def run(stats: PassStats) -> list[str]:
        result = search.search_min(bounds)
        if result.outcome != outcome:
            return [f"outcome {result.outcome}, expected {outcome}"]
        if outcome == search.FOUND:
            problems = []
            if result.family.size != size:
                problems.append(f"size {result.family.size}, expected {size}")
            if result.family.m > max_atoms or not _saturated_k_sperner(result.family, k):
                problems.append("found family is not a saturated k-Sperner system")
            return problems
        cert = result.certificate
        if cert is None or (cert.k, cert.max_atoms, cert.max_size, cert.forced) != (k, max_atoms, max_size, True):
            return [f"certificate {cert}"]
        return []

    return Op(f"k={k} m<={max_atoms} size<={max_size}", run)


# ---- oracle_crosscheck --------------------------------------------------

def _crosscheck(label: str, f: Family, h: int, probe: int, expected: bool | None) -> Op:
    def run(stats: PassStats) -> list[str]:
        verdict = saturation.verify_saturated_k_sperner(f, probe).verdict
        oracle = saturation.brute_force_saturated(saturation.instantiate(f, h), probe)
        stats.counts["comparisons"] += 1
        problems = []
        if verdict == oracle:
            stats.counts["agreements"] += 1
        else:
            problems.append(f"verifier {verdict}, oracle {oracle}")
        if expected is not None and verdict != expected:
            problems.append(f"verdict {verdict}, expected {expected}")
        return problems

    return Op(f"{label} h={h} k={probe}", run)


def _reduction(label: str, a: Family) -> Op:
    already_reduced = all(mem.atom_count <= 1 for mem in a.members if not mem.has_H)

    def run(stats: PassStats) -> list[str]:
        out, trace = constructions.reduce_antichain(a)
        problems = []
        if out.size > a.size:
            problems.append("family grew")
        if not _is_antichain(out):
            problems.append("not an antichain")
        if not _is_saturated_antichain(out):
            problems.append("not saturated")
        if any(mem.atom_count > 1 for mem in out.members if not mem.has_H):
            problems.append("multi-atom small left")
        if already_reduced and out != a:
            problems.append("reduced input changed")
        if trace.replay(a) != out:
            problems.append("trace does not replay")
        return problems

    return Op(label, run)


def _roster(smoke: bool) -> list[tuple[str, Family, int]]:
    three, seven = constructions.three_sperner(), constructions.seven56()
    roster = [("three", three, 3), ("seven56", seven, 7)]
    roster += [(f"trivial({k})", constructions.trivial_construction(k), k)
               for k in range(2, 7 if smoke else 11)]
    roster.append(("three*three", constructions.compose(three, three), 4))
    if not smoke:
        roster.append(("seven56*three", constructions.compose(seven, three), 8))
        roster.append(("seven56*seven56", constructions.compose(seven, seven), 12))
    return roster


def _oracle_ops(seed: int, smoke: bool) -> list[Op]:
    ops = []
    for name, f, k in _roster(smoke):
        for h in (2, 3, 4):
            if f.m + h > saturation.ORACLE_MAX_GROUND:
                continue
            ops += [_crosscheck(name, f, h, probe, probe == k) for probe in (k - 1, k, k + 1) if probe >= 1]
    rng = random.Random(seed)
    for index in range(SMOKE_RANDOM_FAMILIES if smoke else RANDOM_FAMILIES):
        f = random_family(rng)
        chain = _member_chain_length(f)
        for probe in sorted({max(1, chain - 1), chain, chain + 1}):
            ops += [_crosscheck(f"family#{index}", f, h, probe, None) for h in (2, 3)]
    for index in range(SMOKE_RANDOM_ANTICHAINS if smoke else RANDOM_ANTICHAINS):
        ops.append(_reduction(f"antichain#{index}", random_saturated_antichain(rng)))
    return ops


# ---- bounds_table -------------------------------------------------------

def _bounds_ops(golden: dict) -> list[Op]:
    table_argv = ["bounds", "--table", f"7..{BOUNDS_K_MAX}"]
    threshold_argv = ["bounds", "--threshold", str(BOUNDS_K_MAX), "--json"]

    def table(stats: PassStats) -> list[str]:
        problems: list[str] = []
        code, out = _run_cli(table_argv, stats)
        if code != 0:
            problems.append(f"exit code {code}")
        _check_digest(" ".join(table_argv), out, golden, stats, problems)
        rows = out.count(b"\n") - 1
        if rows != BOUNDS_K_MAX - 6:
            problems.append(f"{rows} rows")
        return problems

    def threshold(stats: PassStats) -> list[str]:
        problems: list[str] = []
        code, out = _run_cli(threshold_argv, stats)
        if code != 0:
            problems.append(f"exit code {code}")
        _check_digest(" ".join(threshold_argv), out, golden, stats, problems)
        scan = json.loads(out)
        if scan["threshold"] != THRESHOLD:
            problems.append(f"threshold {scan['threshold']}")
        if not scan["margins"][str(THRESHOLD - 1)] < 0.0:
            problems.append(f"margin at {THRESHOLD - 1} is not negative")
        return problems

    return [Op("table", table), Op("threshold", threshold)]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def build(name: str, seed: int, *, smoke: bool, workdir: Path, golden: dict | None = None) -> list[Op]:
    """The workload's operations, with inputs made from `seed`."""
    if golden is None:
        golden = load_golden()
    if name == "verify_ladder":
        ks = SMOKE_LADDER_KS if smoke else LADDER_KS
        return [_ladder_rung(k, workdir / f"bootstrapped-{k}.txt", golden) for k in ks]
    if name == "search_box":
        if smoke:
            return [box(3, 2, 4, search.FOUND, 4)]
        return [box(4, 4, 8, search.FOUND, 8), box(6, 3, 20, search.NONE_WITHIN_BOUNDS, None)]
    if name == "oracle_crosscheck":
        return _oracle_ops(seed, smoke)
    if name == "bounds_table":
        return _bounds_ops(golden)
    raise ValueError(f"unknown workload {name!r}")
