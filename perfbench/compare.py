"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of run records (perfbench/out/results/
from each checkout) or single record files.  Smoke-test records are
ignored.  For every (metric, workload) the two sides share, it prints each
side's median and quartiles and one verdict:

* improved   -- the change wins at least 9 in 10 of the run pairs (ties win
                for neither side) and the medians differ by more than the
                parent's own quartile spread;
* worse      -- an end-to-end metric whose change median is worse than the
                parent median by more than its bound in BENCHMARK.json, or a
                per-layer metric that the parent improves on by the rule above;
* unresolved -- an end-to-end metric whose parent spread (quartile distance
                over median) exceeds its bound, unless every change run reads
                better than every parent run;
* unchanged  -- otherwise.

Runs are paired by seed where both sides ran the same seeds, otherwise in
the order they were made.  The share of failed operations is compared per
workload too.  Exits with 1 when any verdict is worse or the change fails a
larger share of operations than the parent, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    return sorted((r for r in runs if not r["stamp"]["smoke"]), key=lambda r: r["stamp"]["utc"])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    def value(run):
        return run["result"]["metrics"][metric]["value"]

    by_seed = {r["stamp"]["seed"]: r for r in change}
    if len(by_seed) == len(change) and all(r["stamp"]["seed"] in by_seed for r in parent):
        return [(value(r), value(by_seed[r["stamp"]["seed"]])) for r in parent]
    return [(value(p), value(c)) for p, c in zip(parent, change)]


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0   # sign * (b - a) > 0: b is worse than a
    change_wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    parent_wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pq1, pmed, pq3 = _quartiles(parent)
    cmed = statistics.median(change)
    separated = abs(cmed - pmed) > pq3 - pq1
    if pairs and change_wins >= 0.9 * len(pairs) and separated:
        return "improved"
    if bound is None:
        return "worse" if pairs and parent_wins >= 0.9 * len(pairs) and separated else "unchanged"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pmed and (pq3 - pq1) / abs(pmed) > bound and not all_better:
        return "unresolved"
    if pmed and sign * (cmed - pmed) / abs(pmed) > bound:
        return "worse"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = (load_runs(Path(p)) for p in argv)
    status = 0
    print("workload\tmetric\tparent q1/median/q3\tchange q1/median/q3\truns\tverdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            parent = [r for r in parent_runs if r["stamp"]["workload"] == workload and r["stamp"]["trace"] == trace]
            change = [r for r in change_runs if r["stamp"]["workload"] == workload and r["stamp"]["trace"] == trace]
            if not parent or not change:
                continue
            shared = [m for m in parent[0]["result"]["metrics"] if m in change[0]["result"]["metrics"]]
            for metric in shared:
                p = [r["result"]["metrics"][metric]["value"] for r in parent]
                c = [r["result"]["metrics"][metric]["value"] for r in change]
                verdict_ = verdict(p, c, _pairs(parent, change, metric),
                                   better.get(metric, "lower"), bounds.get(metric))
                if verdict_ == "worse" and metric in bounds:
                    status = 1
                print(f"{workload}\t{metric}\t" + "/".join(f"{v:.5g}" for v in _quartiles(p))
                      + "\t" + "/".join(f"{v:.5g}" for v in _quartiles(c))
                      + f"\t{len(p)}:{len(c)}\t{verdict_}")
            shares = []
            for runs in (parent, change):
                failed = sum(r["result"]["failed"] for r in runs)
                attempted = sum(r["result"]["attempted"] for r in runs)
                shares.append((failed, attempted))
            worse = shares[1][0] * shares[0][1] > shares[0][0] * shares[1][1]
            if worse:
                status = 1
            print(f"{workload}\tops_failed (trace {trace})\t{shares[0][0]}/{shares[0][1]}\t"
                  f"{shares[1][0]}/{shares[1][1]}\t\t{'worse' if worse else 'unchanged'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
