"""Smoke test of the benchmark itself, at tiny sizes (ladder to K=10, a k=3
box, a handful of seeded families; bounds_table runs at full size).

    python3 perfbench/test_smoke.py          # or: python3 -m pytest perfbench/test_smoke.py

Checks the result schema and that every metric BENCHMARK.json names is
printed, that a wrong expectation or a raising operation counts as a failed
operation without stopping the pass, that a traced pass restores every
wrapped attribute, and that a directory without the program's sources
makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from worker import OUT, ROOT, run_pass, traced_pass, use_checkout_source

HERE = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(directory: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=directory, capture_output=True, text=True, timeout=180)


def test_result_schema_and_metric_names():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, (workload, proc.stderr)
            assert type(result["attempted"]) is int and result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in declared], (workload, trace)
            for metric in declared:
                entry = result["metrics"][metric["name"]]
                assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
                assert type(entry["value"]) in (int, float) and math.isfinite(entry["value"])
            if trace == 0:
                assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_per_layer_list_matches_tracer():
    from tracer import PER_LAYER

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_wrong_expectations_count_as_failed_operations():
    use_checkout_source()
    import workloads

    workdir = OUT / "work" / "smoke-test"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        golden = dict(workloads.load_golden(), **{"verify K=7": "0" * 64})
        ops = workloads.build("verify_ladder", 3, smoke=True, workdir=workdir, golden=golden)
        ops.append(workloads.box(3, 2, 4, "FOUND", 5))
        ops.append(workloads.Op("raises", lambda stats: [1 / 0]))
        result, _ = run_pass(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert len(result.op_ms) == len(ops)
    assert result.ref_s and all(t > 0 for t in result.ref_s)
    assert len(result.failures) == 3, result.failures
    assert result.failures[0].startswith("K=7: verify K=7: sha256")
    assert "size 4, expected 5" in result.failures[1]
    assert "ZeroDivisionError" in result.failures[2]


def test_traced_pass_restores_every_attribute():
    use_checkout_source()
    import spernersat
    import workloads
    from tracer import TARGETS

    originals = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr, *_ in TARGETS}
    result, tracer = traced_pass(workloads.build("search_box", 3, smoke=True, workdir=OUT))
    assert not result.failures
    assert result.layer["search.leaves"] >= 1 and len(tracer.start) > 0
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[mod], attr) is original
    assert spernersat.search.member_depths is spernersat.family.member_depths
    assert spernersat.cli.verify_saturated_k_sperner is spernersat.saturation.verify_saturated_k_sperner


def test_fails_without_program_sources():
    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "search_box", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
