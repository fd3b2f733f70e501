"""spernersat benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program is imported from the src/ directory next to
perfbench/.  Each run starts fresh interpreters, one at a time, all pinned
to the first CPU the run may use:

* set-up probes (--trace 0 only): a warm-up, then SETUP_PROBES timed ones,
  each from interpreter start until the workload's inputs are ready;
* WORKERS measuring workers, each running passes of the workload's
  operations for its share of --seconds (always at least one pass); a
  worker's share is the measuring time the earlier workers left, split
  evenly among those still to run.
  A run pools passes from several processes.  With --trace 1 untraced and
  traced passes alternate.

The host's speed drifts by up to ~2x over minutes, so every worker times a
fixed reference kernel (reference.py) throughout its untraced passes and
right after its set-up, and wall_s and setup_s are reported at reference
speed: the raw time times REF_S over the mean reference sample taken with
it.  The raw times are kept in the record.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The full record (stamp, every sample,
every failure) goes to perfbench/out/results/, a traced run's spans to
perfbench/out/spans/; compare.py reads the records.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from reference import REF_S
from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_PROBES = 3
WORKERS = 4
RUN_LIMIT_S = 170.0


def _git_commit() -> str | None:
    """HEAD of the checkout's repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _worker(args, seconds: float, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Start one worker, wait for it, and return (start clock, its report)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace)] + extra
    if args.smoke:
        argv.append("--smoke")
    spawned = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned, json.loads(proc.stdout.splitlines()[-1])


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _scaled(raw: float, ref_s: list[float]) -> float:
    """A time taken next to the reference samples `ref_s`, at reference speed."""
    return raw * REF_S / statistics.fmean(ref_s)


def _end_to_end(setups: list[float], reports: list[dict], passes: list[dict]) -> dict:
    return {
        "wall_s": (statistics.median(_scaled(p["wall_s"], p["ref_s"]) for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }


def _per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    # each round is an untraced pass and then a traced one; comparing within
    # rounds keeps the host's drift between rounds out of the ratio
    rounds = zip(passes[0::2], passes[1::2])
    extra = {
        "trace.overhead_ratio": statistics.median(t["wall_s"] / u["wall_s"] for u, t in rounds) - 1.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
    }
    return {name: (extra[name] if name in extra else statistics.median(p["layer"][name] for p in traced), unit)
            for name, unit, _better in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one spernersat benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spernersat" / "__init__.py").is_file():
        print(f"perfbench: no spernersat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    allowed = sorted(os.sched_getaffinity(0))
    # every interpreter of the run on one CPU: a process that moved between
    # CPUs set up ~40% slower, and the CPUs of a shared host differ in speed
    os.sched_setaffinity(0, {allowed[0]})
    stamp = {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(allowed),
        "pinned_cpu": allowed[0],
        "loadavg_start": _loadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    try:
        setups, raw_setups = [], []
        if not args.trace:
            for probe in range(SETUP_PROBES + 1):
                spawned, ready = _worker(args, 0.0, ["--setup-only"], timeout=remaining())
                if probe:   # the first one warms the bytecode cache
                    raw_setups.append(ready["ready"] - spawned)
                    setups.append(_scaled(raw_setups[-1], ready["ready_ref_s"]))
        spans = OUT / "spans" / f"{tag}.npz"
        reports = []
        measured = 0.0
        for index in range(WORKERS):
            # a worker starts no pass it expects to overrun its share (but runs at least
            # one), so later workers get the time earlier ones left
            share = (args.seconds - measured) / (WORKERS - index)
            spawned, report = _worker(args, share, ["--spans", str(spans)] if args.trace else [],
                                      timeout=remaining())   # the last traced worker's spans are kept
            raw_setups.append(report["ready"] - spawned)
            setups.append(_scaled(raw_setups[-1], report["ready_ref_s"]))
            reports.append(report)
            measured += report["measured_s"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = [dict(p, worker=index) for index, r in enumerate(reports) for p in r["passes"]]
    metrics = _per_layer(passes) if args.trace else _end_to_end(setups, reports, passes)
    failures = [f for p in passes for f in p["failures"]]
    attempted = report["ops_per_pass"] * len(passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stamp.update(numpy=report["numpy"], worker_python=report["python"])
    record = {
        "stamp": stamp,
        "result": result,
        "samples": {
            "setup_s": setups,
            "raw_setup_s": raw_setups,
            "passes": [{"wall_s": _scaled(p["wall_s"], p["ref_s"]), "raw_wall_s": p["wall_s"],
                        "ref_s": p["ref_s"], "traced": p["traced"], "worker": p["worker"], "ops": len(p["op_ms"]),
                        "failed": len(p["failures"]), "op_p50_ms": _percentile(p["op_ms"], 50),
                        "op_p99_ms": _percentile(p["op_ms"], 99)} for p in passes],
        },
        "failures": failures,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# {json.dumps(stamp)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# {len(passes)} passes x {report['ops_per_pass']} operations in {WORKERS} worker processes")
    if not args.trace:
        print(f"# setup_s: median of {len(setups)} interpreter starts")
        print(f"# unscaled: wall_s {statistics.median(p['wall_s'] for p in passes):.6g} s, "
              f"setup_s {statistics.median(raw_setups):.6g} s; median reference sample "
              f"{statistics.median(t for p in passes for t in p['ref_s']):.6g} s (REF_S {REF_S} s)")
    for failure in failures[:20]:
        print(f"# FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
