"""One workload in one fresh interpreter: build the inputs, then run passes
of the workload's operations until the measuring time is used up.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--smoke] [--setup-only] [--spans PATH]

A round is one pass, or with --trace 1 an untraced and a traced pass; a
round starts only while it is expected to end within --seconds.  During
untraced passes the worker times the reference kernel (reference.py) every
reference.EVERY_S, and reference.SETUP_SAMPLES times right after its inputs
are ready.  Prints one JSON line: the monotonic clock reading when
the inputs were ready and the reference samples taken then, the versions in
use, peak resident memory, and every pass (wall time without the reference
samples, the samples, per-operation latencies, failures, and, for traced
passes, the layer metrics).  With --trace 1 untraced and traced passes alternate, so the
difference between them is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


def use_checkout_source() -> None:
    """Import spernersat from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import spernersat
    if Path(spernersat.__file__).resolve().parent != src / "spernersat":
        raise ImportError(f"spernersat imported from {spernersat.__file__}, not from {src}")


@dataclass
class PassResult:
    wall_s: float
    ref_s: list[float]
    op_ms: list[float]
    failures: list[str]
    traced: bool = False
    layer: dict = field(default_factory=dict)


def run_pass(ops, tracer=None) -> tuple[PassResult, object]:
    """Every operation once.  An operation that raises or answers wrongly is
    recorded as failed; the pass goes on.  An untraced pass samples the
    reference kernel throughout (reference.Sampler), and its times leave the
    sampling out; a traced pass samples only once, before it starts, so no
    span contains a sample."""
    import reference
    from workloads import PassStats

    stats = PassStats()
    op_ms = []
    failures = []
    with reference.Sampler(enabled=tracer is None) as sampler:
        start = time.perf_counter()
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            began, spent = time.perf_counter(), sampler.spent
            try:
                problems = op.run(stats)
            except Exception:
                problems = ["raised " + traceback.format_exc(limit=-3).strip().replace("\n", " | ")]
            op_ms.append((time.perf_counter() - began - (sampler.spent - spent)) * 1000.0)
            if problems:
                failures.append(f"{op.label}: {'; '.join(problems)}")
        wall = time.perf_counter() - start - sampler.spent
    return PassResult(wall, sampler.samples, op_ms, failures, traced=tracer is not None), stats


def traced_pass(ops) -> tuple[PassResult, object]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        result, stats = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    result.layer = layer_metrics(tracer, stats.counts)
    return result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes")
    parser.add_argument("--setup-only", action="store_true", help="exit once the inputs are ready")
    parser.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    args = parser.parse_args(argv)

    use_checkout_source()
    import numpy
    import reference
    import workloads

    workdir = OUT / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, smoke=args.smoke, workdir=workdir)
        ready = time.monotonic()
        ready_ref = reference.samples(reference.SETUP_SAMPLES)
        passes = []
        last_tracer = None
        rounds: list[float] = []
        if not args.setup_only:
            began = time.perf_counter()
            while not rounds or time.perf_counter() - began + statistics.median(rounds) <= args.seconds:
                round_began = time.perf_counter()
                passes.append(run_pass(ops)[0])
                if args.trace:
                    result, last_tracer = traced_pass(ops)
                    passes.append(result)
                rounds.append(time.perf_counter() - round_began)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if last_tracer is not None and args.spans:
        last_tracer.save(args.spans)
    print(json.dumps({
        "ready": ready,
        "ready_ref_s": ready_ref,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_pass": len(ops),
        "measured_s": sum(rounds),
        "passes": [vars(p) for p in passes],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
