"""Record the SHA-256 digests of the outputs the benchmark checks byte for byte.

    python3 perfbench/record_golden.py

Runs the full-size verify_ladder and bounds_table operations once and
writes perfbench/golden.json.  Run it only when an output change is
intended; every other change must leave these bytes identical.
"""

import json
import shutil
import sys

from worker import OUT, run_pass, use_checkout_source


def main() -> int:
    use_checkout_source()
    import workloads

    workdir = OUT / "work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for name in ("verify_ladder", "bounds_table"):
            ops = workloads.build(name, 0, smoke=False, workdir=workdir, golden={})
            _, stats = run_pass(ops)
            digests.update(stats.digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
