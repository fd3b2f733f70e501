"""Command-line front end.

Exit codes: 0 success / verified true / found; 1 verified false / nothing
found; 2 usage error, or an output file that cannot be written; 3
unreadable or malformed input; 4 search budget exhausted; 5 input beyond a
capacity limit (CapacityError).  Run as a program (entry), it ends
silently on SIGPIPE once a reader closes stdout early, as in
`spernersat bounds --table 7..2000 | head -1`.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import asdict, replace
from functools import cache

from . import bounds as bounds_mod
from .constructions import BLOCKS, bootstrapped, compose, reduce_antichain, trivial_construction
from .family import (
    CapacityError,
    Family,
    FamilyFormatError,
    Member,
    _decimal_int,
    parse_family,
    serialize_family,
)
from .saturation import (
    brute_force_saturated,
    find_atoms,
    instantiate,
    parse_concrete,
    verify_saturated_k_sperner,
)
from .search import BUDGET_EXHAUSTED, FOUND, SearchBounds, search_min

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_BUDGET = 4
EXIT_CAPACITY = 5


def _read_bytes(path: str) -> bytes:
    """The file's bytes; the parsers decode them and report a byte that is
    not UTF-8 as a format error on its line."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise FamilyFormatError(f"cannot read {path}: {exc.strerror}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when path is None; a
    file that cannot be written is a usage error."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _load_family(path: str) -> Family:
    return parse_family(_read_bytes(path))


def cmd_verify(args) -> int:
    family = _load_family(args.infile)
    report = verify_saturated_k_sperner(family, args.k)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(f"family: {family.size} members over {family.m} atoms + H")
        print(f"layers: {report.layer_count} (expected {report.k})")
        for lr in report.layers:
            line = (f"  layer {lr.index}: size {lr.size} "
                    f"({lr.small} small, {lr.large} large) "
                    f"saturated={'yes' if lr.saturated else 'no'}")
            if lr.witness_mask is not None:
                line += f" witness=[{Member(lr.witness_mask, False)}]"
            print(line)
        for reason in report.reasons:
            print(f"  reason: {reason.describe()}")
        print(f"verdict: {report.verdict}")
    return EXIT_OK if report.verdict else EXIT_FALSE


def cmd_construct(args) -> int:
    if args.kind in ("trivial", "bootstrap") and args.k is None:
        print(f"construct --kind {args.kind} requires --k", file=sys.stderr)
        return EXIT_USAGE
    if args.kind in BLOCKS:
        build, degree = BLOCKS[args.kind]
        if args.k not in (None, degree):
            print(f"construct --kind {args.kind} builds degree {degree}, not --k {args.k}", file=sys.stderr)
            return EXIT_USAGE
        family = build()
    elif args.kind == "trivial":
        family = trivial_construction(args.k)
    else:
        family, plan = bootstrapped(args.k)
        print(f"plan: j={plan.j} s={plan.s} predicted size {plan.predicted_size}",
              file=sys.stderr)
    _write_text(args.out, serialize_family(family))
    return EXIT_OK


def cmd_compose(args) -> int:
    left = _load_family(args.a)
    right = _load_family(args.b)
    _write_text(args.out, serialize_family(compose(left, right)))
    return EXIT_OK


def cmd_reduce(args) -> int:
    family = _load_family(args.infile)
    try:
        reduced, trace = reduce_antichain(family)
    except CapacityError:
        raise
    except ValueError as exc:
        print(f"input rejected: {exc}", file=sys.stderr)
        return EXIT_FALSE
    _write_text(args.out, serialize_family(reduced))
    if args.trace:
        _write_text(args.trace, trace.describe() + "\n")
    return EXIT_OK


_BOUNDS_HEADER = "k\tbaseline_log2\tsum_lower\terf_log2\tupper_log2\tmargin_166\tmargin_497"


def _bounds_row(report) -> str:
    values = (report.baseline_lower_log2, report.sum_lower, report.erf_lower_log2,
              report.upper_log2, report.margin_166, report.margin_497)
    return "\t".join([str(report.k)] + ["-" if v is None else f"{v:.6g}" for v in values])


def _write_json_streamed(doc: dict, entries) -> None:
    """Write json.dumps(doc, indent=2) and a newline, where the last value of
    doc, an empty list or dict, stands for the encoded entries, written one
    at a time.  entries must not be empty."""
    text = json.dumps(doc, indent=2)
    sys.stdout.write(text[:-3])
    for i, entry in enumerate(entries):
        sys.stdout.write(("\n    " if i == 0 else ",\n    ") + entry.replace("\n", "\n    "))
    sys.stdout.write("\n  " + text[-3:] + "\n")


def cmd_bounds(args) -> int:
    if args.threshold is not None:
        scan = bounds_mod.find_threshold(args.threshold)
        if args.json:
            # the scan's document with its margins written one at a time; find_threshold
            # adds them in ascending k, the order to_json_dict sorts them in
            _write_json_streamed(replace(scan, margins={}).to_json_dict(),
                                 (f'"{k}": {json.dumps(v)}' for k, v in scan.margins.items()))
        else:
            print(f"threshold: {scan.threshold}")
            if scan.threshold is not None:
                # the last k that fails, if the scan has one, and the threshold
                for k in range(max(7, scan.threshold - 1), scan.threshold + 1):
                    print(f"margin at {k}: {scan.margins[k]:.3e}")
        return EXIT_OK if scan.threshold is not None else EXIT_FALSE
    if args.table is not None:
        try:
            lo_text, hi_text = args.table.split("..", 1)
            lo, hi = _decimal_int(lo_text), _decimal_int(hi_text)
        except ValueError:
            print("--table expects a range like 7..20", file=sys.stderr)
            return EXIT_USAGE
        reports = bounds_mod.bound_table(lo, hi)
        if args.json:
            _write_json_streamed({"schema_version": 1, "rows": []},
                                 (json.dumps(report.to_json_dict(), indent=2) for report in reports))
            return EXIT_OK
    else:
        report = bounds_mod.upper_bound_report(args.k)
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2))
            return EXIT_OK
        reports = [report]
    print(_BOUNDS_HEADER)
    for report in reports:
        print(_bounds_row(report))
    return EXIT_OK


def cmd_search(args) -> int:
    try:
        search_bounds = SearchBounds(k=args.k, max_atoms=args.max_atoms,
                                     max_size=args.max_size, budget=args.budget)
    except ValueError as exc:
        print(f"bad bounds: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = search_min(search_bounds, forcing=not args.no_forcing)
    try:
        return _report_search(result, args.output)
    finally:
        if args.stats:
            for name, value in asdict(result.counts).items():
                print(f"{name}: {value}", file=sys.stderr)


def _report_search(result, output: str | None) -> int:
    print(f"outcome: {result.outcome} (nodes expanded: {result.nodes})")
    if result.outcome == FOUND:
        print(f"minimum size within bounds: {result.family.size}")
        _write_text(output, serialize_family(result.family))
        return EXIT_OK
    if result.outcome == BUDGET_EXHAUSTED:
        return EXIT_BUDGET
    cert = result.certificate
    print(f"exhaustive for k={cert.k}, atoms<={cert.max_atoms}, size<={cert.max_size}, "
          f"structural forcing {'on' if cert.forced else 'off'}")
    return EXIT_FALSE


def cmd_atoms(args) -> int:
    concrete = parse_concrete(_read_bytes(args.infile))
    partition = find_atoms(concrete)
    if args.json:
        print(json.dumps(partition.to_json_dict(), indent=2))
    else:
        print(f"ground set: {partition.n} elements, {len(partition.classes)} atom classes")
        for cls in partition.classes:
            tag = " (homogeneous)" if len(cls) >= 2 else ""
            print(f"  {{{' '.join(str(e) for e in cls)}}}{tag}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    family = _load_family(args.infile)
    concrete = instantiate(family, args.h)
    verdict = brute_force_saturated(concrete, args.k)
    print(f"saturated {args.k}-Sperner on {concrete.n} concrete elements: {verdict}")
    return EXIT_OK if verdict else EXIT_FALSE


@cache
def build_parser() -> argparse.ArgumentParser:
    # built by the first main() call, not at import, and kept for the process
    parser = argparse.ArgumentParser(
        prog="spernersat",
        description="Construct, verify, compose, reduce, and search saturated k-Sperner systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a family file for saturated k-Sperner structure")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="emit a built-in construction")
    p.add_argument("--kind", choices=["trivial", *BLOCKS, "bootstrap"], required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("compose", help="compose two family files on disjoint universes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("reduce", help="rewrite a saturated antichain to singleton smalls")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("bounds", help="bound tables, single-k reports, threshold scans")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--table", metavar="LO..HI")
    group.add_argument("--threshold", type=int, metavar="KMAX")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="bounded exhaustive search for minimum systems")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-atoms", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--budget", type=int, default=SearchBounds.budget)
    p.add_argument("--no-forcing", action="store_true")
    p.add_argument("--output")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("atoms", help="atom classes of a concrete family file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("oracle", help="brute-force saturation check of an instantiated family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except FamilyFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    # the default action: a closed stdout ends the process with SIGPIPE, not
    # a BrokenPipeError traceback and exit 1 ("verified false")
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
