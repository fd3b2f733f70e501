"""End-to-end CLI behavior: exit codes, file round trips, JSON schemas."""

import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import spernersat
from spernersat import (
    Family,
    parse_family,
    serialize_family,
    seven56,
    three_sperner,
    verify_saturated_k_sperner,
)
from spernersat import cli
from spernersat.cli import main
from spernersat.constructions import BLOCKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(tmp_path, capsys):
    """main() builds the parser on its first call and reuses it: a usage
    error, --help and a valid command each still get their exit code."""
    cli.build_parser.cache_clear()
    code, out, err = run(capsys, "verify", "--k", "7")
    assert (code, out) == (2, "")
    assert "the following arguments are required: --in" in err
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: spernersat ")
    path = tmp_path / "f.txt"
    assert run(capsys, "construct", "--kind", "seven56", "--out", str(path))[0] == 0
    assert run(capsys, "verify", "--k", "7", "--in", str(path))[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


# ------------------------------------------------------ construct/verify

def test_construct_then_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "f.txt"
    code, _, err = run(capsys, "construct", "--kind", "seven56", "--out", str(path))
    assert code == 0
    assert parse_family(path.read_text()) == seven56()

    code, out, _ = run(capsys, "verify", "--k", "7", "--in", str(path))
    assert code == 0
    assert "verdict: True" in out
    assert "56 members" in out

    code, out, _ = run(capsys, "verify", "--k", "6", "--in", str(path))
    assert code == 1
    assert "WRONG_LAYER_COUNT" in out


def test_construct_trivial_and_bootstrap(tmp_path, capsys):
    path = tmp_path / "t.txt"
    assert run(capsys, "construct", "--kind", "trivial", "--k", "5", "--out", str(path))[0] == 0
    assert len(parse_family(path.read_text()).members) == 16

    code, _, err = run(capsys, "construct", "--kind", "bootstrap", "--k", "8", "--out", str(path))
    assert code == 0
    assert "predicted size 112" in err
    assert parse_family(path.read_text()).size == 112

    # beyond the atom cap the plan is reported as a capacity error
    code, _, err = run(capsys, "construct", "--kind", "bootstrap", "--k", "47", "--out", str(path))
    assert code == 5
    assert "capacity error:" in err
    assert "63 atoms" in err

    code, _, err = run(capsys, "construct", "--kind", "trivial")
    assert code == 2
    assert "requires --k" in err


def test_construct_bootstrap_refuses_beyond_member_cap(monkeypatch, capsys):
    import spernersat.constructions as constructions_mod

    def no_compose(f1, f2):
        raise AssertionError("compose ran past the member cap")

    monkeypatch.setattr(constructions_mod, "compose", no_compose)
    code, out, err = run(capsys, "construct", "--kind", "bootstrap", "--k", "30")
    assert code == 5
    assert out == ""
    assert "capacity error:" in err
    assert "needs 275365888 members (limit 2097152)" in err
    assert "atoms" not in err


def test_construct_writes_stdout_without_out(capsys):
    code, out, _ = run(capsys, "construct", "--kind", "three")
    assert code == 0
    assert parse_family(out) == three_sperner()


def test_construct_of_a_fixed_degree_refuses_another_k(tmp_path, capsys):
    path = tmp_path / "f.txt"
    for kind, k, degree in (("three", 9, 3), ("three", 7, 3), ("seven56", 3, 7), ("seven56", 8, 7)):
        code, out, err = run(capsys, "construct", "--kind", kind, "--k", str(k), "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"construct --kind {kind} builds degree {degree}, not --k {k}\n"
        assert not path.exists()
    for kind, k, family in (("three", 3, three_sperner()), ("seven56", 7, seven56())):
        code, out, _ = run(capsys, "construct", "--kind", kind, "--k", str(k))
        assert code == 0
        assert parse_family(out) == family


def test_every_block_of_the_table_is_built_and_guarded(capsys):
    """Each row of BLOCKS: its builder's family is saturated at the row's
    degree and at neither degree next to it, `construct --kind` writes that
    family, and a --k one above the degree is refused."""
    for name, (build, degree) in BLOCKS.items():
        family = build()
        assert verify_saturated_k_sperner(family, degree).verdict, name
        for k in (degree - 1, degree + 1):
            assert not verify_saturated_k_sperner(family, k).verdict, (name, k)
        assert run(capsys, "construct", "--kind", name) == (0, serialize_family(family), "")
        assert run(capsys, "construct", "--kind", name, "--k", str(degree + 1)) == (
            2, "", f"construct --kind {name} builds degree {degree}, not --k {degree + 1}\n")


def test_verify_json_schema(tmp_path, capsys):
    path = tmp_path / "f.txt"
    run(capsys, "construct", "--kind", "three", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--k", "3", "--in", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["verdict"] is True
    assert [layer["size"] for layer in data["layers"]] == [1, 2, 1]


_UNSATURATED_TEXT = """\
family: 55 members over 7 atoms + H
layers: 7 (expected 7)
  layer 0: size 1 (1 small, 0 large) saturated=yes
  layer 1: size 6 (5 small, 1 large) saturated=yes
  layer 2: size 14 (7 small, 7 large) saturated=no witness=[5 6]
  layer 3: size 14 (7 small, 7 large) saturated=no witness=[3 5 6]
  layer 4: size 13 (6 small, 7 large) saturated=no witness=[1 3 5 6]
  layer 5: size 6 (1 small, 5 large) saturated=yes
  layer 6: size 1 (0 small, 1 large) saturated=yes
  reason: LAYER_NOT_SATURATED layer=2 witness=[5 6]
  reason: LAYER_NOT_SATURATED layer=3 witness=[3 5 6]
  reason: LAYER_NOT_SATURATED layer=4 witness=[1 3 5 6]
verdict: False
"""


def test_verify_text_names_each_unsaturated_layer_and_its_witness(tmp_path, capsys):
    # without one member of its layer 2, seven56 has three unsaturated layers
    f = seven56()
    path = tmp_path / "f.txt"
    path.write_text(serialize_family(Family.from_keys(f.m, f.keys[:10] + f.keys[11:])))
    assert run(capsys, "verify", "--k", "7", "--in", str(path)) == (1, _UNSATURATED_TEXT, "")


def test_verify_and_oracle_agree_on_the_empty_family(tmp_path, capsys):
    # a header alone is a well-formed family with no members and no layers
    path = tmp_path / "empty.txt"
    path.write_text("universe 2\n")
    assert run(capsys, "verify", "--k", "2", "--in", str(path)) == (1, (
        "family: 0 members over 2 atoms + H\n"
        "layers: 0 (expected 2)\n"
        "  reason: WRONG_LAYER_COUNT\n"
        "verdict: False\n"), "")
    code, out, _ = run(capsys, "oracle", "--in", str(path), "--h", "2", "--k", "2")
    assert (code, out) == (1, "saturated 2-Sperner on 4 concrete elements: False\n")
    assert run(capsys, "reduce", "--in", str(path)) == (
        1, "", "input rejected: input antichain is not saturated\n")


# --------------------------------------------------------------- compose

def test_compose_command(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    out_path = tmp_path / "g.txt"
    run(capsys, "construct", "--kind", "seven56", "--out", str(a))
    run(capsys, "construct", "--kind", "three", "--out", str(b))
    code, _, _ = run(capsys, "compose", "--a", str(a), "--b", str(b), "--out", str(out_path))
    assert code == 0
    g = parse_family(out_path.read_text())
    assert (g.m, g.size) == (8, 112)
    assert run(capsys, "verify", "--k", "8", "--in", str(out_path))[0] == 0


# ---------------------------------------------------------------- reduce

def test_reduce_command_with_trace(tmp_path, capsys):
    src = tmp_path / "layer.txt"
    out_path = tmp_path / "reduced.txt"
    trace_path = tmp_path / "trace.log"
    from spernersat import canonical_decomposition
    layer = canonical_decomposition(seven56())[2]
    src.write_text(serialize_family(layer))
    code, _, _ = run(capsys, "reduce", "--in", str(src), "--out", str(out_path),
                     "--trace", str(trace_path))
    assert code == 0
    assert parse_family(out_path.read_text()).size == 7
    assert len(trace_path.read_text().splitlines()) == 30

    # a non-saturated file is an input rejection, not a crash
    bad = tmp_path / "bad.txt"
    bad.write_text("universe 2\n1 2\n")
    code, _, err = run(capsys, "reduce", "--in", str(bad))
    assert code == 1
    assert "input rejected" in err


# ---------------------------------------------------------------- bounds

def test_bounds_single_k_json(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "497", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["margins"]["erf_vs_497"] > 0.0


def test_bounds_single_k_text(capsys):
    assert run(capsys, "bounds", "--k", "497") == (0, (
        "k\tbaseline_log2\tsum_lower\terf_log2\tupper_log2\tmargin_166\tmargin_497\n"
        "497\t248\t1.51645e+76\t252.979\t476.928\t1.66003\t2.6676e-05\n"), "")


def test_bounds_single_k_text_is_the_one_row_table(capsys):
    for k in (2, 7, 2000):
        single = run(capsys, "bounds", "--k", str(k))
        assert single == run(capsys, "bounds", "--table", f"{k}..{k}"), k
        assert single[0] == 0 and single[1].count("\n") == 2, k


def test_bounds_sum_lower_log2_is_the_sequential_sum(capsys):
    # a left-to-right sum gives these; a compensated sum, as Python 3.12's sum()
    # makes, gives 22.21411507344331 and 50.86742567704756
    for k, sum_log2 in ((39, 22.214115073443306), (95, 50.86742567704755)):
        code, out, _ = run(capsys, "bounds", "--k", str(k), "--json")
        assert code == 0 and json.loads(out)["sum_lower_log2"] == sum_log2, k


def test_bounds_table_and_threshold(capsys):
    code, out, _ = run(capsys, "bounds", "--table", "7..9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k\t")
    assert len(lines) == 4

    code, out, _ = run(capsys, "bounds", "--threshold", "600")
    assert code == 0
    assert "threshold: 497" in out

    code, _, err = run(capsys, "bounds", "--table", "oops")
    assert code == 2


def test_bounds_table_range_takes_the_format_integers_only(capsys):
    for bad in ("2_0..30", "+7..9", "\u0667..9", " 7..9", "7..9 "):
        code, out, err = run(capsys, "bounds", "--table", bad)
        assert (code, out, err) == (2, "", "--table expects a range like 7..20\n"), bad


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(spernersat.__file__).parent.parent)}
    proc = subprocess.Popen([sys.executable, "-m", "spernersat.cli", "bounds", "--table", "7..2000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"k\t")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert err == b""
    assert code == -signal.SIGPIPE, code


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_bounds_table_json_is_streamed_with_the_bytes_of_one_dump(capsys):
    from spernersat import bound_table
    code, out, _ = run(capsys, "bounds", "--table", "7..60", "--json")
    assert code == 0
    whole = {"schema_version": 1, "rows": [r.to_json_dict() for r in bound_table(7, 60)]}
    assert out == json.dumps(whole, indent=2) + "\n"
    code, out, _ = run(capsys, "bounds", "--table", "7..7", "--json")
    assert out == json.dumps({"schema_version": 1, "rows": [next(bound_table(7, 7)).to_json_dict()]},
                             indent=2) + "\n"


def test_bounds_table_text_holds_one_report_at_a_time(capsys):
    # all 1,994 reports of 7..2000 at once peaked at 79 MiB; one at a time, ~0.35 MiB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "bounds", "--table", "7..2000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and len(out.splitlines()) == 1 + 1994
    assert peak < 2**20, peak


def test_bounds_json_has_no_infinity(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "2100", "--json")
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["sum_lower"] is None
    assert data["sum_lower_log2"] > 1024

    code, out, _ = run(capsys, "bounds", "--table", "2025..2040", "--json")
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert [r["k"] for r in rows] == list(range(2025, 2041))
    assert [r["sum_lower"] is None for r in rows] == [k >= 2029 for k in range(2025, 2041)]


# ---------------------------------------------------------------- search

def test_search_found_writes_family(tmp_path, capsys):
    out_path = tmp_path / "min.txt"
    code, out, _ = run(capsys, "search", "--k", "3", "--max-atoms", "2",
                       "--max-size", "4", "--output", str(out_path))
    assert code == 0
    assert "outcome: FOUND" in out
    assert parse_family(out_path.read_text()).size == 4


def test_search_none_and_budget(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--max-atoms", "2", "--max-size", "3")
    assert code == 1
    assert "outcome: NONE_WITHIN_BOUNDS" in out
    assert "exhaustive for k=3" in out

    code, out, _ = run(capsys, "search", "--k", "5", "--max-atoms", "4",
                       "--max-size", "10", "--budget", "50")
    assert code == 4
    assert "outcome: BUDGET_EXHAUSTED" in out

    code, _, err = run(capsys, "search", "--k", "0", "--max-atoms", "2", "--max-size", "3")
    assert code == 2
    assert "bad bounds" in err


_FOUND_3 = "outcome: FOUND (nodes expanded: 3)\nminimum size within bounds: 4\n"


def test_search_stats_go_to_stderr_after_the_output(tmp_path, capsys):
    out_path = tmp_path / "min.txt"
    argv = ("search", "--k", "3", "--max-atoms", "2", "--max-size", "4", "--output", str(out_path))
    assert run(capsys, *argv) == (0, _FOUND_3, "")
    assert run(capsys, *argv, "--stats") == (0, _FOUND_3, (
        "candidates: 2\nchain_prunes: 0\norbit_prunes: 0\n"
        "shape_prunes: 0\nleaves_verified: 1\nsingleton_prunes: 0\nreach_prunes: 0\n"
        "layer1_prunes: 0\n"))


def test_search_stats_on_an_exhausted_budget(capsys):
    argv = ("search", "--k", "5", "--max-atoms", "4", "--max-size", "10", "--budget", "50")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (4, "")
    assert run(capsys, *argv, "--stats") == (4, out, (
        "candidates: 338\nchain_prunes: 0\norbit_prunes: 44\n"
        "shape_prunes: 0\nleaves_verified: 0\nsingleton_prunes: 3\nreach_prunes: 242\n"
        "layer1_prunes: 0\n"))


def test_search_stats_on_an_exhausted_box(capsys):
    """A box with no accepted leaf: the candidate rules turn down every
    subtree before it reaches a leaf, so no leaf is decided."""
    assert run(capsys, "search", "--k", "5", "--max-atoms", "4", "--max-size", "10", "--stats") == (1, (
        "outcome: NONE_WITHIN_BOUNDS (nodes expanded: 196)\n"
        "exhaustive for k=5, atoms<=4, size<=10, structural forcing on\n"), (
        "candidates: 1423\nchain_prunes: 23\norbit_prunes: 124\n"
        "shape_prunes: 0\nleaves_verified: 0\nsingleton_prunes: 6\nreach_prunes: 1076\n"
        "layer1_prunes: 0\n"))


# ----------------------------------------------------------------- atoms

def test_atoms_command(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("universe 4\nempty\n1 2 3 4\n")
    code, out, _ = run(capsys, "atoms", "--in", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["classes"] == [[1, 2, 3, 4]]
    assert data["homogeneous"] == [[1, 2, 3, 4]]

    code, out, _ = run(capsys, "atoms", "--in", str(path))
    assert code == 0
    assert "(homogeneous)" in out


# ---------------------------------------------------------------- oracle

def test_oracle_command_agrees_with_verify(tmp_path, capsys):
    path = tmp_path / "f.txt"
    run(capsys, "construct", "--kind", "three", "--out", str(path))
    for h in ("2", "3", "4"):
        assert run(capsys, "oracle", "--in", str(path), "--h", h, "--k", "3")[0] == 0
        assert run(capsys, "oracle", "--in", str(path), "--h", h, "--k", "4")[0] == 1
    # a degree past sys.maxsize is a false verdict for both, not a usage error
    for k in (str(2**63), str(10**20)):
        assert run(capsys, "verify", "--in", str(path), "--k", k)[0] == 1
        code, out, err = run(capsys, "oracle", "--in", str(path), "--h", "2", "--k", k)
        assert (code, out, err) == (1, f"saturated {k}-Sperner on 3 concrete elements: False\n", "")


# ---------------------------------------------------- unwritable output

def _cannot_write(tmp_path):
    """A path in a directory that does not exist, and the error it gives."""
    path = tmp_path / "missing" / "x.txt"
    return str(path), f"error: cannot write {path}: No such file or directory\n"


def test_construct_to_an_unwritable_path_exits_2(tmp_path, capsys):
    path, message = _cannot_write(tmp_path)
    assert run(capsys, "construct", "--kind", "three", "--out", path) == (2, "", message)


def test_compose_to_an_unwritable_path_exits_2(tmp_path, capsys):
    three = tmp_path / "three.txt"
    three.write_text(serialize_family(three_sperner()))
    path, message = _cannot_write(tmp_path)
    assert run(capsys, "compose", "--a", str(three), "--b", str(three), "--out", path) == (2, "", message)


def test_reduce_to_an_unwritable_out_or_trace_exits_2(tmp_path, capsys):
    from spernersat import canonical_decomposition
    src = tmp_path / "layer.txt"
    src.write_text(serialize_family(canonical_decomposition(seven56())[2]))
    path, message = _cannot_write(tmp_path)
    assert run(capsys, "reduce", "--in", str(src), "--out", path) == (2, "", message)
    out_path = tmp_path / "reduced.txt"
    code, out, err = run(capsys, "reduce", "--in", str(src), "--out", str(out_path), "--trace", path)
    assert (code, out, err) == (2, "", message)
    assert parse_family(out_path.read_text()).size == 7


def test_search_to_an_unwritable_path_exits_2(tmp_path, capsys):
    path, message = _cannot_write(tmp_path)
    code, out, err = run(capsys, "search", "--k", "3", "--max-atoms", "2", "--max-size", "4",
                         "--output", path)
    assert (code, err) == (2, message)
    assert out == "outcome: FOUND (nodes expanded: 3)\nminimum size within bounds: 4\n"


# ------------------------------------------------------------ exit codes

def test_format_and_usage_errors(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert run(capsys, "verify", "--k", "3", "--in", str(missing))[0] == 3

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("universe 2\n5\n")
    code, _, err = run(capsys, "verify", "--k", "3", "--in", str(garbled))
    assert code == 3
    assert "format error" in err

    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify", "--k", "3")[0] == 2

    # domain errors surface as usage problems, not tracebacks
    h_file = tmp_path / "three.txt"
    run(capsys, "construct", "--kind", "three", "--out", str(h_file))
    code, _, err = run(capsys, "oracle", "--in", str(h_file), "--h", "1", "--k", "3")
    assert code == 2
    assert "error" in err


def test_undecodable_file_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"universe 2\n1 \xff\n")
    for command in (["verify", "--k", "2"], ["atoms"]):
        code, out, err = run(capsys, *command, "--in", str(path))
        assert code == 3
        assert out == ""
        assert err == "format error: line 2: byte 0xff is not valid UTF-8\n"


def test_unreadable_input_is_a_format_error_without_a_line(tmp_path, capsys):
    """Nothing was read, so the message names no line."""
    missing = tmp_path / "nope.txt"
    cases = ((missing, "No such file or directory"), (tmp_path, "Is a directory"))
    for command in (["verify", "--k", "3"], ["atoms"]):
        for path, reason in cases:
            code, out, err = run(capsys, *command, "--in", str(path))
            assert (code, out) == (3, "")
            assert err == f"format error: cannot read {path}: {reason}\n"


def test_crlf_file_verifies_as_its_lf_form(tmp_path, capsys):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    text = serialize_family(seven56())
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    outputs = [run(capsys, "verify", "--k", "7", "--in", str(path), "--json") for path in (lf, crlf)]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_construct_trivial_refuses_beyond_member_cap(monkeypatch, capsys):
    import spernersat.constructions as constructions_mod

    def no_compose(*factors):
        raise AssertionError("compose ran past the member cap")

    monkeypatch.setattr(constructions_mod, "compose", no_compose)
    code, out, err = run(capsys, "construct", "--kind", "trivial", "--k", "30")
    assert code == 5
    assert out == ""
    assert err == "capacity error: degree 30 needs 536870912 members (limit 2097152)\n"


@pytest.mark.parametrize("kind, k, message", [
    ("bootstrap", 14000, "degree 14000 needs 19596 atoms (limit 62); plan: j=2799 s=3"),
    ("bootstrap", 15000, "degree 15000 needs 20996 atoms (limit 62); plan: j=2999 s=3"),
    ("bootstrap", 10**21, f"degree {10**21} needs {10**21 + 4 * 10**20 - 4} atoms (limit 62); "
                          f"plan: j={2 * 10**20 - 1} s=3"),
    ("trivial", 10**21, f"degree {10**21} needs {10**21 - 2} atoms (limit 62)"),
])
def test_construct_refuses_any_degree_from_its_counts(capsys, kind, k, message):
    """Past the atom cap the refusal is one short line, at once: no member
    count, factor list or size that grows with k is formed."""
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "--kind", kind, "--k", str(k))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (5, "", f"capacity error: {message}\n")
    assert len(err.encode()) <= 200


def test_capacity_refusals_exit_5(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text("universe 29\nempty\nH\n")
    code, out, err = run(capsys, "verify", "--k", "2", "--in", str(wide))
    assert code == 5
    assert out == ""
    assert err == "capacity error: universe of size 29 is too large for the exhaustive scan\n"
    code, out, err = run(capsys, "reduce", "--in", str(wide))
    assert code == 5
    assert err == "capacity error: universe of size 29 is too large for the exhaustive scan\n"

    path = tmp_path / "seven56.txt"
    run(capsys, "construct", "--kind", "seven56", "--out", str(path))
    code, out, err = run(capsys, "oracle", "--in", str(path), "--h", "20", "--k", "7")
    assert code == 5
    assert out == ""
    assert err == "capacity error: ground set of size 27 exceeds the oracle limit 24\n"
    h = int("9" * 4300)  # the most digits Python reads as an int; 7 + h has one more
    code, out, err = run(capsys, "oracle", "--in", str(path), "--h", str(h), "--k", "7")
    assert (code, out) == (5, "")
    assert err == (f"capacity error: ground set of size <{(7 + h).bit_length()}-bit number> "
                   "exceeds the oracle limit 24\n")
    # an H block of one element is a usage error, not a capacity limit
    assert run(capsys, "oracle", "--in", str(path), "--h", "1", "--k", "7")[0] == 2


def test_compose_and_bounds_beyond_their_limits_exit_5(tmp_path, capsys):
    power = tmp_path / "power13.txt"
    run(capsys, "construct", "--kind", "trivial", "--k", "13", "--out", str(power))
    out_path = tmp_path / "composed.txt"
    code, out, err = run(capsys, "compose", "--a", str(power), "--b", str(power), "--out", str(out_path))
    assert code == 5
    assert err == "capacity error: composed family needs 8388608 members, limit is 2097152\n"
    assert not out_path.exists()

    for argv, need in ((["--k", str(10 ** 12)], "degree 1000000000000 needs 500000000000"),
                       (["--table", "7..20000"], "table 7..20000 needs 99999991"),
                       (["--threshold", "3000000"], "threshold scan up to 3000000 needs 2999994")):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 5
        assert out == ""
        assert err == f"capacity error: {need} layer terms (limit 2000000)\n"

    # numbers past 256 bits, k as well as the term count, are written by their bit length
    hi = int("9" * 3000)
    terms = (hi // 2) * ((hi + 1) // 2) - 3 * 3
    code, out, err = run(capsys, "bounds", "--table", f"7..{hi}")
    assert (code, out) == (5, "")
    assert err == (f"capacity error: table 7..<9966-bit number> needs <{terms.bit_length()}-bit number> "
                   f"layer terms (limit 2000000)\n")

    # the search's orbit check covers at most 8 atoms: a usage error, not a capacity limit
    code, _, err = run(capsys, "search", "--k", "4", "--max-atoms", "9", "--max-size", "8")
    assert code == 2
    assert "bad bounds: max_atoms must be in [0, 8]" in err
