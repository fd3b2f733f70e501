"""Exact bytes of the CLI's JSON documents.

The expected documents were captured from the CLI and are compared byte for
byte: key order, float spelling, nulls and indentation.  They cover what
the golden digests do not: false verdicts with witnesses, single-k bound
reports on both sides of k = 7 and past the point where sum_lower is inf,
and the atom classes of a concrete family.  Documents too long to inline
are pinned by their SHA-256.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spernersat.bounds import find_threshold
from spernersat.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_same_text(out: str, expected: str) -> None:
    """out == expected, or a failure naming the first line that differs:
    pytest's own diff of two long strings can run for minutes."""
    if out == expected:
        return
    got, want = out.splitlines(keepends=True), expected.splitlines(keepends=True)
    line = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                min(len(got), len(want)))
    pytest.fail(f"line {line + 1} of {len(got)} (expected {len(want)}): "
                f"{got[line] if line < len(got) else '<end>'!r} != "
                f"{want[line] if line < len(want) else '<end>'!r}", pytrace=False)


# Three layers where four are asked for; layers 1 and 2 are not saturated.
FAILING_FAMILY = "universe 3\nempty\n1\n2 3\n1 2 H\n"

VERIFY_FAILING = """\
{
  "schema_version": 1,
  "verdict": false,
  "k": 4,
  "layer_count": 3,
  "layers": [
    {
      "index": 0,
      "size": 1,
      "small": 1,
      "large": 0,
      "antichain": true,
      "saturated": true,
      "witness": null
    },
    {
      "index": 1,
      "size": 2,
      "small": 2,
      "large": 0,
      "antichain": true,
      "saturated": false,
      "witness": []
    },
    {
      "index": 2,
      "size": 1,
      "small": 0,
      "large": 1,
      "antichain": true,
      "saturated": false,
      "witness": [
        3
      ]
    }
  ],
  "reasons": [
    {
      "code": "WRONG_LAYER_COUNT",
      "layer": null,
      "witness": null
    },
    {
      "code": "LAYER_NOT_SATURATED",
      "layer": 1,
      "witness": []
    },
    {
      "code": "LAYER_NOT_SATURATED",
      "layer": 2,
      "witness": [
        3
      ]
    }
  ]
}
"""

BOUNDS_K6 = """\
{
  "schema_version": 1,
  "k": 6,
  "baseline_lower_log2": 2.5,
  "j": 0,
  "s": 4,
  "upper_log2": 5.0,
  "eps_new": 0.03852901558847921,
  "eps_mns": 0.023277351097870325,
  "layer_bounds_log2": null,
  "sum_lower": null,
  "sum_lower_log2": null,
  "erf_lower_log2": null,
  "claimed_lower_log2_166": null,
  "claimed_lower_log2": null,
  "margins": {
    "upper_vs_eps": 0.7688259064691252,
    "erf_vs_166": null,
    "erf_vs_497": null
  }
}
"""

BOUNDS_K7 = """\
{
  "schema_version": 1,
  "k": 7,
  "baseline_lower_log2": 3.0,
  "j": 1,
  "s": 0,
  "upper_log2": 5.807354922057604,
  "eps_new": 0.03852901558847921,
  "eps_mns": 0.023277351097870325,
  "layer_bounds_log2": {
    "2": 2.6666666666666665,
    "3": 3.0
  },
  "sum_lower": 34.699208415745595,
  "sum_lower_log2": 5.116830846229676,
  "erf_lower_log2": 3.2507642849041414,
  "claimed_lower_log2_166": 3.2436774610288017,
  "claimed_lower_log2": 4.903677461028802,
  "margins": {
    "upper_vs_eps": 0.922941968823042,
    "erf_vs_166": 0.007086823875339654,
    "erf_vs_497": -1.6529131761246605
  }
}
"""

# Classes {1, 2} and {3, 4} are homogeneous; 5 is a singleton class.
CONCRETE_FAMILY = "universe 5\n1 2\n3 4 5\n1 2 3 4\n"

ATOMS_CLASSES = """\
{
  "schema_version": 1,
  "n": 5,
  "classes": [
    [
      1,
      2
    ],
    [
      3,
      4
    ],
    [
      5
    ]
  ],
  "homogeneous": [
    [
      1,
      2
    ],
    [
      3,
      4
    ]
  ]
}
"""


def test_verify_json_bytes_of_a_false_verdict_with_witnesses(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text(FAILING_FAMILY)
    code, out = run(capsys, "verify", "--k", "4", "--in", str(path), "--json")
    assert code == 1
    assert_same_text(out, VERIFY_FAILING)


def test_bounds_json_bytes_below_k7_have_a_null_lower_side(capsys):
    code, out = run(capsys, "bounds", "--k", "6", "--json")
    assert code == 0
    assert_same_text(out, BOUNDS_K6)


def test_bounds_json_bytes_at_k7(capsys):
    code, out = run(capsys, "bounds", "--k", "7", "--json")
    assert code == 0
    assert_same_text(out, BOUNDS_K7)


def test_bounds_json_bytes_where_sum_lower_is_infinite(capsys):
    code, out = run(capsys, "bounds", "--k", "2100", "--json")
    assert code == 0
    assert_same_text(out, (DATA / "bounds_k2100.json").read_text())
    assert '  "sum_lower": null,\n' in out


def test_bounds_json_digests_of_a_table_and_a_wide_report(capsys):
    # pinned independently of to_json_dict, the code path that writes them
    for argv, digest in (
        (("--table", "7..300"), "eae64524ef6a78530aaf022c846964345bbc5231e03159aaa21cf2910de31e9a"),
        (("--k", "2000"), "a35d257c76491ff861952045fbd474b07b9d59b7115349c8750130df5a4fe8df"),
    ):
        code, out = run(capsys, "bounds", *argv, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_threshold_json_is_streamed_with_the_bytes_of_one_dump(capsys):
    code, out = run(capsys, "bounds", "--threshold", "60", "--json")
    assert code == 1
    assert_same_text(out, json.dumps(find_threshold(60).to_json_dict(), indent=2) + "\n")


def test_atoms_json_bytes_with_two_homogeneous_classes_and_a_singleton(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text(CONCRETE_FAMILY)
    code, out = run(capsys, "atoms", "--in", str(path), "--json")
    assert code == 0
    assert_same_text(out, ATOMS_CLASSES)
