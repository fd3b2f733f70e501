"""The README's code blocks run as written."""

import shlex
from dataclasses import fields
from pathlib import Path

from spernersat import canonical_decomposition, parse_family, serialize_family, seven56
from spernersat.cli import main
from spernersat.search import SearchCounts

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(heading: str) -> str:
    """The body of the first fenced block after the heading line."""
    rest = README[README.index(f"\n{heading}\n"):]
    start = rest.index("```")
    body = rest.index("\n", start) + 1
    return rest[body:rest.index("```", body)]


def test_family_format_example_parses():
    family = parse_family(block_after("### Family text format"))
    assert family.m == 7
    assert family.size == 4


def test_library_quick_tour_runs():
    exec(block_after("## Library quick tour"), {})


# what each comment in the CLI block promises, as a check of (exit code, stdout, stderr)
CLI_OUTCOMES = {
    "exit 0, layer table": lambda code, out, err: code == 0 and "  layer 6: size 1 " in out,
    "exit 1, WRONG_LAYER_COUNT": lambda code, out, err: code == 1 and "WRONG_LAYER_COUNT" in out,
    'prints "threshold: 497"': lambda code, out, err: code == 0 and "threshold: 497\n" in out,
    "SearchCounts on stderr": lambda code, out, err: code == 0 and (
        [line.split(":")[0] for line in err.splitlines()] == [f.name for f in fields(SearchCounts)]),
}


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Each line of the CLI block, run in order in an empty directory after
    writing the three inputs no line creates, does what its comment says, or
    exits 0 when it has none."""
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--kind", "three", "--out", "g.txt"]) == 0
    (tmp_path / "layer.txt").write_text(serialize_family(canonical_decomposition(seven56())[2]))
    (tmp_path / "concrete.txt").write_text("universe 5\n1 2\n3 4 5\n")
    lines = block_after("## CLI").splitlines()
    assert len(lines) == 12
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "spernersat", line
        capsys.readouterr()
        code = main(argv[1:])
        out, err = capsys.readouterr()
        check = CLI_OUTCOMES[comment.strip()] if comment else lambda code, out, err: code == 0
        assert check(code, out, err), (line, code, out, err)
