"""The README's code blocks run as written."""

from pathlib import Path

from spernersat import parse_family

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
