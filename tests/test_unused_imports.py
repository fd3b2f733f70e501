"""No package module imports a name it never uses.  The package's
__init__.py imports to re-export and is left out."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spernersat"

# perfbench/test_smoke.py reads the binding spernersat.search.member_depths.
ALLOWED = {"search.member_depths"}


def unused_imports(source: str) -> list[str]:
    """The names a module binds by import and never loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_sees_a_dead_name():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]


def test_no_module_imports_a_name_it_never_uses():
    hits = {f"{path.stem}.{name}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
            for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert hits - ALLOWED == set()
