"""No package module imports a name it never uses, and no module-level
private name is left unreferenced.  The package's __init__.py imports to
re-export and is left out of the first check; its __all__ names exactly
what it imports."""

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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each private name (one leading underscore) that a
    module defines at its top level and no module of sources loads, reads
    as an attribute or imports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    return [f"{module}.{name}" for module, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in referenced]


def test_unused_imports_sees_a_dead_name():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]


def test_no_module_imports_a_name_it_never_uses():
    hits = {f"{path.stem}.{name}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
            for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert hits - ALLOWED == set()


def test_unreferenced_private_names_sees_a_dead_name():
    sources = {
        "a": "def _dead(): pass\ndef _called(): pass\n_called()\n_READ = 1\n_UNREAD: int = 2\n"
             "class _Base: pass\ndef __dir__(): pass\n",
        "b": "from a import _READ\nclass C(a._Base): pass\n",
    }
    assert unreferenced_private_names(sources) == ["a._dead", "a._UNREAD"]


def test_no_private_name_is_left_unreferenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def imports_and_exports(source: str) -> tuple[list[str], list[str]]:
    """The names a module binds by import at its top level, and the names
    its __all__ lists."""
    tree = ast.parse(source)
    imported, exported = [], []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            exported += ast.literal_eval(node.value)
    return imported, exported


def test_imports_and_exports_see_both_lists():
    source = "from a import b, c as d\nimport e\n__all__ = ['b', 'x']\n"
    assert imports_and_exports(source) == (["b", "d", "e"], ["b", "x"])


def test_all_names_exactly_what_the_package_imports():
    imported, exported = imports_and_exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(set(exported)) == len(exported)
    assert sorted(imported) == sorted(exported)
