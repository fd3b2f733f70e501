"""Every third-party module the tests import is declared in pyproject.toml,
as a dependency or in the test extra: `pip install -e ".[test]"` is all
the CI workflow installs, so an undeclared one fails there first."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def project_name(requirement: str) -> str:
    """The name a requirement string starts with, lower case, with each
    run of '-', '_' and '.' as one '_', the way an import name reads."""
    return re.sub(r"[-_.]+", "_", re.match(r"[A-Za-z0-9_.-]+", requirement)[0]).lower()


def test_imported_modules_sees_absolute_imports_only():
    source = "import os.path, numpy as np\nfrom a.b import c\nfrom . import d\n"
    assert imported_modules(source) == {"os", "numpy", "a"}
    assert project_name("Typing-Extensions>=4; python_version < '3.11'") == "typing_extensions"


def test_every_third_party_test_import_is_declared():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = set(map(project_name, requirements))
    sources = sorted((ROOT / "tests").rglob("*.py"))
    local = {path.stem for path in sources} | {project["name"]}
    imported = set().union(*(imported_modules(path.read_text()) for path in sources))
    undeclared = {name for name in imported - local - set(sys.stdlib_module_names)
                  if name.lower() not in declared}
    assert not undeclared, f"imported under tests/ but not declared in pyproject.toml: {sorted(undeclared)}"
