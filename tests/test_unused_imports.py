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


# Public functions that no package module calls or imports, each with why it
# stays; every other function of __all__ has a caller under src/spernersat.
UNCALLED_PUBLIC = {
    "bracket_factor": "the paper's bound criterion: the layer sum beats sqrt(k) 2^(k/2) when it exceeds 1",
    "canonical_decomposition": "README API: a family's layers as Family objects",
    "layer_lower_bound": "the paper's per-layer lemma, 2^(2i(k-i-1)/(k-1))",
    "canonical_form": "isomorphism tests of optima found by other routes, and the reference for a form past 8 atoms",
    "complement_family": "builds F o F^c, the composition of a family with its complement",
    "eps_of": "the per-layer lemma check",
    "expected_hits": "the per-layer lemma check",
    "is_antichain": "perfbench/tracer.py wraps it by name",
    "sum_lower_bound": "perfbench/tracer.py wraps it by name",
}


def uncalled_functions(sources: dict[str, str], exported: list[str]) -> list[str]:
    """The names of exported that some module of sources defines as a
    top-level function and that no module loads, reads as an attribute or
    imports outside that function's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {node.name: node for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    own = {name: {id(inner) for inner in ast.walk(node)} for name, node in defined.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            used.update(name for name in names if id(node) not in own.get(name, ()))
    return [name for name in exported if name in defined and name not in used]


def test_uncalled_functions_sees_a_dead_name():
    sources = {
        "a": "def dead(): return dead()\ndef called(): pass\ndef imported(): pass\n"
             "def read(): pass\ndef user(): return called()\nCONST = 1\n",
        "b": "import a\nfrom a import imported\nf = a.read\n",
    }
    exported = ["dead", "called", "imported", "read", "user", "CONST"]
    assert uncalled_functions(sources, exported) == ["dead", "user"]


def test_every_public_function_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    _, exported = imports_and_exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(uncalled_functions(sources, exported)) == sorted(UNCALLED_PUBLIC)


# Methods and properties of the classes of __all__ that no package module
# calls or reads, each with why it stays; every other one has a caller
# under src/spernersat.
UNCALLED_PUBLIC_METHODS = {
    "Member.atom_count": "perfbench/workloads.py reads it in its own reduction checks",
    "ReductionTrace.replay": "README API: the trace is replayable; perfbench/workloads.py replays every reduction",
}


def public_methods(trees, exported: list[str]) -> list[tuple[str, ast.FunctionDef]]:
    """(class name, def) for each method or property, save dunders, of a
    class of exported defined at the top level of one of the trees."""
    return [(cls.name, node) for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name in exported
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def uncalled_methods(sources: dict[str, str], exported: list[str]) -> list[str]:
    """Class.name for each method or property of public_methods that no
    module of sources reads as an attribute outside that method's own body."""
    trees = [ast.parse(source) for source in sources.values()]
    methods = public_methods(trees, exported)
    reads = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    out = []
    for cls, method in methods:
        own = {id(inner) for inner in ast.walk(method)}
        if not any(node.attr == method.name and id(node) not in own for node in reads):
            out.append(f"{cls}.{method.name}")
    return out


def test_uncalled_methods_sees_a_dead_name():
    sources = {
        "a": "class C:\n    def dead(self): return self.dead()\n    def called(self): pass\n"
             "    @property\n    def read(self): pass\n    def _private(self): pass\n"
             "    def __str__(self): return ''\n"
             "class D:\n    def hidden(self): pass\n",
        "b": "from a import C\nC().called()\nx = C().read\n",
    }
    assert uncalled_methods(sources, ["C"]) == ["C.dead", "C._private"]


def test_every_public_method_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    _, exported = imports_and_exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(uncalled_methods(sources, exported)) == sorted(UNCALLED_PUBLIC_METHODS)


# Method and property names that two or more classes of __all__ define, each
# with why it is shared.  uncalled_methods matches a read by its attribute
# name alone, so a read of one such name counts for every class that has it,
# and a dead one hides behind the others.
SHARED_METHOD_NAMES = {
    "describe": "TraceStep, ReductionTrace and Reason each print their own line(s); "
                "ReductionTrace.describe joins its steps', and cli.py prints the other two",
}


def shared_method_names(sources: dict[str, str], exported: list[str]) -> list[str]:
    """The names of public_methods that two or more classes define, sorted."""
    methods = public_methods([ast.parse(source) for source in sources.values()], exported)
    owners: dict[str, set[str]] = {}
    for cls, method in methods:
        owners.setdefault(method.name, set()).add(cls)
    return sorted(name for name, classes in owners.items() if len(classes) > 1)


def test_shared_method_names_sees_a_name_two_classes_define():
    sources = {
        "a": "class C:\n    @property\n    def size(self): pass\n    def own(self): pass\n"
             "    def __len__(self): return 0\n",
        "b": "class D:\n    @property\n    def size(self): pass\n    def __len__(self): return 0\n"
             "class E:\n    def own(self): pass\n",
    }
    assert shared_method_names(sources, ["C", "D"]) == ["size"]
    assert shared_method_names(sources, ["C", "D", "E"]) == ["own", "size"]


def test_every_shared_method_name_is_listed():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    _, exported = imports_and_exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert shared_method_names(sources, exported) == sorted(SHARED_METHOD_NAMES)
