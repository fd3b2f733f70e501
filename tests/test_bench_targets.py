"""The benchmark reads package names in three places: its tracer
(perfbench/tracer.py) wraps package functions by (module, attribute), and
its workloads (perfbench/workloads.py) and smoke test
(perfbench/test_smoke.py) call and compare module attributes.  A deletion
or rename in the package fails here at once instead of only in the
benchmark's much slower smoke run."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = BENCH / "tracer.py"
READERS = ("workloads.py", "test_smoke.py")


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [f"{module_name}.{attr}" for module_name, attr, *_ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module_name), attr, None))]
    assert missing == []


def _package_paths(source: str) -> set[str]:
    """Every dotted spernersat name the source reads: each name its imports
    bind from the package, and each attribute chain read off such a name."""
    tree = ast.parse(source)
    bound = {}  # local name -> dotted package path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.partition(".")[0]
                if root == "spernersat":
                    bound[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "spernersat":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    paths = set(bound.values())
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in bound:
            paths.add(".".join([bound[base.id], *reversed(chain)]))
    return paths


def _resolves(path: str) -> bool:
    """Whether the dotted path names an object, importing submodules on the way."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_every_package_name_the_benchmark_reads_resolves():
    paths = set().union(*(_package_paths((BENCH / name).read_text()) for name in READERS))
    # the walk sees plain attribute reads, chains through the package and imported names
    assert {"spernersat.search.FOUND", "spernersat.search.member_depths",
            "spernersat.saturation.instantiate", "spernersat.family.Member"} <= paths
    assert sorted(path for path in paths if not _resolves(path)) == []


def test_an_unknown_package_name_does_not_resolve():
    paths = _package_paths("from spernersat import search\nsearch.no_such_name\n")
    assert paths == {"spernersat.search", "spernersat.search.no_such_name"}
    assert [_resolves(path) for path in sorted(paths)] == [True, False]
