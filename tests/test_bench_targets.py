"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
(module, attribute).  A deletion or rename in the package fails here at once
instead of only in the benchmark's much slower smoke run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [f"{module_name}.{attr}" for module_name, attr, *_ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module_name), attr, None))]
    assert missing == []
