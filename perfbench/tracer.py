"""In-memory span tracing around the public functions of each spernersat layer.

A traced pass replaces every module attribute that is bound to one of the
functions in TARGETS with a wrapper that records a span (name, start, end,
parent span, operation id) and updates the layer's counters.  The scan
covers each name the callers look a function up by: the defining module,
every module that bound it with `from ... import`, and the package
namespace.  `uninstall` puts the original objects back and checks that
every attribute is the original again.

Spans live in flat arrays while the pass runs and are written out (as a
compressed .npz) when the run ends.  Self times are derived from them: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter


def _count_members(tracer, args, kwargs, result, binding):
    tracer.counts["family.decompose_members"] += len(args[0].members)


def _count_chain_prunes(tracer, args, kwargs, result, binding):
    # only the search's chain check sees a depth beyond its k
    if binding == "spernersat.search" and len(result) and int(result.max()) > tracer.search_k:
        tracer.counts["search.chain_prunes"] += 1


def _count_scan_cells(tracer, args, kwargs, result, binding):
    tracer.counts["saturation.scan_cells"] += 1 << args[0].m


def _count_verdicts(tracer, args, kwargs, result, binding):
    if result.verdict:
        tracer.counts["saturation.verify_true"] += 1
    if binding == "spernersat.search":
        tracer.counts["search.leaves"] += 1


def _count_oracle_cells(tracer, args, kwargs, result, binding):
    tracer.counts["saturation.oracle_cells"] += 1 << args[0].n


def _count_members_built(tracer, args, kwargs, result, binding):
    tracer.counts["constructions.members_built"] += result.size


def _count_reduce_steps(tracer, args, kwargs, result, binding):
    tracer.counts["constructions.reduce_steps"] += len(result[1].steps)


def _count_nodes(tracer, args, kwargs, result, binding):
    tracer.counts["search.nodes"] += result.nodes


def _enter_search(tracer, args, kwargs):
    tracer.search_k = args[0].k


# (defining module, function, span name, counter hook after the call, hook before it)
TARGETS = [
    ("spernersat.family", "canonical_decomposition", "family.decompose", _count_members, None),
    ("spernersat.family", "member_depths", "family.depths", _count_chain_prunes, None),
    ("spernersat.family", "is_antichain", "family.antichain", None, None),
    ("spernersat.family", "parse_family", "family.parse", None, None),
    ("spernersat.family", "serialize_family", "family.serialize", None, None),
    ("spernersat.saturation", "is_saturated_antichain", "saturation.scan", _count_scan_cells, None),
    ("spernersat.saturation", "verify_saturated_k_sperner", "saturation.verify", _count_verdicts, None),
    ("spernersat.saturation", "brute_force_saturated", "saturation.oracle", _count_oracle_cells, None),
    ("spernersat.saturation", "instantiate", "saturation.instantiate", None, None),
    ("spernersat.constructions", "bootstrapped", "constructions.bootstrapped", None, None),
    ("spernersat.constructions", "compose", "constructions.compose", _count_members_built, None),
    ("spernersat.constructions", "reduce_antichain", "constructions.reduce", _count_reduce_steps, None),
    ("spernersat.search", "search_min", "search.search_min", _count_nodes, _enter_search),
    ("spernersat.bounds", "bound_table", "bounds.table", None, None),
    ("spernersat.bounds", "find_threshold", "bounds.threshold", None, None),
    ("spernersat.bounds", "sum_lower_bound", "bounds.sum_lower", None, None),
    ("spernersat.bounds", "erf_fn", "bounds.erf", None, None),
    ("spernersat.bounds", "erfc_fn", "bounds.erf", None, None),
    ("spernersat.cli", "main", "cli.main", None, None),
]

# Every per-layer metric, in the order BENCHMARK.json lists them:
# (name, unit, better).
PER_LAYER = [
    ("family.decompose_s", "s", "lower"),
    ("family.decompose_calls", "count", "lower"),
    ("family.decompose_members", "count", "lower"),
    ("family.depths_s", "s", "lower"),
    ("family.depths_calls", "count", "lower"),
    ("family.antichain_s", "s", "lower"),
    ("family.antichain_calls", "count", "lower"),
    ("family.parse_s", "s", "lower"),
    ("family.serialize_s", "s", "lower"),
    ("saturation.scan_s", "s", "lower"),
    ("saturation.scan_calls", "count", "lower"),
    ("saturation.scan_cells", "count", "lower"),
    ("saturation.verify_s", "s", "lower"),
    ("saturation.verify_calls", "count", "lower"),
    ("saturation.verify_true_ratio", "ratio", "higher"),
    ("saturation.oracle_s", "s", "lower"),
    ("saturation.oracle_calls", "count", "lower"),
    ("saturation.oracle_cells", "count", "lower"),
    ("saturation.instantiate_s", "s", "lower"),
    ("saturation.agree_ratio", "ratio", "higher"),
    ("constructions.bootstrapped_s", "s", "lower"),
    ("constructions.compose_s", "s", "lower"),
    ("constructions.compose_calls", "count", "lower"),
    ("constructions.members_built", "count", "lower"),
    ("constructions.reduce_s", "s", "lower"),
    ("constructions.reduce_calls", "count", "lower"),
    ("constructions.reduce_steps", "count", "lower"),
    ("search.total_s", "s", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("search.chain_prunes", "count", "lower"),
    ("search.leaves", "count", "lower"),
    ("bounds.table_s", "s", "lower"),
    ("bounds.threshold_s", "s", "lower"),
    ("bounds.sum_lower_s", "s", "lower"),
    ("bounds.sum_lower_calls", "count", "lower"),
    ("bounds.erf_calls", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.nested = array("b")   # an ancestor span has the same name
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self.search_k = 0
        self._bindings: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, func, span: str, after, before, binding: str):
        name_id = self.name_id(span)
        calls = span + "_calls"
        stack = self._stack
        open_names = self._open_names

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.nested.append(1 if open_names[name_id] else 0)
            self.end.append(0.0)
            stack.append(index)
            open_names[name_id] += 1
            self.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
                open_names[name_id] -= 1
            self.counts[calls] += 1
            if after is not None:
                after(self, args, kwargs, result, binding)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every spernersat module attribute bound to a TARGETS function."""
        for module_name, attr, span, after, before in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            for binding, module in list(sys.modules.items()):
                if module is None or not (binding == "spernersat" or binding.startswith("spernersat.")):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, self._wrap(original, span, after, before, binding))
                        self._bindings.append((module, name, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raise if one is not the original."""
        for module, name, original in self._bindings:
            setattr(module, name, original)
        stale = [f"{module.__name__}.{name}" for module, name, original in self._bindings
                 if getattr(module, name) is not original]
        self._bindings.clear()
        if stale:
            raise RuntimeError(f"traced attributes not restored: {', '.join(stale)}")

    def arrays(self):
        import numpy as np
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "nested": np.array(self.nested, dtype=np.int8),
        }

    def save(self, path) -> None:
        import numpy as np
        np.savez_compressed(path, **self.arrays())

    def span_totals(self) -> dict[str, tuple[float, float]]:
        """Per span name: (time in outermost spans, summed self time)."""
        import numpy as np
        a = self.arrays()
        duration = a["end"] - a["start"]
        children = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(children, a["parent"][has_parent], duration[has_parent])
        own = duration - children
        outermost = a["nested"] == 0
        totals = {}
        for name_id, name in enumerate(self.names):
            mine = a["name"] == name_id
            totals[name] = (float(duration[mine & outermost].sum()), float(own[mine].sum()))
        return totals


def _ratio(num: float, den: float) -> float:
    # 0/0 reads as 0; the matching count says whether the ratio is defined
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_counts: Counter) -> dict[str, float]:
    """Per-layer values of one traced pass (trace.* excepted)."""
    totals = tracer.span_totals()
    counts = tracer.counts

    def total(span):
        return totals.get(span, (0.0, 0.0))[0]

    def self_time(span):
        return totals.get(span, (0.0, 0.0))[1]

    search_s = total("search.search_min")
    return {
        "family.decompose_s": total("family.decompose"),
        "family.decompose_calls": counts["family.decompose_calls"],
        "family.decompose_members": counts["family.decompose_members"],
        "family.depths_s": total("family.depths"),
        "family.depths_calls": counts["family.depths_calls"],
        "family.antichain_s": total("family.antichain"),
        "family.antichain_calls": counts["family.antichain_calls"],
        "family.parse_s": total("family.parse"),
        "family.serialize_s": total("family.serialize"),
        "saturation.scan_s": total("saturation.scan"),
        "saturation.scan_calls": counts["saturation.scan_calls"],
        "saturation.scan_cells": counts["saturation.scan_cells"],
        "saturation.verify_s": total("saturation.verify"),
        "saturation.verify_calls": counts["saturation.verify_calls"],
        "saturation.verify_true_ratio": _ratio(counts["saturation.verify_true"],
                                               counts["saturation.verify_calls"]),
        "saturation.oracle_s": total("saturation.oracle"),
        "saturation.oracle_calls": counts["saturation.oracle_calls"],
        "saturation.oracle_cells": counts["saturation.oracle_cells"],
        "saturation.instantiate_s": total("saturation.instantiate"),
        "saturation.agree_ratio": _ratio(pass_counts["agreements"], pass_counts["comparisons"]),
        "constructions.bootstrapped_s": total("constructions.bootstrapped"),
        "constructions.compose_s": total("constructions.compose"),
        "constructions.compose_calls": counts["constructions.compose_calls"],
        "constructions.members_built": counts["constructions.members_built"],
        "constructions.reduce_s": total("constructions.reduce"),
        "constructions.reduce_calls": counts["constructions.reduce_calls"],
        "constructions.reduce_steps": counts["constructions.reduce_steps"],
        "search.total_s": search_s,
        "search.self_s": self_time("search.search_min"),
        "search.nodes": counts["search.nodes"],
        "search.nodes_per_s": _ratio(counts["search.nodes"], search_s),
        "search.chain_prunes": counts["search.chain_prunes"],
        "search.leaves": counts["search.leaves"],
        "bounds.table_s": total("bounds.table"),
        "bounds.threshold_s": total("bounds.threshold"),
        "bounds.sum_lower_s": total("bounds.sum_lower"),
        "bounds.sum_lower_calls": counts["bounds.sum_lower_calls"],
        "bounds.erf_calls": counts["bounds.erf_calls"],
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "cli.output_bytes": pass_counts["output_bytes"],
        "trace.spans": len(tracer.start),
    }
