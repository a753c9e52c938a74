"""In-memory span tracing around the library's public functions.

A ``Tracer`` replaces every binding of each traced function, including the
names other modules imported directly (``from .perms import
find_occurrence``), entries of module-level dicts (``cli._MAPS``) and the
``MultiPoly`` multiplication slots.  Each call records a span
``[name, start, end, parent, request]``; spans stay in memory until the
benchmark writes them out.  Nothing in the library changes on disk.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter


def _term_count(value) -> int:
    # MultiPoly.terms() sorts, which would double the traced time of expand;
    # the term dict gives the same count at no cost.  Plain ints count as 1.
    return len(value._terms) if hasattr(value, "_terms") else 1


def _expand_terms(table) -> int:
    return sum(_term_count(c) for c in table.coeffs)


# Span name -> (module, function names, {counter suffix: measure(result)}).
LAYERS = {
    "perms.find_occurrence": ("perms", ("find_occurrence",), {}),
    "perms.enumerate_class": ("perms", ("enumerate_class",), {"members": len}),
    "stats.stat_vector": ("stats", ("stat_vector",), {}),
    "verify.brute_distribution": ("verify", ("brute_distribution",), {}),
    "verify.check": (
        "verify",
        ("run_default_suite", "check_counts", "check_gf", "check_equidistribution_maps"),
        {},
    ),
    "polys.expand": ("polys", ("expand",), {"terms_out": _expand_terms}),
    "catalog.gf_for": ("catalog", ("gf_for",), {}),
    "bijections.map": ("bijections", ("complement_map", "transfer_map"), {}),
    "cli.main": ("cli", ("main",), {}),
}

ROOT = "bench.op"
MEASURE = "trace.measure"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, measures=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measures:
                # Counting happens in its own span so it is charged to no layer.
                start = clock()
                for suffix, measure in measures.items():
                    self.counts[f"{name}.{suffix}"] += measure(result)
                spans.append([MEASURE, start, clock(), parent, self.request])
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_mul(self, fn):
        counts = self.counts

        def counted(a, b):
            result = fn(a, b)
            if result is not NotImplemented:
                counts["polys.mul.calls"] += 1
                counts["polys.mul.term_products"] += _term_count(a) * _term_count(b)
            return result

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owner, key, old, new) -> None:
        if isinstance(owner, dict):
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded avoidpair modules."""
        from avoidpair import polys

        replacement = {}
        for name, (module, functions, measures) in LAYERS.items():
            owner = importlib.import_module(f"avoidpair.{module}")
            for fn_name in functions:
                fn = getattr(owner, fn_name)
                replacement[id(fn)] = (fn, self.wrap(name, fn, measures))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "avoidpair" or n.startswith("avoidpair.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in replacement and replacement[id(value)][0] is value:
                    self._replace(module, key, value, replacement[id(value)][1])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in replacement and replacement[id(v)][0] is v:
                            self._replace(value, k, v, replacement[id(v)][1])
        mul = vars(polys.MultiPoly)["__mul__"]
        counted = self._count_mul(mul)
        for slot in ("__mul__", "__rmul__"):
            if vars(polys.MultiPoly).get(slot) is mul:
                self._replace(polys.MultiPoly, slot, mul, counted)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters.

        Self time is a span's duration minus the time its direct children
        cover; the self times of all spans sum to the root spans' durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {"polys.mul.calls": 0, "polys.mul.term_products": 0}
        for name, (_, _, measures) in LAYERS.items():
            out.update({f"{name}.calls": 0, f"{name}.self_s": 0.0})
            out.update({f"{name}.{suffix}": 0 for suffix in measures})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - covered[i]
        out.update(self.counts)
        return out

    def write(self, fh, pass_index: int) -> None:
        """Append this tracer's spans as JSON lines tagged with ``pass_index``."""
        for i, (name, start, end, parent, request) in enumerate(self.spans):
            fh.write(json.dumps([pass_index, i, name, start, end, parent, request]) + "\n")
