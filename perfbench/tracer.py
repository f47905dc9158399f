"""Spans and counters around the package's public functions.

The package binds its imports by name (``invariants`` calls its own
``build``, ``cli`` its own ``chroma_report``), so a wrapper replaces the
original in every ``jacograph`` module that holds it, and in
``SimpleGraph`` for the ``from_intervals`` class method.  Reference code
(``oracle``, ``verify``) is left alone: it is never timed.

A span is ``[name, start, end, parent, busy]``; ``busy`` is ``end -
start`` for a call.  ``construction_table`` is timed per resumption, and
its busy time is their sum, because the ``cli`` formatting that consumes
it between items belongs to ``cli``.  ``root_stream`` is one span from its
first resumption until it is closed: its consumer in the ``structure``
workload only collects the records, and timing about a million
resumptions a pass would cost more than the stream itself.  A layer's
self time is its busy time minus the busy time of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute)
TARGETS = {
    "incidence.parse": ("jacograph.incidence", "parse"),
    "builder.build": ("jacograph.builder", "build"),
    "builder.root_stream": ("jacograph.builder", "root_stream"),
    "builder.arcs": ("jacograph.builder", "arcs"),
    "invariants.jaconian": ("jacograph.invariants", "jaconian"),
    "invariants.hope_subgraph": ("jacograph.invariants", "hope_subgraph"),
    "invariants.component_decomposition": ("jacograph.invariants", "component_decomposition"),
    "invariants.smallest_with_max_degree": ("jacograph.invariants", "smallest_with_max_degree"),
    "invariants.construction_table": ("jacograph.invariants", "construction_table"),
    "chroma.from_intervals": ("jacograph.chroma", "SimpleGraph.from_intervals"),
    "chroma.chromatic_number": ("jacograph.chroma", "chromatic_number"),
    "chroma.min_sum_colouring": ("jacograph.chroma", "min_sum_colouring"),
    "chroma.chroma_report": ("jacograph.chroma", "chroma_report"),
    "braided.realize": ("jacograph.braided", "realize"),
    "cli": ("jacograph.cli", "main"),
}

_UNTIMED = ("jacograph.oracle", "jacograph.verify")


def _work_done(name: str, result) -> tuple[str, int] | None:
    """Work counted at a span's boundary: vertices built, arcs listed,
    interval-graph edges constructed."""
    if name == "builder.build":
        return "builder.build.vertices", result.n
    if name == "builder.arcs":
        return "builder.arcs.arcs", len(result)
    if name == "chroma.from_intervals":
        order = result.order
        return "chroma.from_intervals.edges", sum(result.interval_caps) - order * (order + 1) // 2
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def count(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[1], span[2], span[4] = t0, t1, t1 - t0
            work = _work_done(name, result)
            if work:
                self.counters[work[0]] += work[1]
            return result

        return wrapper

    def _wrap_stream(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            items = 0
            try:
                for item in inner:
                    items += 1
                    yield item
            finally:
                inner.close()
                span[2] = perf_counter()
                span[4] = span[2] - span[1]
                counters[name + ".items"] += items

        return wrapper

    def _wrap_resumptions(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = len(spans)
            span = [name, None, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            items = 0
            try:
                while True:
                    stack.append(sid)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        span[4] += t1 - t0
                        if span[1] is None:
                            span[1] = t0
                        span[2] = t1
                    items += 1
                    yield item
            finally:
                inner.close()
                counters[name + ".items"] += items

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "jacograph" or key.startswith("jacograph."))
                   and key not in _UNTIMED]
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                cls_method = classmethod(self._wrap_call(name, raw.__func__))
                setattr(cls, method, cls_method)
                self._undo.append((cls, method, raw))
                continue
            original = getattr(module, attr)
            if name == "builder.root_stream":
                wrap = self._wrap_stream
            elif inspect.isgeneratorfunction(original):
                wrap = self._wrap_resumptions
            else:
                wrap = self._wrap_call
            wrapper = wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Self time and call count per span name."""
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_busy[span[3]] += span[4]
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for sid, span in enumerate(self.spans):
            self_time[span[0]] += span[4] - child_busy[sid]
            calls[span[0]] += 1
        return self_time, calls

    def per_layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced.  A layer the workload
        never calls reads 0."""
        self_time, calls = self.layer_totals()
        c = self.counters

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        metrics = {}
        for name in TARGETS:
            if name != "builder.root_stream":
                metrics[name + ".self_s"] = (self_time[name], "s")
        for name in ("builder.build", "invariants.jaconian", "chroma.min_sum_colouring"):
            metrics[name + ".calls"] = (calls[name], "count")
        metrics["builder.build.vertices_per_s"] = (
            rate(c["builder.build.vertices"], self_time["builder.build"]), "1/s")
        metrics["builder.root_stream.records_per_s"] = (
            rate(c["builder.root_stream.items"], self_time["builder.root_stream"]), "1/s")
        metrics["builder.arcs.arcs_per_s"] = (
            rate(c["builder.arcs.arcs"], self_time["builder.arcs"]), "1/s")
        metrics["chroma.from_intervals.edges_per_s"] = (
            rate(c["chroma.from_intervals.edges"], self_time["chroma.from_intervals"]), "1/s")
        metrics["cli.output_mb_per_s"] = (
            rate(c["cli.output_bytes"] / 1e6, self_time["cli"]), "MB/s")
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
