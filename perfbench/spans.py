"""Spans around the benchmark's calls into actionlab, and per-layer totals.

A span records (name, start, end, parent, instance, peak bytes).  Spans are
kept in memory and written out when the run ends.  A layer's self time is the
duration of its spans minus the part their child spans cover; its peak is the
largest tracemalloc peak above the span's starting memory, children included.
tracemalloc slows allocation-heavy Python loops by up to an order of magnitude,
so times come from a pass without it and peaks from a separate pass with it.

The ``actionlab.network`` solvers are wrapped by replacing the module
attributes for the duration of the traced pass.  Callers look them up through
the module (and network.py through its own globals), so these spans nest under
whichever layer called them.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from time import perf_counter

from actionlab import network

LAYERS = (
    "grid",
    "measure_lp",
    "certificates",
    "convexify",
    "diagnostics",
    "control.build",
    "control.dp",
    "control.lp",
    "control.cert",
    "control.checks",
    "control.hjb",
    "serialize",
)
NETWORK_SPANS = {
    "karp_minimum_mean_cycle": "network.karp",
    "strongly_connected_components": "network.scc",
    "relax_to_fixpoint": "network.relax",
    "min_cost_flow": "network.mcf",
}
INSTANCE = "instance"
MB = 2.0**20


class Tracer:
    """Span recorder.  With ``memory`` set, each span also records its
    tracemalloc peak; the caller starts and stops tracemalloc."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent, instance, peak_bytes]
        self.instance: str | None = None
        self._stack: list[int] = []
        self._frames: list[list[int]] = []  # [memory at start, highest memory seen]

    def span(self, name: str):
        return self._memory_span(name) if self.memory else self._time_span(name)

    @contextmanager
    def _time_span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.instance, 0])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def _memory_span(self, name: str):
        cur, peak = tracemalloc.get_traced_memory()
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)
        tracemalloc.reset_peak()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._frames.append([cur, cur])
        self.spans.append([name, perf_counter(), 0.0, parent, self.instance, 0])
        try:
            yield
        finally:
            end = perf_counter()
            _cur, peak = tracemalloc.get_traced_memory()
            start_mem, highest = self._frames.pop()
            highest = max(highest, peak)
            self._stack.pop()
            self.spans[idx][2] = end
            self.spans[idx][5] = highest - start_mem
            if self._frames:
                self._frames[-1][1] = max(self._frames[-1][1], highest)
            tracemalloc.reset_peak()

    def layer_totals(self) -> dict:
        """Per span name: self seconds, calls and peak MB."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _inst, _peak in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict] = {}
        for i, (name, start, end, _parent, _inst, peak) in enumerate(self.spans):
            t = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "peak_mb": 0.0})
            t["self_s"] += (end - start) - child_time[i]
            t["calls"] += 1
            t["peak_mb"] = max(t["peak_mb"], peak / MB)
        return totals

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "instance": i, "peak_bytes": b}
            for n, s, e, p, i, b in self.spans
        ]


@contextmanager
def traced_network(tracer: Tracer):
    """Wrap each present ``actionlab.network`` solver in a span; restore after."""
    originals = {attr: getattr(network, attr) for attr in NETWORK_SPANS if hasattr(network, attr)}

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    for attr, fn in originals.items():
        setattr(network, attr, wrap(NETWORK_SPANS[attr], fn))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(network, attr, fn)
