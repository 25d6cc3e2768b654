"""Span and counter recording for one benchmark pass.

A pass runs in one of three modes:

* ``off``: every hook is a no-op, so end-to-end timings carry no tracing cost;
* ``spans``: each call into a layer records a span (name, start, end,
  parent span, input id) plus size counters;
* ``memory``: spans are recorded as well, and ``tracemalloc`` runs only
  inside the spans asked to report a peak, so the ``.peak_mb`` figures come
  from these passes and the span timings from ``spans`` passes.

Spans stay in memory until the pass ends; ``summary`` turns them into self
times (a span's duration minus the time its child spans cover) summed per
span name.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    """Spans and counters of one pass; ``mode`` is off, spans or memory."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.on = mode != "off"
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str, item: int | None = None, peak: bool = False):
        if not self.on:
            return _NULL
        return self._span(name, item, peak and self.mode == "memory")

    @contextlib.contextmanager
    def _span(self, name: str, item: int | None, peak: bool):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, item))
        self._stack.append(index)
        if peak:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if peak:
                _, high = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), high / 2**20)
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, item)

    def count(self, name: str, value: float = 1) -> None:
        if self.on:
            self.counts[name] += value

    def ratio(self, name: str, numerator: float, denominator: float) -> None:
        """Accumulate a ratio as its two sums, divided once the pass ends."""
        self.count(name + "#num", numerator)
        self.count(name + "#den", denominator)

    def summary(self) -> dict:
        """Self time per span name, counters with ratios resolved, peaks."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            self_s[name] += (end - start) - inner
        values = {name + ".s": v for name, v in self_s.items()}
        for name, v in self.counts.items():
            if name.endswith("#num"):
                base = name[: -len("#num")]
                den = self.counts.get(base + "#den", 0.0)
                values[base] = v / den if den else 0.0
            elif not name.endswith("#den"):
                values[name] = v
        values.update({name + ".peak_mb": v for name, v in self.peaks.items()})
        return values

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "item": item}
            for name, start, end, parent, item in self.spans
        ]
