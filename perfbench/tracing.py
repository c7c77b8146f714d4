"""In-memory spans recorded around calls into tourbench, and their self times.

A span has a name, a start, an end and a parent. Spans inherit the trial id
of their parent, so all spans of one trial share it. Nothing is written until
the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _new(self, name: str, start: float, attrs: dict) -> Span:
        parent = self._open[-1] if self._open else None
        trial = attrs.pop("trial", parent.trial if parent is not None else None)
        span = Span(len(self.spans), name, start, start, parent.id if parent else None, trial, attrs)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._new(name, time.perf_counter(), attrs)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """A closed child span of the innermost open span."""
        self._new(name, start, attrs).end = end

    def generation_hook(self):
        """An ``on_generation`` hook that records each GA generation as a span.

        The first generation's span starts with the run_ga span, so it also
        covers building the initial population.
        """
        last = [self._open[-1].start if self._open else time.perf_counter()]

        def hook(generation: int, best_length: float) -> None:
            now = time.perf_counter()
            self.add("ga.generation", last[0], now, generation=generation)
            last[0] = now

        return hook

    def visit_hook(self, name: str):
        """An ``on_visit`` hook that records the time between visits as spans named ``name``."""
        last = [None]

        def hook(tour, length: float) -> None:
            now = time.perf_counter()
            if last[0] is not None:
                self.add(name, last[0], now)
            last[0] = now

        return hook


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[Span]) -> dict:
    """Per span name and per layer: count, total and self time in ms."""
    own = self_times(spans)
    by_name: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
    by_layer: dict[str, float] = defaultdict(float)
    for s in spans:
        row = by_name[s.name]
        row["count"] += 1
        row["total_ms"] += (s.end - s.start) * 1e3
        row["self_ms"] += own[s.id] * 1e3
        by_layer[layer_of(s.name)] += own[s.id] * 1e3
    return {"spans": dict(by_name), "layer_self_ms": dict(by_layer)}


def to_json(spans: list[Span]) -> list[dict]:
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {
            "id": s.id,
            "name": s.name,
            "start_ms": (s.start - t0) * 1e3,
            "end_ms": (s.end - t0) * 1e3,
            "parent": s.parent,
            "trial": s.trial,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in spans
    ]
