"""In-memory spans for the benchmark's traced runs.

A span records one timed interval: its name, start and end (``perf_counter_ns``),
the index of the span that caused it, and the id of the op it belongs to.
Spans are recorded only at the benchmark's own call sites into gframes, so a
span around ``gframes.erasure.error_report`` covers the whole library call.
Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int


class Tracer:
    """Collects spans; ``span`` nests, ``wrap`` times every call of a function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            opened = self.spans[index]
            self.spans[index] = Span(opened.name, opened.start, time.perf_counter_ns(),
                                     opened.parent, opened.op)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def busy_by_name(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """Total self time (ns) and call count per span name."""
    totals: dict[str, tuple[int, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        busy, calls = totals.get(span.name, (0, 0))
        totals[span.name] = (busy + own, calls + 1)
    return totals
