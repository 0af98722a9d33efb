"""In-memory spans recorded around the benchmark's own calls into mindswap.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in the tracer's list, or -1, and ``op`` is the op id.
Counts are recorded at the same boundaries under their metric names.
Nothing is written until the run ends; ``self_times`` turns the spans into
each layer's self time, which is its duration minus the part its children
cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

Span = tuple[str, float, float, int, int]


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans and counts cost one call each and record nothing."""

    op_id = -1

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def add(self, key: str, amount: int = 1) -> None:
        return None


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer.stack.append(self.index)
        self.start = perf_counter()

    def __exit__(self, *exc: object) -> None:
        end = perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans[self.index] = (self.name, self.start, end, self.parent, tracer.op_id)


class Tracer:
    """Tracing on: keeps every span and count of the run in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op_id = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span, in span order."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def write_spans(path: Path, tracer: Tracer) -> None:
    """One JSON line per span: [name, start, end, parent, op]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
