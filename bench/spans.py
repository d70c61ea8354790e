"""In-memory spans and per-span aggregates for the traced benchmark run.

A span records one call into a layer: name, start, end, parent span and the
trace id of the workload run. Calls too frequent for one span each (the
exchange objective and the SPD factorisations inside it) are aggregated per
enclosing span into a count, a summed busy time and the per-call durations.
Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace_id: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    """Calls of one kind made inside one span; `parent` names an enclosing aggregate."""

    name: str
    span: int
    parent: str | None
    durations: array = field(default_factory=lambda: array("d"))
    attrs: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.durations)

    @property
    def busy(self) -> float:
        return sum(self.durations)


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.aggregates: list[Aggregate] = []
        self._stack: list[Span] = []

    def add(self, name: str, start: float, end: float, parent: Span | None = None,
            **attrs) -> Span:
        """Record a span whose times were measured elsewhere (e.g. in a child process)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        sp = Span(len(self.spans), name, None if parent is None else parent.id,
                  self.trace_id, start, end, attrs)
        self.spans.append(sp)
        return sp

    @contextmanager
    def span(self, name: str, **attrs):
        sp = self.add(name, time.perf_counter(), float("nan"), **attrs)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def aggregate(self, name: str, span: Span, parent: str | None = None) -> Aggregate:
        agg = Aggregate(name, span.id, parent)
        self.aggregates.append(agg)
        return agg

    def subtree(self, root: Span) -> set[int]:
        ids = {root.id}
        for sp in self.spans:  # parents are always recorded before their children
            if sp.parent in ids:
                ids.add(sp.id)
        return ids

    def self_times(self, ids: set[int] | None = None) -> dict[str, float]:
        """Seconds per span or aggregate name not covered by its own children."""
        if ids is None:
            ids = {sp.id for sp in self.spans}
        covered: dict[int, float] = defaultdict(float)
        nested: dict[tuple[int, str], float] = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.duration
        for agg in self.aggregates:
            if agg.parent is None:
                covered[agg.span] += agg.busy
            else:
                nested[(agg.span, agg.parent)] += agg.busy
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            if sp.id in ids:
                out[sp.name] += sp.duration - covered[sp.id]
        for agg in self.aggregates:
            if agg.span in ids:
                out[agg.name] += agg.busy - nested[(agg.span, agg.name)]
        return dict(out)

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "spans": [{"id": s.id, "name": s.name, "parent": s.parent,
                       "trace_id": s.trace_id, "start": s.start, "end": s.end, **s.attrs}
                      for s in self.spans],
            "aggregates": [{"name": a.name, "span": a.span, "parent": a.parent,
                            "count": a.count, "busy_s": a.busy, **a.attrs}
                           for a in self.aggregates],
        }


def layer_of(name: str) -> str:
    """Layer of a span or aggregate name: the module before the first dot."""
    return name.split(".", 1)[0]
