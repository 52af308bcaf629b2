"""In-memory span recorder for the traced benchmark run.

A span covers one call into a layer: name, start, end, parent span and the
clustering call it belongs to. Counters (rows collected, DP runs, ...) are
recorded on the innermost open span, so a ratio is measured where the work
happens. When a ``jobs`` hook is given, every span runs its Spark jobs in a
job group of its own, and the hook reports how many jobs that group ran.

Self time is a span's duration minus the part of it that child spans cover;
the self times of one call's spans add up to the call's duration.
"""
from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    call: int | None
    start: float
    end: float = float("nan")
    jobs: int = 0
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "call": self.call,
            "start": self.start,
            "end": self.end,
            "jobs": self.jobs,
            "counts": dict(self.counts),
        }


class JobHook(Protocol):
    def enter(self, span: Span) -> None: ...

    def exit(self, span: Span, parent: Span | None) -> int: ...


class SparkJobGroups:
    """Attributes Spark jobs to spans through job groups.

    Jobs started while a span is the innermost open span carry that span's
    group id; ``statusTracker`` lists them when the span closes.
    """

    def __init__(self, sc):
        self.sc = sc

    @staticmethod
    def _group(span: Span) -> str:
        return f"perfbench-span-{span.id}"

    def enter(self, span: Span) -> None:
        self.sc.setJobGroup(self._group(span), span.name)

    def exit(self, span: Span, parent: Span | None) -> int:
        jobs = len(self.sc.statusTracker().getJobIdsForGroup(self._group(span)))
        if parent is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(self._group(parent), parent.name)
        return jobs


class Tracer:
    """Records spans while ``enabled``; a disabled tracer records nothing."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, jobs: JobHook | None = None):
        self.clock = clock
        self.jobs = jobs
        self.enabled = False
        self.call: int | None = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent else None,
            call=self.call,
            start=self.clock(),
        )
        self._stack.append(sp)
        if self.jobs:
            self.jobs.enter(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            if self.jobs:
                sp.jobs = self.jobs.exit(sp, parent)
            self.spans.append(sp)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` of the innermost open span."""
        if self.enabled and self._stack:
            self._stack[-1].counts[name] += n


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    spans = list(spans)
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(kids[s.id]):
            lo, hi = max(lo, reach, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    below: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        below[s.parent].append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(below[s.id])
    return out
