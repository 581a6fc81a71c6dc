"""Lightweight wall-clock span tracer.

The tracer records *wall-clock* spans of the reproduction's own code
(lowering passes, scheduling, device dispatch) — as opposed to the
*simulated* timeline a :class:`~repro.core.scheduler.ScheduleReport`
describes.  Both can be exported as Chrome trace events
(:mod:`repro.obs.export`).

In the modeling pipeline the tracer only times; every count of a
modeled event (kernels, transitions, costings, DRAM bytes, PIM
activations) lives once, in :class:`~repro.obs.metrics.MetricsRegistry`.
:meth:`Tracer.count` remains for the numeric engine, whose module-level
hook (:mod:`repro.ckks.instrument`) feeds the engine counters.

Instrumentation is opt-in.  The objects that take ``tracer=None`` are
:class:`~repro.core.framework.AnaheimFramework`, lowering and the plain
:class:`~repro.core.scheduler.Scheduler` dispatch.  Call sites guard
with a single ``is None`` check (or equivalently :func:`maybe_span`),
so the default path pays one branch per site and records nothing.  The
serving, fault and RAS layers record only into the registry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed region.  ``parent`` indexes ``Tracer.spans`` (-1 = root)."""

    name: str
    index: int
    parent: int
    depth: int
    start: float
    end: float = 0.0
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def open(self) -> bool:
        return self.end == 0.0 and self.start != 0.0


class Tracer:
    """Collects nested spans and named counters.

    Spans are stored flat, in start order, with parent indices — cheap
    to record, trivial to rebuild into a tree afterwards.  Counters are
    a plain ``{name: value}`` accumulator that only the numeric
    engine's hook writes (NTT calls, cache hits and misses).
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._clock = clock
        self._stack: list[int] = []
        self._origin = clock()

    # -- Recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **tags):
        """Time a region; nests under the innermost open span.

        A raising body still closes the span (the ``finally``) and tags
        it ``status=error`` — so an aborted run's trace shows *where*
        it died instead of a forever-open span with no end time.
        """
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name=name, index=index, parent=parent,
                      depth=len(self._stack),
                      start=self._clock() - self._origin, tags=tags)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record.tags.setdefault("status", "error")
            raise
        finally:
            self._stack.pop()
            record.end = self._clock() - self._origin

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    # -- Introspection ------------------------------------------------------

    def children(self, index: int) -> list:
        return [s for s in self.spans if s.parent == index]

    def roots(self) -> list:
        return [s for s in self.spans if s.parent == -1]

    def self_time(self, span: Span) -> float:
        """Span duration minus the time spent in direct children."""
        return span.duration - sum(c.duration
                                   for c in self.children(span.index))

    def total_time(self) -> float:
        return sum(s.duration for s in self.roots())

    def find(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]


def maybe_span(tracer, name: str, **tags):
    """``tracer.span(...)`` when tracing, a no-op context otherwise."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **tags)
