"""In-memory span tracer that wraps the program's public entry points.

The benchmark times layers from outside the program: :class:`Tracer`
replaces selected attributes (methods on classes, functions on
modules) with wrappers that record one span per call, and puts every
original back on :meth:`Tracer.uninstall`.  No program code changes.

A span is ``(name, start, end, parent)``; ``parent`` is the index of
the span that was open when this one began (-1 at top level).  Spans
stay in memory until the run ends.  A span's *self time* is its
duration minus the part of it its direct children cover; calls are
single-threaded in the daemon process, so children nest strictly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanTotals:
    """Per-name aggregate over a span list."""

    calls: int = 0
    #: Inclusive time; a span nested inside a span of the same name is
    #: not counted twice.
    busy: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


def totals_by_name(spans: list[Span]) -> dict[str, SpanTotals]:
    """Calls and inclusive busy time per span name."""
    totals: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry.busy += span.duration
    return dict(totals)


def top_level_cover(spans: list[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by top-level spans."""
    covered = 0.0
    for span in spans:
        if span.parent < 0:
            covered += max(0.0, min(span.end, end) - max(span.start, start))
    return covered


def layer_self_time(spans: list[Span], prefixes: tuple[str, ...],
                    start: float, end: float) -> float:
    """Self time inside ``[start, end]`` of spans under ``prefixes``.

    Spans are clipped to the interval only as a whole (a span that
    starts outside it is skipped): every span the benchmark traces
    lies entirely inside or entirely outside the run window.
    """
    own = self_times(spans)
    return sum(
        own[index]
        for index, span in enumerate(spans)
        if span.start >= start and span.end <= end
        and span.name.startswith(prefixes)
    )


@dataclass
class Tracer:
    """Records spans around wrapped attributes; undoes every wrap."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    #: Free-form per-name tallies filled by wrap(count=...) hooks.
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def spanned(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped so every call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()

        traced.__wrapped__ = func
        return traced

    def wrap(self, owner: object, attr: str, name: str,
             count: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(counts, result, *args)`` is called after each call to
        tally work done (events, bytes) into :attr:`counts`.  Only an
        attribute defined on ``owner`` itself may be wrapped, so
        uninstall restores exactly what was there.
        """
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner!r} defines no attribute {attr!r}")
        # A classmethod is wrapped around its function and re-bound.
        descriptor = classmethod if isinstance(original, classmethod) else None
        func = original.__func__ if descriptor else original
        traced = self.spanned(name, func)
        replacement = traced
        if count is not None:
            counts = self.counts

            def replacement(*args, **kwargs):
                result = traced(*args, **kwargs)
                count(counts, result, *args)
                return result

            replacement.__wrapped__ = func
        self.patch(owner, attr,
                   descriptor(replacement) if descriptor else replacement)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` and remember the original for uninstall."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest wrap first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
