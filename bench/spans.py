"""Span recording and the arithmetic the benchmark reports from spans.

A span is one call into a layer: its name, start, end and the span that
was open when it began (its parent).  Spans are kept in memory and written
out once, when the run ends.  Nothing here imports the program under test,
so the arithmetic can be tested on its own (``test_spans.py``).
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict, namedtuple

# Percentiles considered for a timing's tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


class Span(namedtuple("Span", "name start end parent derived attrs")):
    """A finished span.  A tuple of plain values, so the garbage collector
    stops tracking it and a large trace adds nothing to the program's own
    collections."""

    __slots__ = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls.

    Calls nest: a span begun while another is open gets that one as its
    parent, and spans must end in the reverse order they began.  A
    *derived* span (``add``) is an interval made from two events, such as
    a training step running from ``zero_grad`` to the end of the optimizer
    step; it gets a parent but is never open, so no span is its child and
    it does not count as covering its parent's time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []   # None while a span is open
        self._open: list[tuple] = []          # (index, name, start, parent)

    def current(self) -> int | None:
        return self._open[-1][0] if self._open else None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self._open.append((idx, name, self.clock(), self.current()))
        self.spans.append(None)
        return idx

    def end(self, idx: int, **attrs) -> None:
        if not self._open or self._open[-1][0] != idx:
            raise RuntimeError(f"span {idx} ended out of order")
        _, name, start, parent = self._open.pop()
        self.spans[idx] = Span(name, start, self.clock(), parent, False, attrs)

    def add(self, name: str, start: float, end: float, parent=None, **attrs) -> None:
        self.spans.append(Span(name, start, end, parent, True, attrs))

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, kwargs, result)``
        may return attributes to store on the span."""
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, error=True)
                raise
            self.end(idx, **(after(args, kwargs, result) if after else {}))
            return result
        return traced


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------

def children(spans) -> dict:
    """Parent index -> indices of its non-derived child spans."""
    out = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None and not s.derived:
            out[s.parent].append(i)
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(spans, idx: int, kids=None) -> float:
    """A span's duration minus the part of it that its children cover."""
    kids = children(spans) if kids is None else kids
    s = spans[idx]
    return s.duration - covered([(spans[k].start, spans[k].end) for k in kids.get(idx, ())],
                                s.start, s.end)


def parent_name(spans, idx: int) -> str | None:
    p = spans[idx].parent
    return None if p is None else spans[p].name


def _rank(n: int, p: float) -> int:
    # The tolerance keeps 99.9% of 10,000 at rank 9,990, not 9,991.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule (p in (0, 100])."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    values = list(values)
    if not values:
        return {"n": 0}
    p = tail_percentile(len(values))
    out = {"n": len(values), "p50": statistics.median(values)}
    if p is not None:
        out["tail_p"] = p
        out["tail"] = nearest_rank(values, p)
    return out
