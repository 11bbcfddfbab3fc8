"""Tests of the benchmark's own arithmetic: span nesting, self time and
the choice of tail percentile.  Run with ``python3 -m pytest bench``."""

import pytest

from spans import (
    Tracer,
    beyond,
    children,
    covered,
    nearest_rank,
    parent_name,
    self_time,
    summarize,
    tail_percentile,
)


class FakeClock:
    """Advances one tick per reading, so every span has a known extent."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_calls_record_their_parent():
    tr = Tracer(FakeClock())
    inner = tr.wrap("inner", lambda: None)
    outer = tr.wrap("outer", lambda: (inner(), inner()))
    outer()
    inner()
    names = [(s.name, parent_name(tr.spans, i)) for i, s in enumerate(tr.spans)]
    assert names == [("outer", None), ("inner", "outer"), ("inner", "outer"), ("inner", None)]
    assert [(s.start, s.end) for s in tr.spans] == [(1, 6), (2, 3), (4, 5), (7, 8)]


def test_span_closes_when_the_call_raises():
    tr = Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("outer", tr.wrap("boom", boom))()
    assert [s.attrs for s in tr.spans] == [{"error": True}, {"error": True}]
    assert tr.current() is None
    tr.wrap("after", lambda: None)()
    assert tr.spans[-1].parent is None


def test_spans_must_end_in_reverse_order():
    tr = Tracer(FakeClock())
    a = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(a)


def test_after_hook_attributes_are_stored():
    tr = Tracer(FakeClock())
    tr.wrap("f", lambda xs: len(xs), after=lambda args, kwargs, result: {"n": result})([1, 2, 3])
    assert tr.spans[0].attrs == {"n": 3}


def test_derived_span_is_not_a_child_and_covers_nothing():
    tr = Tracer(FakeClock())
    outer = tr.begin("outer")              # starts at 1
    tr.add("step", 1.5, 3.5, tr.current())
    tr.wrap("call", lambda: None)()        # 2 .. 3
    tr.end(outer)                          # ends at 4
    assert children(tr.spans) == {0: [2]}
    assert tr.spans[1].parent == 0
    assert self_time(tr.spans, 0) == 3.0 - 1.0


def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 3), (4, 6)], 0, 10) == 4
    assert covered([(2, 3), (1, 6)], 0, 10) == 5         # one inside another
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4      # clipped at both ends
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    tr = Tracer(FakeClock())
    leaf = tr.wrap("leaf", lambda: None)
    tr.wrap("root", lambda: (leaf(), tr.wrap("mid", leaf)()))()
    # root 1..8, leaf 2..3, mid 4..7 holding leaf 5..6
    kids = children(tr.spans)
    assert [(s.name, s.start, s.end) for s in tr.spans] == [
        ("root", 1, 8), ("leaf", 2, 3), ("mid", 4, 7), ("leaf", 5, 6)]
    assert self_time(tr.spans, 0, kids) == 7 - 1 - 3     # grandchild not subtracted twice
    assert self_time(tr.spans, 2, kids) == 3 - 1
    assert self_time(tr.spans, 1, kids) == 1


def test_nearest_rank():
    values = list(range(1, 101))       # 1..100
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 99.9) == 100
    assert nearest_rank([7.0], 90) == 7.0
    assert nearest_rank([3, 1, 2], 50) == 2


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0          # 10 above the median
    assert tail_percentile(99) == 50.0          # only 9 above p90
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    for n in (20, 100, 1000, 10000, 12345):
        assert beyond(n, tail_percentile(n)) >= 10


def test_summarize_reports_count_median_and_tail():
    assert summarize([]) == {"n": 0}
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
    s = summarize(range(1, 101))
    assert (s["n"], s["p50"], s["tail_p"], s["tail"]) == (100, 50.5, 90.0, 90)


