"""Tests for the span/counter tracer."""

import pytest

from repro.obs.profile import render_counters, render_span_tree
from repro.obs.tracer import Tracer, maybe_span


class FakeClock:
    """Deterministic clock: each read advances one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        outer, first, second = tracer.spans
        assert outer.parent == -1 and outer.depth == 0
        assert first.parent == outer.index and first.depth == 1
        assert second.parent == outer.index
        assert tracer.children(outer.index) == [first, second]
        assert tracer.roots() == [outer]

    def test_durations_nest(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.duration > inner.duration > 0
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_self_time_excludes_children(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.spans[0]
        assert tracer.self_time(outer) == pytest.approx(
            outer.duration - tracer.spans[1].duration)

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert not tracer.spans[0].open
        assert tracer._stack == []

    def test_raising_span_is_tagged_error(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        span = tracer.spans[0]
        assert span.tags["status"] == "error"
        assert not span.open and span.duration > 0

    def test_error_tag_does_not_clobber_explicit_status(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing", status="expected"):
                raise ValueError("boom")
        assert tracer.spans[0].tags["status"] == "expected"

    def test_successful_span_has_no_status_tag(self):
        tracer = Tracer()
        with tracer.span("fine"):
            pass
        assert "status" not in tracer.spans[0].tags

    def test_tags_and_find(self):
        tracer = Tracer()
        with tracer.span("lower.modup", limbs=54):
            pass
        (span,) = tracer.find("lower.modup")
        assert span.tags == {"limbs": 54}

    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("kernels")
        tracer.count("kernels")
        tracer.count("bytes", 128.0)
        assert tracer.counters == {"kernels": 2.0, "bytes": 128.0}


class TestMaybeSpan:
    def test_none_tracer_is_noop(self):
        with maybe_span(None, "anything"):
            pass  # must not raise; nothing to record

    def test_real_tracer_records(self):
        tracer = Tracer()
        with maybe_span(tracer, "real"):
            pass
        assert [s.name for s in tracer.spans] == ["real"]


class TestRendering:
    def test_span_tree_aggregates_by_name(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("run"):
            for _ in range(3):
                with tracer.span("pass"):
                    pass
        art = render_span_tree(tracer)
        assert "run" in art
        assert "  pass" in art
        # Three same-named children collapse into one row with calls=3.
        (row,) = [line for line in art.splitlines() if "pass" in line]
        assert " 3" in row

    def test_empty_tracer_renders_placeholder(self):
        tracer = Tracer()
        assert "no spans" in render_span_tree(tracer)
        assert "no counters" in render_counters(tracer.counters)

    def test_counters_table(self):
        tracer = Tracer()
        tracer.count("ckks.batch_ntt.forward", 1234)
        art = render_counters(tracer.counters)
        assert "ckks.batch_ntt.forward" in art
        assert "1,234" in art

    def test_counters_table_widens_for_long_names(self):
        name = 'anaheim_kernels_total{device="gpu",category="automorphism"}'
        lines = render_counters({name: 80, "short": 1}).splitlines()
        assert lines[2].startswith(name + "  ")
        assert len({len(line) for line in lines}) == 1
