"""Tests for the tracing spans and the stopwatch primitive."""

import pytest

from repro.observability.tracing import (
    NOOP_TRACER,
    Stopwatch,
    Tracer,
)


class TestStopwatch:
    def test_context_manager_measures_elapsed(self):
        with Stopwatch() as watch:
            pass
        assert watch.elapsed >= 0.0

    def test_explicit_start_stop(self):
        watch = Stopwatch()
        watch.start()
        elapsed = watch.stop()
        assert elapsed == watch.elapsed >= 0.0

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()


class TestTracer:
    def test_single_span_recorded(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        stats = tracer.as_dict()["work"]
        assert stats["calls"] == 1
        assert stats["total_s"] >= 0.0

    def test_nested_spans_aggregate_by_path(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        assert tracer.as_dict()["outer"]["calls"] == 3
        assert "inner/outer" not in tracer.as_dict()
        assert tracer.as_dict()["outer/inner"]["calls"] == 3
        assert "outer/inner" in tracer.as_dict()
        assert sorted(tracer.as_dict()) == ["outer", "outer/inner"]

    def test_sibling_spans_do_not_nest(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert "second" in tracer.as_dict()
        assert "first/second" not in tracer.as_dict()

    def test_as_dict_shape(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        payload = tracer.as_dict()["a"]
        assert set(payload) >= {"calls", "total_s", "mean_s", "min_s", "max_s"}
        assert payload["calls"] == 1
        assert payload["min_s"] <= payload["mean_s"] <= payload["max_s"]

    def test_format_table_lists_every_path(self):
        tracer = Tracer()
        with tracer.span("alpha"):
            with tracer.span("beta"):
                pass
        table = tracer.format_table()
        assert "alpha" in table
        assert "alpha/beta" in table
        assert "calls" in table

    def test_exception_still_records_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        assert tracer.as_dict()["fails"]["calls"] == 1
        # The stack unwound: the next span is top-level again.
        with tracer.span("after"):
            pass
        assert "after" in tracer.as_dict()
        assert "fails/after" not in tracer.as_dict()


class TestMerge:
    def test_merge_tracer_adds_same_path_stats(self):
        main, worker = Tracer(), Tracer()
        with main.span("execute"):
            pass
        for _ in range(2):
            with worker.span("execute"):
                pass
        assert main.merge(worker) is main
        assert main.as_dict()["execute"]["calls"] == 3

    def test_merge_brings_in_new_paths(self):
        main, worker = Tracer(), Tracer()
        with worker.span("worker.only"):
            pass
        main.merge(worker)
        assert "worker.only" in main.as_dict()
        assert main.as_dict()["worker.only"]["calls"] == 1

    def test_merge_accepts_exported_dict(self):
        main = Tracer()
        main.merge(
            {"x": {"calls": 4, "total_s": 2.0, "min_s": 0.1, "max_s": 1.0}}
        )
        stats = main.as_dict()["x"]
        assert stats["calls"] == 4
        assert stats["total_s"] == pytest.approx(2.0)
        assert stats["min_s"] == pytest.approx(0.1)
        assert stats["max_s"] == pytest.approx(1.0)

    def test_merge_extends_min_max(self):
        main = Tracer()
        main.merge(
            {"x": {"calls": 1, "total_s": 0.5, "min_s": 0.5, "max_s": 0.5}}
        )
        main.merge(
            {"x": {"calls": 1, "total_s": 0.1, "min_s": 0.1, "max_s": 0.1}}
        )
        stats = main.as_dict()["x"]
        assert stats["calls"] == 2
        assert stats["min_s"] == pytest.approx(0.1)
        assert stats["max_s"] == pytest.approx(0.5)

    def test_zero_call_payload_ignored(self):
        main = Tracer()
        main.merge({"x": {"calls": 0, "total_s": 0.0}})
        # The path exists but carries no samples.
        assert main.as_dict()["x"]["calls"] == 0

    def test_merged_spans_survive_into_table(self):
        main, worker = Tracer(), Tracer()
        with worker.span("execution.engine.execute"):
            pass
        main.merge(worker)
        assert "execution.engine.execute" in main.format_table()


class TestNoopTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("invisible"):
            pass
        assert len(tracer) == 0

    def test_noop_span_is_shared(self):
        first = NOOP_TRACER.span("a")
        second = NOOP_TRACER.span("b")
        assert first is second

