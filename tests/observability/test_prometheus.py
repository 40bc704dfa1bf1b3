"""Tests for Prometheus text-format exposition."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.observability.metrics import MetricRegistry
from repro.observability.prometheus import (
    render_export,
    render_registry,
    sanitize_metric_name,
)


class TestSanitize:
    def test_dots_become_underscores(self):
        assert (
            sanitize_metric_name("service.first_answer_s")
            == "repro_service_first_answer_s"
        )

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("9lives") == "repro_9lives"

    def test_empty_rejected(self):
        with pytest.raises(ObservabilityError):
            sanitize_metric_name("   ")

    def test_hostile_characters_flattened(self):
        flat = sanitize_metric_name("breaker{v-1}.state")
        assert "{" not in flat and "-" not in flat


class TestRenderRegistry:
    def test_counter_gets_total_suffix(self):
        registry = MetricRegistry()
        registry.counter("plans.executed").inc(3)
        text = render_registry(registry)
        assert "# TYPE repro_plans_executed_total counter" in text
        assert "repro_plans_executed_total 3" in text

    def test_gauge(self):
        registry = MetricRegistry()
        registry.gauge("queue.depth").set(7.5)
        text = render_registry(registry)
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 7.5" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricRegistry()
        histogram = registry.histogram("latency_s", bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        text = render_registry(registry)
        lines = [
            line for line in text.splitlines()
            if line.startswith("repro_latency_s_bucket")
        ]
        # Bounds in ascending order, counts cumulative, +Inf last.
        assert lines[0] == 'repro_latency_s_bucket{le="0.1"} 1'
        assert lines[1] == 'repro_latency_s_bucket{le="1"} 3'
        assert lines[2] == 'repro_latency_s_bucket{le="10"} 4'
        assert lines[3] == 'repro_latency_s_bucket{le="+Inf"} 4'
        assert "repro_latency_s_count 4" in text
        assert "repro_latency_s_sum 6.05" in text

    def test_histogram_quantile_companions(self):
        registry = MetricRegistry()
        histogram = registry.histogram("latency_s")
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        text = render_registry(registry)
        assert 'repro_latency_s_quantile{quantile="0.50"}' in text
        assert 'repro_latency_s_quantile{quantile="0.90"}' in text
        assert 'repro_latency_s_quantile{quantile="0.99"}' in text

    def test_every_line_is_comment_or_sample(self):
        registry = MetricRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        registry.histogram("c").observe(0.5)
        for line in render_registry(registry).splitlines():
            assert line.startswith("# TYPE ") or " " in line


class TestRenderExport:
    def test_json_round_trip_keeps_bucket_order(self):
        """Alphabetical key order from sort_keys must not corrupt
        the cumulative bucket series ("le_10" sorts before "le_2.5")."""
        registry = MetricRegistry()
        histogram = registry.histogram("latency_s", bounds=(2.5, 10.0))
        for value in (1.0, 5.0, 50.0):
            histogram.observe(value)
        direct = render_registry(registry)
        round_tripped = render_export(
            json.loads(json.dumps(registry.as_dict(), sort_keys=True))
        )
        assert round_tripped == direct
        assert 'le="2.5"} 1' in round_tripped
        assert 'le="10"} 2' in round_tripped
        assert 'le="+Inf"} 3' in round_tripped

    def test_to_json_envelope_unwrapped(self):
        registry = MetricRegistry()
        registry.counter("requests").inc(2)
        envelope = json.loads(registry.to_json())
        assert "metrics" in envelope
        text = render_export(envelope)
        assert "repro_requests_total 2" in text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown kind"):
            render_export({"m": {"kind": "summary", "value": 1}})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ObservabilityError, match="not an object"):
            render_export({"m": 3})

    def test_infinity_rendered_prometheus_style(self):
        text = render_export({"m": {"kind": "gauge", "value": float("inf")}})
        assert "repro_m +Inf" in text
