"""Tests for the metric registry and its exporters."""

import json

import pytest

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)


class TestCounter:
    def test_inc_and_set(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.set(2)
        assert counter.value == 2

    def test_as_dict(self):
        counter = Counter("c")
        counter.inc(3)
        assert counter.as_dict() == {"kind": "counter", "value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_observe_updates_aggregates(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(5.0)
        assert histogram.mean == pytest.approx(5.0 / 3)
        assert histogram.min == 0.5
        assert histogram.max == 3.0
        assert histogram.bucket_counts == [1, 1, 1]

    def test_a_value_on_a_bound_counts_in_that_bucket(self):
        # Exposition labels a bucket ``le="1"``: less than or equal.
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.bucket_counts == [1, 0, 0]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_as_dict_buckets(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(0.5)
        histogram.observe(2.0)
        payload = histogram.as_dict()
        assert payload["buckets"] == {"le_1": 1, "le_inf": 1}
        assert payload["count"] == 2

    def test_empty_histogram_dict_has_zero_extremes(self):
        payload = Histogram("h").as_dict()
        assert payload["min"] == 0.0
        assert payload["max"] == 0.0
        assert payload["mean"] == 0.0


class TestHistogramQuantiles:
    def test_empty_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_out_of_range_rejected(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_estimate_clamped_to_observed_range(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        histogram.observe(2.0)
        histogram.observe(3.0)
        # The p99 bucket estimate would interpolate toward 10.0, but
        # nothing larger than 3.0 was ever observed.
        assert histogram.quantile(0.99) <= 3.0
        assert histogram.quantile(0.0) >= 2.0

    def test_overflow_bucket_reports_max(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(5.0)
        histogram.observe(7.0)
        assert histogram.quantile(0.99) == 7.0

    def test_median_on_uniform_sample(self):
        histogram = Histogram("h", bounds=(0.25, 0.5, 0.75, 1.0))
        for i in range(100):
            histogram.observe((i + 1) / 100.0)
        assert histogram.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        assert histogram.quantile(0.9) == pytest.approx(0.9, abs=0.05)

    def test_quantiles_monotone(self):
        histogram = Histogram("h")
        for i in range(50):
            histogram.observe(0.001 * (i + 1))
        p50, p90, p99 = (
            histogram.quantile(q) for q in (0.5, 0.9, 0.99)
        )
        assert p50 <= p90 <= p99

    def test_percentiles_in_as_dict(self):
        histogram = Histogram("h")
        histogram.observe(0.2)
        payload = histogram.as_dict()
        assert set(payload) >= {"p50", "p90", "p99"}
        assert payload["p50"] == histogram.quantile(0.5)


class TestMetricRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_mismatch_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_introspection(self):
        registry = MetricRegistry()
        counter = registry.counter("one")
        assert registry.get("one") is counter
        assert registry.get("two") is None

    def test_as_dict_sorted_by_name(self):
        registry = MetricRegistry()
        registry.counter("z").inc(1)
        registry.counter("a").inc(2)
        assert list(registry.as_dict()) == ["a", "z"]

    def test_to_json_with_extra_sections(self):
        registry = MetricRegistry()
        registry.counter("hits").inc(7)
        payload = json.loads(registry.to_json(extra={"algorithm": "greedy"}))
        assert payload["algorithm"] == "greedy"
        assert payload["metrics"]["hits"]["value"] == 7

    def test_write_json(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("n").inc(2)
        json_path = tmp_path / "metrics.json"
        registry.write_json(str(json_path), extra={"run": 1})
        payload = json.loads(json_path.read_text())
        assert payload["run"] == 1
        assert payload["metrics"]["n"]["value"] == 2


class TestMetricRegistryMerge:
    """The cross-shard aggregation primitive (mirrors Tracer.merge)."""

    def test_counters_sum(self):
        left, right = MetricRegistry(), MetricRegistry()
        left.counter("service.requests").inc(3)
        right.counter("service.requests").inc(4)
        right.counter("service.errors").inc(1)
        left.merge(right)
        assert left.counter("service.requests").value == 7
        assert left.counter("service.errors").value == 1
        # The source registry is untouched.
        assert right.counter("service.requests").value == 4

    def test_gauges_last_write_wins(self):
        left, right = MetricRegistry(), MetricRegistry()
        left.gauge("service.active").set(2)
        right.gauge("service.active").set(5)
        left.merge(right)
        assert left.gauge("service.active").value == 5

    def test_histograms_absorb_bucketwise(self):
        left, right = MetricRegistry(), MetricRegistry()
        for value in (0.001, 0.2):
            left.histogram("lat").observe(value)
        for value in (0.05, 3.0):
            right.histogram("lat").observe(value)
        left.merge(right)
        merged = left.histogram("lat")
        assert merged.count == 4
        assert merged.total == pytest.approx(0.001 + 0.2 + 0.05 + 3.0)
        assert merged.min == pytest.approx(0.001)
        assert merged.max == pytest.approx(3.0)
        # Bucket-wise sum: the merged counts are what one registry
        # observing all four values would have recorded.
        oracle = Histogram("lat")
        for value in (0.001, 0.2, 0.05, 3.0):
            oracle.observe(value)
        assert merged.bucket_counts == oracle.bucket_counts
        assert merged.as_dict() == oracle.as_dict()

    def test_merge_from_json_export_round_trip(self):
        """Cross-process shape: merge from a JSON-round-tripped export."""
        shard = MetricRegistry()
        shard.counter("service.completed").inc(9)
        shard.gauge("service.active").set(1)
        shard.histogram("service.total_s").observe(0.42)
        export = json.loads(json.dumps(shard.as_dict()))
        merged = MetricRegistry().merge(export).merge(export)
        assert merged.counter("service.completed").value == 18
        assert merged.gauge("service.active").value == 1
        histogram = merged.histogram("service.total_s")
        assert histogram.count == 2
        assert histogram.total == pytest.approx(0.84)
        assert histogram.bounds == shard.histogram("service.total_s").bounds

    def test_merge_custom_bounds_reconstructed(self):
        shard = MetricRegistry()
        shard.histogram("depth", bounds=(1.0, 2.5, 10.0)).observe(2.0)
        merged = MetricRegistry().merge(
            json.loads(json.dumps(shard.as_dict()))
        )
        assert merged.histogram("depth").bounds == (1.0, 2.5, 10.0)
        assert merged.histogram("depth").count == 1

    def test_merge_returns_self_for_chaining(self):
        registry = MetricRegistry()
        assert registry.merge(MetricRegistry()) is registry

    def test_kind_mismatch_raises(self):
        left, right = MetricRegistry(), MetricRegistry()
        left.counter("x").inc()
        right.gauge("x").set(1)
        with pytest.raises(TypeError):
            left.merge(right)

    def test_bucket_layout_mismatch_raises(self):
        left, right = MetricRegistry(), MetricRegistry()
        left.histogram("lat", bounds=(1.0,)).observe(0.5)
        right.histogram("lat", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            left.merge(right)

    @pytest.mark.parametrize(
        "export",
        [
            {"x": {"kind": "summary", "value": 1}},
            {"x": {"kind": "histogram", "count": 1, "buckets": {"lt_1": 1}}},
        ],
        ids=["unknown kind", "bad bucket key"],
    )
    def test_a_malformed_shard_export_is_refused(self, export):
        # The router merges what its workers send over a socket; a
        # refused export leaves nothing behind.
        registry = MetricRegistry()
        with pytest.raises(ValueError):
            registry.merge(export)
        assert registry.get("x") is None

    def test_merge_empty_histogram_keeps_min_max(self):
        left, right = MetricRegistry(), MetricRegistry()
        left.histogram("lat").observe(0.25)
        right.histogram("lat")  # registered, never observed
        left.merge(right)
        assert left.histogram("lat").count == 1
        assert left.histogram("lat").min == pytest.approx(0.25)
        assert left.histogram("lat").max == pytest.approx(0.25)
