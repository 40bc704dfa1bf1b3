"""Tests for the per-source EWMA health tracker."""

import threading

import pytest

from repro.observability.metrics import MetricRegistry
from repro.resilience.health import SourceHealthTracker


class TestRecording:
    def test_first_observation_initializes_the_average(self):
        tracker = SourceHealthTracker()
        tracker.record_failure("v1")
        assert tracker.failure_rate("v1") == pytest.approx(1.0)
        tracker2 = SourceHealthTracker()
        tracker2.record_success("v1")
        assert tracker2.failure_rate("v1") == pytest.approx(0.0)

    def test_ewma_update_is_recency_biased(self):
        tracker = SourceHealthTracker()
        tracker.record_failure("v1")  # ewma = 1.0
        tracker.record_success("v1")  # 1.0 + 0.2 * (0 - 1.0) = 0.8
        assert tracker.failure_rate("v1") == pytest.approx(0.8)
        tracker.record_success("v1")  # 0.64
        assert tracker.failure_rate("v1") == pytest.approx(0.64)

    def test_counts_and_snapshot(self):
        tracker = SourceHealthTracker()
        tracker.record_success("v1")
        tracker.record_failure("v1")
        tracker.record_failure("v2")
        health = tracker.health("v1")
        assert health.successes == 1
        assert health.failures == 1
        assert health.observations == 2
        snapshot = tracker.snapshot()
        assert set(snapshot) == {"v1", "v2"}
        assert snapshot["v2"].failures == 1
        assert tracker.health("unknown") is None
        payload = health.as_dict()
        assert payload["source"] == "v1"
        assert payload["observations"] == 2


class TestQueries:
    def test_min_observations_floor(self):
        tracker = SourceHealthTracker()
        tracker.record_failure("v1")
        assert tracker.failure_rate("v1", min_observations=3) is None
        tracker.record_failure("v1")
        tracker.record_failure("v1")
        assert tracker.failure_rate("v1", min_observations=3) == pytest.approx(
            1.0
        )

    def test_unknown_source_has_no_rate(self):
        tracker = SourceHealthTracker()
        assert tracker.failure_rate("ghost") is None
        assert tracker.observations("ghost") == 0


class TestRegistryExport:
    def test_gauges_mirror_the_cells(self):
        registry = MetricRegistry()
        tracker = SourceHealthTracker(registry=registry)
        tracker.record_failure("v1")
        tracker.record_success("v1")
        metrics = registry.as_dict()
        assert metrics["resilience.health.v1.failure_rate"]["value"] == (
            pytest.approx(0.8)
        )
        assert metrics["resilience.health.v1.observations"]["value"] == 2


class TestConcurrency:
    def test_concurrent_recording_loses_no_observations(self):
        tracker = SourceHealthTracker()
        per_thread = 200

        def hammer(source, failed):
            for _ in range(per_thread):
                if failed:
                    tracker.record_failure(source)
                else:
                    tracker.record_success(source)

        threads = [
            threading.Thread(target=hammer, args=("v1", i % 2))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        health = tracker.health("v1")
        assert health.observations == 4 * per_thread
        assert health.successes == 2 * per_thread
        assert health.failures == 2 * per_thread
        assert 0.0 <= health.failure_ewma <= 1.0
