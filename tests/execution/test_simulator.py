"""Tests for the virtual-clock execution simulator."""

import statistics

import pytest

from repro.datalog.parser import parse_query
from repro.errors import ExecutionError
from repro.execution.simulator import ExecutionSimulator
from repro.reformulation.plans import QueryPlan
from repro.sources.catalog import SourceDescription
from repro.sources.statistics import SourceStats
from repro.utility.cost import BindJoinCost


def src(name: str, n: int, alpha: float, fail: float = 0.0) -> SourceDescription:
    return SourceDescription(
        name,
        parse_query(f"{name}(X) :- r(X)"),
        SourceStats(n_tuples=n, transfer_cost=alpha, failure_prob=fail),
    )


A = src("a", 10, 1.0)
B = src("b", 20, 2.0)
FLAKY = src("f", 10, 1.0, fail=0.4)


class TestDeterministicRuns:
    def test_no_failure_duration_equals_cost(self):
        sim = ExecutionSimulator(access_overhead=1.0, domain_sizes=100.0)
        run = sim.run_plan(QueryPlan((A, B)))
        # flow: 10, then 10*20/100=2; cost (1+10) + (1+4) = 16.
        assert run.duration == pytest.approx(16.0)
        assert run.attempts == 1
        assert run.succeeded

    def test_clock_accumulates(self):
        sim = ExecutionSimulator(access_overhead=1.0, domain_sizes=100.0)
        sim.run_plan(QueryPlan((A, B)))
        second = sim.run_plan(QueryPlan((A, B)))
        assert second.started_at == pytest.approx(16.0)
        assert sim.clock == pytest.approx(32.0)

    def test_reset(self):
        sim = ExecutionSimulator()
        sim.run_plan(QueryPlan((A,)))
        sim.reset()
        assert sim.clock == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ExecutionError):
            ExecutionSimulator(access_overhead=-1)
        with pytest.raises(ExecutionError):
            ExecutionSimulator(max_attempts=0)


class TestCaching:
    def test_cached_operation_is_free(self):
        sim = ExecutionSimulator(
            access_overhead=1.0, domain_sizes=100.0, caching=True
        )
        first = sim.run_plan(QueryPlan((A, B)))
        again = sim.run_plan(QueryPlan((A, B)))
        assert first.duration == pytest.approx(16.0)
        assert again.duration == pytest.approx(0.0)

    def test_cache_is_slot_specific(self):
        sim = ExecutionSimulator(
            access_overhead=1.0, domain_sizes=100.0, caching=True
        )
        sim.run_plan(QueryPlan((A, B)))
        swapped = sim.run_plan(QueryPlan((B, A)))
        # flow 20, then 20*10/100=2; cost (1+40) + (1+2), nothing cached.
        assert swapped.duration == pytest.approx(44.0)

    def test_no_caching_by_default(self):
        sim = ExecutionSimulator(access_overhead=1.0, domain_sizes=100.0)
        sim.run_plan(QueryPlan((A, B)))
        again = sim.run_plan(QueryPlan((A, B)))
        assert again.duration == pytest.approx(16.0)


class TestFailures:
    def test_failures_cause_retries(self):
        sim = ExecutionSimulator(seed=1)
        runs = [sim.run_plan(QueryPlan((FLAKY,))) for _ in range(50)]
        assert any(r.attempts > 1 for r in runs)
        assert all(r.succeeded for r in runs)

    def test_mean_duration_tracks_expected_cost(self):
        """Over many runs the simulated mean approaches the
        failure-aware measure's expectation (from below: aborted
        attempts pay only partial cost)."""
        sim = ExecutionSimulator(
            access_overhead=1.0, domain_sizes=100.0, seed=7
        )
        plan = QueryPlan((FLAKY, B))
        measure = BindJoinCost(
            access_overhead=1.0, domain_sizes=100.0, failure_aware=True
        )
        expected = -measure.evaluate(plan, measure.new_context())
        durations = [sim.run_plan(plan).duration for _ in range(3000)]
        mean = statistics.mean(durations)
        assert mean <= expected * 1.02
        assert mean >= expected * 0.55

    def test_max_attempts_gives_up(self):
        doomed = src("d", 5, 1.0, fail=0.99)
        sim = ExecutionSimulator(max_attempts=3, seed=0)
        run = sim.run_plan(QueryPlan((doomed,)))
        assert run.attempts == 3
        assert not run.succeeded
        # Each failed access still paid its overhead.
        assert run.duration == pytest.approx(3.0)

    def test_failures_feed_the_health_tracker(self):
        from repro.resilience.health import SourceHealthTracker

        tracker = SourceHealthTracker()
        sim = ExecutionSimulator(seed=1, health=tracker)
        for _ in range(20):
            sim.run_plan(QueryPlan((FLAKY, B)))
        health = tracker.snapshot()
        assert health["f"].failures > 0
        assert health["b"].successes == 20

    def test_reset_with_a_seed_replays_the_draws(self):
        plans = [QueryPlan((FLAKY,))] * 10
        sim = ExecutionSimulator(seed=5)
        first = [run.attempts for run in sim.run_ordering(plans).runs]
        sim.reset(seed=5)
        assert [run.attempts for run in sim.run_ordering(plans).runs] == first


class TestOrderingValue:
    def test_cost_ordered_execution_reaches_first_answer_sooner(self, small_domain):
        """Executing plans in decreasing (cost-based) utility order
        minimizes simulated time to the first completed plan."""
        from repro.ordering.bruteforce import PIOrderer

        utility = small_domain.measure("bind-join")
        ordered = [
            r.plan for r in PIOrderer(utility).order_list(small_domain.space, 10)
        ]
        sim = ExecutionSimulator(
            access_overhead=1.0, domain_sizes=small_domain.domain_sizes
        )
        good = sim.run_ordering(ordered)
        sim.reset()
        bad = sim.run_ordering(list(reversed(ordered)))
        assert good.time_to_first_success < bad.time_to_first_success
        assert good.runs[0].duration == pytest.approx(
            -utility.evaluate(ordered[0], utility.new_context())
        )

    def test_report_accessors(self):
        doomed = src("d", 5, 1.0, fail=0.99)
        sim = ExecutionSimulator(
            access_overhead=1.0, domain_sizes=100.0, max_attempts=1
        )
        report = sim.run_ordering(
            [QueryPlan((doomed,)), QueryPlan((A,)), QueryPlan((B,))]
        )
        assert len(report.runs) == 3
        assert not report.runs[0].succeeded
        assert report.total_time == report.runs[-1].finished_at
        assert report.time_to_first_success == report.runs[1].finished_at
