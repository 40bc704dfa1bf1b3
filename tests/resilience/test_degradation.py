"""Graceful degradation through the mediator and the pipelined session.

Under chaos the service keeps streaming: plans blocked by an open
breaker are *skipped*, plans that exhaust their retries are *failed*,
and both are honestly accounted in the batches and the session report
instead of aborting the request.
"""

import pytest

from repro.errors import (
    ExecutionError,
    PermanentSourceError,
    SourceFailureError,
)
from repro.execution.mediator import Mediator
from repro.resilience.chaos import (
    ChaosBackend,
    ChaosProfile,
    FaultProfile,
    bundled_profile,
)
from repro.resilience.manager import ResilienceManager
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, QueryService, ServiceConfig
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost
from repro.workloads.movies import movie_domain
from tests.service.helpers import backoff, run

FAST_RETRY = RetryPolicy(max_attempts=2)


class FakePlan:
    def __init__(self, *names):
        self.sources = tuple(FakeSource(name) for name in names)


class FakeSource:
    def __init__(self, name):
        self.name = name


class TestResilienceManager:
    def test_sources_of_deduplicates_in_order(self):
        plan = FakePlan("v2", "v1", "v2")
        assert ResilienceManager.sources_of(plan) == ("v2", "v1")

    def test_admit_consults_the_board(self):
        manager = ResilienceManager()
        manager.board.record_failure("v1", permanent=True)
        assert manager.admit(FakePlan("v1", "v2")) == ("v1",)
        assert manager.admit(FakePlan("v2")) == ()

    def test_breakers_off_always_admits(self):
        manager = ResilienceManager(breakers=False)
        manager.board.record_failure("v1", permanent=True)
        assert manager.admit(FakePlan("v1")) == ()

    def test_blamed_error_charges_only_its_source(self):
        manager = ResilienceManager()
        error = SourceFailureError("v2", "boom")
        manager.record_failure(("v1", "v2"), error)
        assert manager.tracker.observations("v2") == 1
        assert manager.tracker.observations("v1") == 0

    def test_anonymous_error_charges_every_source(self):
        manager = ResilienceManager()
        manager.record_failure(("v1", "v2"), ExecutionError("boom"))
        assert manager.tracker.observations("v1") == 1
        assert manager.tracker.observations("v2") == 1

    def test_permanent_error_force_opens(self):
        manager = ResilienceManager()
        manager.record_failure(("v1",), PermanentSourceError("v1", "dead"))
        assert manager.breaker_states() == {"v1": "open"}

    def test_health_measure_wraps_the_live_tracker(self):
        manager = ResilienceManager()
        live = manager.health_measure(LinearCost())
        assert live.tracker is manager.tracker
        assert not live.cacheable


class TestMediatorDegradation:
    def failing_mediator(self, movies, resilience, dead_source="v4"):
        """A mediator whose executions fail whenever the plan uses
        *dead_source* (monkeypatched at the execute_query seam)."""
        mediator = Mediator(
            movies.catalog, movies.source_facts, resilience=resilience
        )
        original = mediator.execute_query

        def flaky(executable):
            predicates = {atom.predicate for atom in executable.body}
            if dead_source in predicates:
                raise PermanentSourceError(dead_source, "chaos: down")
            return original(executable)

        mediator.execute_query = flaky
        return mediator

    def test_graceful_mediator_keeps_streaming(self, movies):
        resilience = ResilienceManager()
        mediator = self.failing_mediator(movies, resilience)
        utility = LinearCost()
        batches = list(mediator.answer(movies.query, utility))
        failed = [b for b in batches if b.failed]
        skipped = [b for b in batches if b.skipped]
        delivered = [b for b in batches if b.answers]
        assert failed, "the dead source's first plan must fail"
        assert skipped, "later v4 plans must be breaker-skipped"
        assert delivered, "fallback plans must still answer"
        assert resilience.breaker_states()["v4"] == "open"
        # Failed and skipped batches are sound but empty.
        for batch in failed + skipped:
            assert batch.answers == frozenset()
            assert batch.new_answers == frozenset()

    def test_no_resilience_keeps_the_legacy_raise(self, movies):
        mediator = self.failing_mediator(movies, None)
        with pytest.raises(ExecutionError, match="attempt") as raised:
            list(mediator.answer(movies.query, LinearCost()))
        assert isinstance(raised.value.__cause__, PermanentSourceError)

    def test_degradation_counters(self, movies):
        resilience = ResilienceManager()
        mediator = self.failing_mediator(movies, resilience)
        list(mediator.answer(movies.query, LinearCost()))
        metrics = mediator.registry.as_dict()
        assert metrics["mediator.plans_failed"]["value"] >= 1
        assert metrics["mediator.plans_skipped"]["value"] >= 1


class TestSessionDegradation:
    def run_session(self, movies, resilience, seed=7):
        mediator = Mediator(
            movies.catalog, movies.source_facts, resilience=resilience
        )
        session = PipelinedSession(
            mediator,
            executor_workers=2,
            backend=ChaosBackend(bundled_profile("smoke"), seed=seed),
        )
        with backoff():
            return run(
                session, movies.query, LinearCost(),
                policy=RequestPolicy(retry=FAST_RETRY),
            )

    def test_report_carries_degradation_accounting(self, movies):
        resilience = ResilienceManager()
        batches, report = self.run_session(movies, resilience)
        assert report.status == "ok"
        assert report.plans_failed >= 1  # v4 fails before its breaker opens
        assert report.plans_skipped >= 1  # ...and is skipped afterwards
        assert report.sources_skipped == ["v4"]  # once, however many plans
        assert report.answers_partial
        assert report.breaker_states.get("v4") == "open"
        assert report.answers > 0  # fallback plans still delivered
        # Batch-level flags are consistent with the report.
        assert sum(1 for b in batches if b.skipped) == report.plans_skipped
        assert sum(1 for b in batches if b.failed) == report.plans_failed
        payload = report.as_dict()
        assert payload["sources_skipped"] == report.sources_skipped
        assert payload["breaker_states"] == report.breaker_states

    def test_without_resilience_chaos_still_aborts(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        session = PipelinedSession(
            mediator,
            backend=ChaosBackend(bundled_profile("smoke"), seed=7),
        )
        with pytest.raises(ExecutionError), backoff():
            run(
                session, movies.query, LinearCost(),
                policy=RequestPolicy(retry=FAST_RETRY),
            )

    def test_healthy_run_reports_zeroed_degradation(self, movies):
        resilience = ResilienceManager()
        mediator = Mediator(
            movies.catalog, movies.source_facts, resilience=resilience
        )
        session = PipelinedSession(mediator, executor_workers=2)
        _, report = run(session, movies.query, LinearCost())
        assert report.status == "ok"
        assert report.plans_skipped == 0
        assert report.plans_failed == 0
        assert report.sources_skipped == []
        assert not report.answers_partial
        assert set(report.breaker_states.values()) <= {"closed"}
        # Every execution fed the health tracker a success.
        health = resilience.tracker.snapshot()
        assert sum(h.successes for h in health.values()) > 0


class TestBreakersOnAndOff:
    """Twelve movie requests, healthy and under the smoke chaos with
    breakers on and off: chaos costs answers, never requests, and
    breakers bound the work wasted on the permanently dead source at
    the price of the plans they skip."""

    REQUESTS = 12
    #: The smoke profile without v5's 2 ms: these runs count, not time.
    CHAOS = ChaosProfile(
        "smoke",
        {
            "v3": FaultProfile(transient_prob=0.35),
            "v4": FaultProfile(permanent_outage=True),
            "v5": FaultProfile(transient_prob=0.35),
        },
    )

    @staticmethod
    def serve(arm):
        movies = movie_domain()
        backend = None
        resilience = ResilienceManager()
        if arm != "healthy":
            backend = ChaosBackend(TestBreakersOnAndOff.CHAOS, seed=7)
            resilience = ResilienceManager(breakers=arm == "breakers-on")
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            config=ServiceConfig(default_policy=RequestPolicy(retry=FAST_RETRY)),
            backend=backend,
            resilience=resilience,
        )
        try:
            results = [
                service.execute(QueryRequest(movies.query, request_id=f"r{index}"))
                for index in range(TestBreakersOnAndOff.REQUESTS)
            ]
        finally:
            service.shutdown()
        return results, backend

    @pytest.fixture(scope="class")
    def runs(self):
        with backoff():
            return {
                arm: self.serve(arm)
                for arm in ("healthy", "breakers-on", "breakers-off")
            }

    def test_every_request_completes_ok(self, runs):
        for results, _backend in runs.values():
            assert {result.status for result in results} == {"ok"}

    def test_healthy_requests_degrade_nothing(self, runs):
        for result in runs["healthy"][0]:
            assert result.report.plans_failed == 0
            assert result.report.plans_skipped == 0

    @pytest.mark.parametrize("arm", ["breakers-on", "breakers-off"])
    def test_chaos_loses_answers_but_never_invents_them(self, runs, arm):
        healthy = max(len(result.answers) for result in runs["healthy"][0])
        answered = [len(result.answers) for result in runs[arm][0]]
        assert max(answered) <= healthy
        assert sum(answered) > 0

    def test_breakers_bound_the_dead_sources_hits(self, runs):
        on = runs["breakers-on"][1].outages_hit
        off = runs["breakers-off"][1].outages_hit
        # Without breakers every request re-pays the dead source.
        assert off >= self.REQUESTS
        assert on < off
        assert on <= 6

    def test_only_breakers_skip_plans(self, runs):
        skipped = {
            arm: sum(result.report.plans_skipped for result in runs[arm][0])
            for arm in ("breakers-on", "breakers-off")
        }
        assert skipped["breakers-on"] > 0
        assert skipped["breakers-off"] == 0
