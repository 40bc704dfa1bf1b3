"""The service-level adaptivity knob and the closed feedback loop.

``ServiceConfig.adaptivity`` picks the server default ("auto" = on for
requests that did not name an orderer), ``RequestPolicy.adaptivity``
(the wire protocol's ``adaptive`` field) overrides per request, and a
service without a resilience manager never adapts — there is no health
signal to react to.
"""

import io
import time

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.observability.journal import EventJournal
from repro.resilience.breaker import BreakerBoard
from repro.resilience.chaos import (
    ChaosBackend,
    ChaosProfile,
    FaultProfile,
    bundled_profile,
)
from repro.resilience.manager import ResilienceManager
from repro.service import protocol
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import (
    AUTO_ORDERER,
    QueryRequest,
    QueryService,
    ServiceConfig,
)
from repro.utility.cost import BindJoinCost, LinearCost
from repro.workloads.random_lav import ordering_scenario
from tests.journal_reader import events
from tests.service.helpers import backoff

FAST_POLICY = RequestPolicy(retry=RetryPolicy(max_attempts=2))

#: The head-outage setting.  On the random-LAV scenario at seed 3 the
#: statically best-ranked plans all read ``src0``; every access to it
#: stalls 20 ms and then fails, so each doomed plan burns two stalls and
#: one backoff before degrading to the next plan.
OUTAGE_SCENARIO_SEED = 3
OUTAGE_CHAOS = ChaosProfile(
    name="head-outage",
    faults={"src0": FaultProfile(transient_prob=1.0, latency_s=0.02)},
)
OUTAGE_RETRY = RetryPolicy(max_attempts=2)
#: Its backoff: 5 ms, capped at 10 ms.
OUTAGE_BACKOFF = {"base_s": 0.005, "cap_s": 0.01}
#: A one-deep pipeline keeps the producer close to execution, so the
#: first failure can still re-order plans not yet emitted.
OUTAGE_QUEUE_DEPTH = 1
OUTAGE_EXECUTOR_WORKERS = 1


@pytest.fixture(scope="module")
def outage_scenario():
    return ordering_scenario(OUTAGE_SCENARIO_SEED)


def adaptive_service(
    movies,
    *,
    adaptivity="on",
    backend=None,
    resilience=None,
    journal=None,
    **config_kwargs,
):
    return QueryService(
        movies.catalog,
        movies.source_facts,
        measures={
            "linear": LinearCost,
            "failure": lambda: BindJoinCost(failure_aware=True),
        },
        config=ServiceConfig(
            default_policy=FAST_POLICY,
            default_measure="failure",
            adaptivity=adaptivity,
            **config_kwargs,
        ),
        backend=backend,
        resilience=resilience,
        journal=journal,
    )


def outage_service(scenario, *, adaptivity, backend=None, journal=None):
    """The failure-aware random-LAV service of the head-outage setting.

    Breakers are off: they would skip every doomed plan in both arms
    alike and hide the ordering-level effect.
    """
    return QueryService(
        scenario.catalog,
        scenario.source_facts,
        measures={
            "failure": lambda: BindJoinCost(
                access_overhead=1.0,
                domain_sizes=scenario.domain_sizes,
                uniform_transfer=True,
                failure_aware=True,
            )
        },
        config=ServiceConfig(
            default_policy=RequestPolicy(retry=OUTAGE_RETRY),
            default_measure="failure",
            adaptivity=adaptivity,
            queue_depth=OUTAGE_QUEUE_DEPTH,
            executor_workers=OUTAGE_EXECUTOR_WORKERS,
        ),
        backend=backend,
        resilience=ResilienceManager(min_observations=1, breakers=False),
        journal=journal,
    )


class TestResolveAdaptivity:
    def make(self, movies, adaptivity="auto", with_resilience=True):
        return adaptive_service(
            movies,
            adaptivity=adaptivity,
            resilience=ResilienceManager() if with_resilience else None,
        )

    def test_no_resilience_never_adapts(self, movies):
        service = self.make(movies, adaptivity="on", with_resilience=False)
        try:
            assert not service.resolve_adaptivity(RequestPolicy(), AUTO_ORDERER)
        finally:
            service.shutdown()

    def test_auto_follows_the_orderer_choice(self, movies):
        service = self.make(movies)
        try:
            assert service.resolve_adaptivity(RequestPolicy(), AUTO_ORDERER)
            assert not service.resolve_adaptivity(RequestPolicy(), "greedy")
        finally:
            service.shutdown()

    def test_on_and_off_force_the_default(self, movies):
        on = self.make(movies, adaptivity="on")
        off = self.make(movies, adaptivity="off")
        try:
            assert on.resolve_adaptivity(RequestPolicy(), "greedy")
            assert not off.resolve_adaptivity(RequestPolicy(), AUTO_ORDERER)
        finally:
            on.shutdown()
            off.shutdown()

    def test_request_policy_overrides_the_server(self, movies):
        service = self.make(movies, adaptivity="off")
        try:
            assert service.resolve_adaptivity(
                RequestPolicy(adaptivity=True), "greedy"
            )
            service.config = ServiceConfig(adaptivity="on")
            assert not service.resolve_adaptivity(
                RequestPolicy(adaptivity=False), AUTO_ORDERER
            )
        finally:
            service.shutdown()

    def test_bad_config_value_rejected(self):
        with pytest.raises(ServiceError, match="adaptivity"):
            ServiceConfig(adaptivity="sometimes")


class TestProtocolKnob:
    def test_adaptive_field_round_trips(self):
        record = protocol.request_record("q(X) :- r(X)", adaptive=True)
        assert record["adaptive"] is True
        request = protocol.request_from_record(record)
        assert request.policy.adaptivity is True
        off = protocol.request_from_record(
            protocol.request_record("q(X) :- r(X)", adaptive=False)
        )
        assert off.policy.adaptivity is False

    def test_omitted_field_defers_to_the_server_default(self):
        request = protocol.request_from_record(
            {"type": "query", "query": "q(X) :- r(X)"}
        )
        assert request.policy.adaptivity is None

    def test_non_boolean_adaptive_rejected(self):
        with pytest.raises(ProtocolError, match="adaptive"):
            protocol.request_from_record(
                {"type": "query", "query": "q(X) :- r(X)", "adaptive": 1}
            )


class TestFeedbackLoopEndToEnd:
    def test_flapping_chaos_triggers_a_journaled_reorder(self, movies):
        # queue_depth=1 keeps the producer at most one plan ahead of
        # execution, so failures land while the stream is still being
        # ordered; the short cooldown lets breakers half-open between
        # requests, driving the demote-and-repromote cycle.
        resilience = ResilienceManager(
            min_observations=1, board=BreakerBoard(cooldown_s=0.05)
        )
        sink = io.StringIO()
        service = adaptive_service(
            movies,
            backend=ChaosBackend(bundled_profile("flapping"), seed=7),
            resilience=resilience,
            journal=EventJournal(stream=sink),
            queue_depth=1,
            executor_workers=1,
        )
        try:
            reordered = []
            for index in range(8):
                with backoff():
                    result = service.execute(
                        QueryRequest(movies.query, request_id=f"r{index}")
                    )
                # Graceful degradation: chaos never aborts a request.
                assert result.status in ("ok", "degraded")
                reordered = events(sink, event="plan.reordered")
                if reordered:
                    break
                time.sleep(0.06)  # let the breaker cooldowns elapse
            assert reordered, "no plan.reordered under flapping chaos"
            registry = service.registry.as_dict()

            def counter(name):
                return registry.get(name, {}).get("value", 0)

            assert counter("ordering.adaptive.reorders") >= 1
            assert counter("ordering.adaptive.epoch_checks") >= 1
        finally:
            service.shutdown()

    @pytest.mark.parametrize("workload", ["movies", "random-lav"])
    def test_healthy_service_stream_is_identical_adaptive_on_vs_off(
        self, workload, movies, outage_scenario
    ):
        # No failure, so the epoch never moves and the adaptive wrapper
        # is invisible: same plans, utilities, ranks and verdicts.
        def run(adaptivity):
            if workload == "movies":
                service = adaptive_service(
                    movies,
                    adaptivity=adaptivity,
                    resilience=ResilienceManager(),
                )
                query = movies.query
            else:
                service = outage_service(
                    outage_scenario, adaptivity=adaptivity
                )
                query = outage_scenario.query
            try:
                result = service.execute(QueryRequest(query))
                assert result.status == "ok"
                return [
                    (batch.rank, batch.plan.key, batch.utility, batch.sound)
                    for batch in result.batches
                ]
            finally:
                service.shutdown()

        stream = run("on")
        assert stream
        assert stream == run("off")


class TestOnlyFailureAwareMeasuresAdapt:
    """Under a manager, health wraps and re-orders only a measure that
    reads failure priors; any other is served as without a manager."""

    def linear(self, movies, resilience):
        """The batches of one ``linear`` request, and the epoch checks."""
        service = adaptive_service(
            movies, adaptivity="auto", resilience=resilience
        )
        try:
            result = service.execute(QueryRequest(movies.query, measure="linear"))
            assert result.status == "ok"
            checks = service.registry.counter("ordering.adaptive.epoch_checks")
            return [
                (b.rank, b.plan.key, b.utility, b.sound, b.answers, b.new_answers)
                for b in result.batches
            ], checks.value
        finally:
            service.shutdown()

    def test_a_linear_request_builds_no_adaptive_orderer(self, movies):
        managed, checks = self.linear(movies, ResilienceManager())
        assert checks == 0
        assert managed
        assert managed == self.linear(movies, None)[0]


class ColdStart:
    """One cold-start head-outage request, read back from its journal."""

    def __init__(self, scenario, adaptivity):
        sink = io.StringIO()
        service = outage_service(
            scenario,
            adaptivity=adaptivity,
            backend=ChaosBackend(OUTAGE_CHAOS, seed=0),
            journal=EventJournal(stream=sink),
        )
        try:
            with backoff(**OUTAGE_BACKOFF):
                self.result = service.execute(
                    QueryRequest(scenario.query, request_id="cold")
                )
        finally:
            service.shutdown()
        self.events = events(sink, request_id="cold")
        (self.first,) = self.of("answer.first")
        self.failed = [
            e["rank"]
            for e in self.of("plan.failed")
            if e["seq"] < self.first["seq"]
        ]
        self.reorders = self.of("plan.reordered")
        #: The emitted plans (tuples of source names), in rank order.
        self.emitted = [tuple(e["plan"]) for e in self.of("plan.emitted")]

    def of(self, kind):
        return [e for e in self.events if e["event"] == kind]


class TestHeadOutage:
    """A cold-start request while the best-ranked source is down.

    Both arms start with an empty health tracker, so they share the
    static ranking; what differs is how many doomed plans run before
    the first answer.  Those are counted from the journal, not timed.
    """

    @pytest.fixture(scope="class")
    def fixed(self, outage_scenario):
        return ColdStart(outage_scenario, "off")

    @pytest.fixture(scope="class")
    def adaptive(self, outage_scenario):
        return ColdStart(outage_scenario, "on")

    @pytest.mark.parametrize("arm", ["fixed", "adaptive"])
    def test_both_arms_complete_ok(self, request, arm):
        assert request.getfixturevalue(arm).result.status == "ok"

    def test_fixed_order_answers_first_at_rank_8(self, fixed):
        assert fixed.first["rank"] == 8

    def test_fixed_order_runs_every_doomed_head_plan(self, fixed):
        # The fixed order wades through every doomed head plan.
        assert fixed.failed == [1, 2, 3, 4]

    def test_fixed_order_never_reorders(self, fixed):
        assert fixed.reorders == []

    @pytest.mark.parametrize("arm", ["fixed", "adaptive"])
    def test_every_doomed_plan_reads_the_failed_source(self, request, arm):
        run = request.getfixturevalue(arm)
        assert run.failed
        for rank in run.failed:
            assert "src0" in run.emitted[rank - 1]

    def test_adaptive_order_runs_fewer_doomed_plans(self, fixed, adaptive):
        # Only the plans already queued, executing or held by the
        # producer when the first failure lands run doomed.
        window = OUTAGE_QUEUE_DEPTH + OUTAGE_EXECUTOR_WORKERS + 1
        assert len(adaptive.failed) <= window < len(fixed.failed)

    def test_adaptive_order_reorders_exactly_once(self, adaptive):
        # The first failure bumps the health epoch, and the next plan
        # the producer orders re-sorts the rest once.
        assert len(adaptive.reorders) == 1

    def test_the_reorder_follows_the_first_source_failure(self, adaptive):
        # The failed access is journaled before it bumps the epoch; the
        # plan's own ``plan.failed`` (after its retry) may come later.
        (reorder,) = adaptive.reorders
        (first_failure, *_) = adaptive.of("source.failure")
        assert first_failure["sources"] == ["src0"]
        assert first_failure["seq"] < reorder["seq"]
        assert reorder["epoch"] >= 1

    def test_the_reorder_demotes_a_head_on_the_failed_source(self, adaptive):
        (reorder,) = adaptive.reorders
        assert "src0" in reorder["old_head"]
        assert reorder["head_utility"] < reorder["frontier_hi"]

    def test_after_the_reorder_healthy_plans_come_first(self, adaptive):
        (reorder,) = adaptive.reorders
        rest = adaptive.emitted[reorder["rank"] - 1:]
        reads_src0 = ["src0" in plan for plan in rest]
        assert reads_src0 == sorted(reads_src0)
        assert not reads_src0[0]

    def test_adaptive_order_answers_first_at_an_earlier_rank(
        self, fixed, adaptive
    ):
        assert adaptive.first["rank"] < fixed.first["rank"]

    def test_both_orders_share_the_static_head(self, fixed, adaptive):
        (reorder,) = adaptive.reorders
        head = reorder["rank"] - 1
        assert head >= 1
        assert adaptive.emitted[:head] == fixed.emitted[:head]

    def test_both_orders_emit_the_same_plans(self, fixed, adaptive):
        # Re-ordering permutes the plan space; it drops no plan.
        assert len(adaptive.emitted) == len(set(adaptive.emitted))
        assert sorted(adaptive.emitted) == sorted(fixed.emitted)

    def test_both_orders_return_the_same_answers(self, fixed, adaptive):
        # The doomed plans are redundant with healthy ones: re-ordering
        # changes when answers arrive, never which.
        assert len(adaptive.result.answers) == len(fixed.result.answers)
        assert set(adaptive.result.answers) == set(fixed.result.answers)
