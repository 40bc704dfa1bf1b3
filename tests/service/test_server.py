"""Tests for the multi-query service: concurrency, sharing, shedding."""

import io
import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverloadedError
from repro.observability.caching import CachingUtilityMeasure
from repro.observability.journal import EventJournal
from repro.observability.metrics import MetricRegistry
from repro.resilience.manager import ResilienceManager
from repro.service import protocol, server
from repro.service.policy import CancellationToken, RequestPolicy
from repro.service.server import (
    AUTO_ORDERER,
    QueryRequest,
    QueryService,
    RequestResult,
    ServiceConfig,
    resolve_orderer_name,
)
from repro.service.workloads import service_workload
from repro.utility.cost import LinearCost
from repro.utility.coverage import CoverageUtility
from tests.journal_reader import events
from tests.service.helpers import BACKENDS, wait_until, wedge

#: The layer names ``AnytimeRun`` times each stage of a request under.
STAGES = (
    "reformulation.buckets.build",
    "reformulation.soundness.check",
    "execution.engine.execute",
)


def make_service(movies, **config_kwargs):
    config = ServiceConfig(**config_kwargs) if config_kwargs else None
    return QueryService(
        movies.catalog,
        movies.source_facts,
        measures={"linear": LinearCost},
        config=config,
    )


class TestDirectExecution:
    def test_one_request_end_to_end(self, movies):
        service = make_service(movies)
        streamed = []
        result = service.execute(
            QueryRequest(query=movies.query), on_batch=streamed.append
        )
        assert result.status == "ok"
        assert result.batches == streamed
        assert result.answers
        assert result.report is not None
        assert result.report.exhausted
        assert result.request_id.startswith("req-")

    def test_unknown_measure_is_an_error_result(self, movies):
        service = make_service(movies)
        result = service.execute(
            QueryRequest(query=movies.query, measure="no-such-measure")
        )
        assert result.status == "error"
        assert "no-such-measure" in (result.error or "")

    def test_unknown_orderer_is_an_error_result(self, movies):
        service = make_service(movies)
        result = service.execute(
            QueryRequest(query=movies.query, orderer="quantum")
        )
        assert result.status == "error"
        assert "quantum" in (result.error or "")

    def test_a_request_without_a_policy_gets_the_default(self, movies):
        service = make_service(
            movies, default_policy=RequestPolicy(max_plans=2)
        )
        result = service.execute(QueryRequest(query=movies.query))
        assert [batch.rank for batch in result.batches] == [1, 2]
        assert result.report.plans_processed == 2

    def test_a_request_without_an_orderer_gets_the_default(self, movies):
        sink = io.StringIO()
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            config=ServiceConfig(default_orderer="greedy"),
            journal=EventJournal(stream=sink),
        )
        service.execute(QueryRequest(query=movies.query, request_id="r"))
        (admitted,) = events(sink, event="request.admitted", request_id="r")
        assert admitted["orderer"] == "greedy"

    def test_deadline_exceeded_is_a_status_not_an_error(self, movies):
        service = make_service(movies)
        result = service.execute(
            QueryRequest(
                query=movies.query, policy=RequestPolicy(deadline_s=0.0)
            )
        )
        assert result.status == "deadline_exceeded"
        assert result.error is None
        registry = service.registry
        assert registry.counter("service.deadline_exceeded").value == 1

    def test_an_adaptive_request_traces_its_orderer(self, movies):
        # ``auto`` under a resilience manager wraps the orderer of a
        # failure-aware measure, and the wrapper hands the request's
        # tracer to each inner one.
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={
                "linear": LinearCost,
                "failure": lambda: movies.measure("failure"),
            },
            config=ServiceConfig(trace_requests=True),
            resilience=ResilienceManager(),
        )
        result = service.execute(
            QueryRequest(query=movies.query, measure="failure")
        )
        assert result.status == "ok"
        assert "utility.eval" in result.spans

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_a_served_trace_covers_the_stages(self, movies, backend):
        # Each stage once, under its ``per_layer`` name, on either path.
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            config=ServiceConfig(trace_requests=True),
            backend=BACKENDS[backend](),
        )
        try:
            result = service.execute(QueryRequest(query=movies.query))
        finally:
            service.shutdown()
        assert result.status == "ok"
        spans, report = result.spans, result.report
        names = [path.rsplit("/", 1)[-1] for path in spans]
        for stage in STAGES:
            assert names.count(stage) == 1, (stage, sorted(spans))
        assert "utility.eval" in names
        assert spans["reformulation.buckets.build"]["calls"] == 1
        checks = spans["reformulation.soundness.check"]["calls"]
        assert checks == report.plans_processed
        executions = spans["execution.engine.execute"]["calls"]
        assert executions == report.sound_plans


class TestSharedState:
    def test_utility_cache_warms_across_requests(self, movies):
        service = make_service(movies)
        service.execute(QueryRequest(query=movies.query))
        measure = service.shared_measure("linear")
        hits_before = measure.hits
        result = service.execute(QueryRequest(query=movies.query))
        assert result.status == "ok"
        assert measure.hits > hits_before

    def test_a_context_dependent_measure_is_served_uncached(self):
        catalog, facts, measures, query = service_workload("random-lav", 0)
        service = QueryService(catalog, facts, measures=measures)
        assert type(service.shared_measure("coverage")) is CoverageUtility
        linear = service.shared_measure("linear")
        assert isinstance(linear, CachingUtilityMeasure)
        service.execute(QueryRequest(query=query, measure="linear"))
        entries = service.registry.get("utility_cache.entries").value
        assert entries > 0
        result = service.execute(QueryRequest(query=query, measure="coverage"))
        assert result.status == "ok" and result.report.plans_processed > 0
        assert service.registry.get("utility_cache.entries").value == entries
        hits = linear.hits
        service.execute(QueryRequest(query=query, measure="linear"))
        assert linear.hits > hits

    def test_shared_measure_is_one_instance_per_name(self, movies):
        service = make_service(movies)
        assert service.shared_measure("linear") is service.shared_measure("linear")
        with pytest.raises(ServiceError):
            service.shared_measure("bogus")

    def test_default_measure_must_exist(self, movies):
        with pytest.raises(ServiceError):
            QueryService(
                movies.catalog,
                movies.source_facts,
                measures={"linear": LinearCost},
                config=ServiceConfig(default_measure="coverage"),
            )

    def test_service_metrics_accumulate(self, movies):
        registry = MetricRegistry()
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            registry=registry,
        )
        for _ in range(3):
            assert service.execute(QueryRequest(query=movies.query)).status == "ok"
        assert registry.counter("service.requests").value == 3
        assert registry.counter("service.completed").value == 3
        assert registry.counter("service.answers").value > 0
        assert registry.gauge("service.active").value == 0
        assert registry.histogram("service.first_answer_s").count == 3
        assert registry.histogram("service.total_s").count == 3


class TestConcurrency:
    def test_many_concurrent_requests_all_succeed(self, movies):
        service = make_service(movies, max_concurrent=4)
        results: list[RequestResult] = []
        lock = threading.Lock()

        def one_request():
            result = service.execute(QueryRequest(query=movies.query))
            with lock:
                results.append(result)

        threads = [threading.Thread(target=one_request) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 12
        assert all(r.status == "ok" for r in results)
        answer_sets = {r.answers for r in results}
        assert len(answer_sets) == 1  # all byte-identical


def execute_in_thread(service, request):
    """Start ``service.execute(request)``; returns (thread, outcomes)."""
    outcomes: list = []

    def call():
        try:
            outcomes.append(service.execute(request))
        except Exception as exc:  # handed to the asserting thread
            outcomes.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    return thread, outcomes


class TestAdmissionGate:
    """One gate, one policy, for whoever calls ``execute``."""

    def test_overload_is_shed_at_once_in_process(self, movies):
        # Unreachable at the parent commit: only submit() could shed.
        registry = MetricRegistry()
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            config=ServiceConfig(max_concurrent=1, backlog=1),
            registry=registry,
            journal=journal,
        )
        release, holding = wedge(service)
        request = QueryRequest(query=movies.query)
        running, ran = execute_in_thread(service, request)
        assert holding.wait(timeout=10.0)
        waiting, waited = execute_in_thread(service, request)
        wait_until(lambda: service._places._value == 0)
        started = time.monotonic()
        with pytest.raises(ServiceOverloadedError, match="1 waiting"):
            service.execute(QueryRequest(query=movies.query, request_id="shed"))
        assert time.monotonic() - started < 1.0
        (rejected,) = events(sink, event="request.rejected")
        assert rejected["request_id"] == "shed"
        assert rejected["code"] == "overloaded"
        assert registry.gauge("service.active").value == 1  # the running one
        release.set()
        for thread in (running, waiting):
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert ran[0].status == waited[0].status == "ok"  # the waiter was served, not shed
        assert registry.counter("service.rejected").value == 1
        assert registry.counter("service.requests").value == 3
        assert registry.gauge("service.active").value == 0
        # The shed request gave nothing back it did not hold.
        assert service._places._value == 2 and service._permits._value == 1

    def test_rejected_when_admission_times_out(self, movies, monkeypatch):
        monkeypatch.setattr(server, "ADMISSION_TIMEOUT_S", 0.05)
        service = make_service(movies, max_concurrent=1)
        release, holding = wedge(service)
        running, ran = execute_in_thread(service, QueryRequest(query=movies.query))
        assert holding.wait(timeout=10.0)
        try:
            result = service.execute(QueryRequest(query=movies.query))
            assert result.status == "rejected"
            assert result.error == "admission timeout"
        finally:
            release.set()
            running.join(timeout=30.0)
        assert ran[0].status == "ok"
        assert service.execute(QueryRequest(query=movies.query)).status == "ok"

    def test_deadline_clamps_the_admission_wait(self, movies):
        service = make_service(movies, max_concurrent=1)  # 30 s admission timeout
        release, holding = wedge(service)
        running, _ran = execute_in_thread(service, QueryRequest(query=movies.query))
        assert holding.wait(timeout=10.0)
        try:
            started = time.monotonic()
            result = service.execute(
                QueryRequest(
                    query=movies.query, policy=RequestPolicy(deadline_s=0.05)
                )
            )
            assert result.status == "rejected"
            assert time.monotonic() - started < 5.0
        finally:
            release.set()
            running.join(timeout=30.0)

    def test_a_raising_request_gives_its_permit_back(self, movies, monkeypatch):
        # Fails at the parent commit: the factory raised between the
        # acquire and the try, two of these and every later request
        # was rejected with service.active stuck at 2.
        registry = MetricRegistry()
        sink = io.StringIO()
        journal = EventJournal(stream=sink)

        def broken_factory():
            raise RuntimeError("factory exploded")

        monkeypatch.setattr(server, "ADMISSION_TIMEOUT_S", 0.05)
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost, "broken": broken_factory},
            config=ServiceConfig(max_concurrent=2),
            registry=registry,
            journal=journal,
        )
        for index in range(2):
            result = service.execute(
                QueryRequest(
                    query=movies.query, measure="broken", request_id=f"bad-{index}"
                )
            )
            assert result.status == "error"
            assert result.error == "RuntimeError: factory exploded"
        assert registry.gauge("service.active").value == 0
        assert service.execute(QueryRequest(query=movies.query)).status == "ok"
        assert registry.counter("service.errors").value == 2
        assert registry.counter("service.accepted").value == 3
        # An admitted request's error is journaled as one.
        assert [
            event["event"] for event in events(sink, request_id="bad-0")
        ] == ["request.admitted", "request.completed"]
        (completed,) = events(
            sink, event="request.completed", request_id="bad-1"
        )
        assert completed["status"] == "error"

    def test_a_raising_callback_is_an_error_result(self, movies):
        registry = MetricRegistry()
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            registry=registry,
        )

        def on_batch(batch):
            raise KeyError("consumer bug")

        result = service.execute(QueryRequest(query=movies.query), on_batch)
        assert result.status == "error"
        assert result.error == "KeyError: 'consumer bug'"
        assert registry.gauge("service.active").value == 0
        assert registry.counter("service.errors").value == 1

    def test_cancellation_in_process(self, movies):
        registry = MetricRegistry()
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            registry=registry,
        )
        token = CancellationToken()
        token.cancel()
        result = service.execute(
            QueryRequest(
                query=movies.query, policy=RequestPolicy(cancellation=token)
            )
        )
        assert result.status == "cancelled"
        assert result.batches == []
        assert registry.counter("service.cancelled").value == 1
        assert registry.gauge("service.active").value == 0


class TestShutdown:
    def test_shutdown_waits_for_in_flight_and_closes_the_gate(self, movies):
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            config=ServiceConfig(max_concurrent=2),
            journal=journal,
        )
        release, holding = wedge(service)
        running, ran = execute_in_thread(service, QueryRequest(query=movies.query))
        assert holding.wait(timeout=10.0)
        closer = threading.Thread(target=service.shutdown, args=(30.0,), daemon=True)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive()  # still waiting for the wedged request
        release.set()
        closer.join(timeout=30.0)
        running.join(timeout=30.0)
        assert not closer.is_alive() and not running.is_alive()
        assert ran[0].status == "ok"  # in flight at shutdown: finished, not torn
        started = time.monotonic()
        late = service.execute(QueryRequest(query=movies.query, request_id="late"))
        assert late.status == "rejected"
        assert time.monotonic() - started < 1.0  # at once, no admission wait
        (rejected,) = events(sink, event="request.rejected")
        assert (rejected["request_id"], rejected["code"]) == ("late", "shutdown")

    def test_shutdown_gives_up_after_its_timeout(self, movies):
        service = make_service(movies, max_concurrent=1)
        release, holding = wedge(service)
        running, ran = execute_in_thread(service, QueryRequest(query=movies.query))
        assert holding.wait(timeout=10.0)
        try:
            started = time.monotonic()
            service.shutdown(timeout=0.05)
            assert time.monotonic() - started < 5.0
        finally:
            release.set()
            running.join(timeout=30.0)
        assert ran[0].status == "ok"
        service.shutdown()  # idempotent, and quick with nothing in flight


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "knob", ["max_concurrent", "backlog", "executor_workers", "queue_depth"]
    )
    def test_counts_must_be_positive(self, knob):
        # executor_workers=0 / queue_depth=0 used to be accepted, and
        # then every request ended in an error result.
        with pytest.raises(ServiceError, match=f"{knob} must be at least 1"):
            ServiceConfig(**{knob: 0})


class TestAutoOrderer:
    """The "auto" pseudo-orderer resolves per measure's structural flags."""

    def test_auto_is_the_config_default(self):
        assert ServiceConfig().default_orderer == AUTO_ORDERER

    def test_monotonic_measure_resolves_to_anyk(self, movies):
        service = make_service(movies)
        utility = service.shared_measure("linear")
        assert utility.is_fully_monotonic
        assert resolve_orderer_name(AUTO_ORDERER, utility) == "anyk"

    @pytest.mark.parametrize(
        "monotonic, diminishing, expected",
        [
            (True, True, "anyk"),
            (True, False, "anyk"),
            (False, True, "streamer"),
            (False, False, "idrips"),
        ],
    )
    def test_the_rule_reads_the_structural_flags(
        self, monotonic, diminishing, expected
    ):
        class Flags(LinearCost):
            is_fully_monotonic = monotonic
            has_diminishing_returns = diminishing

        assert resolve_orderer_name(AUTO_ORDERER, Flags()) == expected

    def test_coverage_resolves_to_streamer_never_pi(self):
        assert resolve_orderer_name(AUTO_ORDERER, CoverageUtility) == "streamer"

    def test_explicit_names_pass_through(self, movies):
        service = make_service(movies)
        utility = service.shared_measure("linear")
        for name in ("pi", "greedy", "anyk", "nonsense"):
            assert resolve_orderer_name(name, utility) == name

    def test_journal_logs_the_resolved_name(self, movies):
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            journal=journal,
        )
        result = service.execute(QueryRequest(query=movies.query))
        assert result.status == "ok"
        (admitted,) = events(sink, event="request.admitted")
        assert admitted["orderer"] == "anyk"

    def test_auto_stream_is_byte_identical_to_pi(self, movies):
        # The whole point of the resolution rule: switching the default
        # must be invisible on the wire.
        service = make_service(movies)
        auto = service.execute(QueryRequest(query=movies.query))
        explicit = service.execute(
            QueryRequest(query=movies.query, orderer="pi")
        )
        assert auto.status == explicit.status == "ok"
        encode = lambda result: [  # noqa: E731
            protocol.encode_line(protocol.batch_record("x", batch))
            for batch in result.batches
        ]
        assert encode(auto) == encode(explicit)

    def test_unknown_measure_still_reports_error(self, movies):
        service = make_service(movies)
        result = service.execute(
            QueryRequest(query=movies.query, measure="nope")
        )
        assert result.status == "error"
        assert "unknown measure" in (result.error or "")
