"""Tests for the multi-query service: concurrency, sharing, shedding."""

import gc
import threading
import weakref

import pytest

from repro.errors import ServiceError, ServiceOverloadedError
from repro.observability.journal import EventJournal
from repro.observability.metrics import MetricRegistry
from repro.service import protocol
from repro.service.policy import RequestPolicy
from repro.service.server import (
    AUTO_ORDERER,
    QueryRequest,
    QueryService,
    RequestResult,
    ServiceConfig,
    resolve_orderer_name,
)
from repro.utility.cost import LinearCost
from repro.utility.coverage import CoverageUtility


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
        assert result.ok
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

    def test_deadline_exceeded_is_a_status_not_an_error(self, movies):
        service = make_service(movies)
        result = service.execute(
            QueryRequest(
                query=movies.query, policy=RequestPolicy(deadline_s=0.0)
            )
        )
        assert result.deadline_exceeded
        assert result.error is None

    def test_per_request_tracing(self, movies):
        service = make_service(movies, trace_requests=True)
        result = service.execute(QueryRequest(query=movies.query))
        assert result.spans
        assert any("service" in path for path in result.spans)


class TestSharedState:
    def test_utility_cache_warms_across_requests(self, movies):
        service = make_service(movies)
        service.execute(QueryRequest(query=movies.query))
        measure = service.shared_measure("linear")
        hits_before = measure.hits
        result = service.execute(QueryRequest(query=movies.query))
        assert result.ok
        assert measure.hits > hits_before

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
            assert service.execute(QueryRequest(query=movies.query)).ok
        assert registry.counter("service.requests").value == 3
        assert registry.counter("service.completed").value == 3
        assert registry.counter("service.answers").value > 0
        assert registry.gauge("service.active").value == 0


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
        assert all(r.ok for r in results)
        answer_sets = {r.answers for r in results}
        assert len(answer_sets) == 1  # all byte-identical

    def test_submit_path_round_trip(self, movies):
        with make_service(movies) as service:
            pending = service.submit(QueryRequest(query=movies.query))
            result = pending.wait(timeout=30.0)
            assert result.ok
            assert result.answers

    def test_idle_dispatchers_do_not_pin_their_last_result(self, movies):
        dispatchers = 4
        service = make_service(movies, max_concurrent=dispatchers)
        # Hold every request until all are in flight, so that each
        # dispatcher thread serves exactly one.
        together = threading.Barrier(dispatchers)
        original = service._run_admitted

        def run_together(*args, **kwargs):
            together.wait(timeout=30.0)
            return original(*args, **kwargs)

        service._run_admitted = run_together
        with service:
            handles = [
                service.submit(QueryRequest(query=movies.query))
                for _ in range(dispatchers)
            ]
            results = [handle.wait(timeout=30.0) for handle in handles]
            assert all(result.ok and result.batches for result in results)
            batches = [weakref.ref(result.batches[0]) for result in results]
            # The service is idle and started: every dispatcher is
            # parked on the queue.  Only the caller holds the results.
            del handles, results
            gc.collect()
            assert [ref() for ref in batches] == [None] * dispatchers

    def test_submit_requires_started_service(self, movies):
        service = make_service(movies)
        with pytest.raises(ServiceError, match="start"):
            service.submit(QueryRequest(query=movies.query))

    def test_overload_sheds_with_service_overloaded_error(self, movies):
        # One slot, a backlog of one, and a slow request wedged in:
        # the queue fills and further submits must be rejected at once.
        service = make_service(movies, max_concurrent=1, backlog=1)
        gate = threading.Event()
        original = service._run_admitted

        def slow_run(*args, **kwargs):
            gate.wait(timeout=10.0)
            return original(*args, **kwargs)

        service._run_admitted = slow_run
        service.start()
        try:
            first = service.submit(QueryRequest(query=movies.query))
            deadline = threading.Event()
            overloaded = 0
            # The dispatcher may not have popped `first` yet, so allow
            # one more submit before rejection is guaranteed.
            for _ in range(3):
                try:
                    service.submit(QueryRequest(query=movies.query))
                except ServiceOverloadedError:
                    overloaded += 1
            assert overloaded >= 1
            assert not deadline.is_set()
        finally:
            gate.set()
            assert first.wait(timeout=30.0).ok
            service.shutdown()

    def test_rejected_when_admission_times_out(self, movies):
        service = make_service(movies, max_concurrent=1, admission_timeout_s=0.05)
        service._semaphore.acquire()  # wedge the only slot
        try:
            result = service.execute(QueryRequest(query=movies.query))
            assert result.status == "rejected"
        finally:
            service._semaphore.release()


class TestAutoOrderer:
    """The "auto" pseudo-orderer resolves per measure's monotonicity."""

    def test_auto_is_the_config_default(self):
        assert ServiceConfig().default_orderer == AUTO_ORDERER

    def test_monotonic_measure_resolves_to_anyk(self, movies):
        service = make_service(movies)
        utility = service.shared_measure("linear")
        assert utility.is_fully_monotonic
        assert resolve_orderer_name(AUTO_ORDERER, utility) == "anyk"

    def test_non_monotonic_measure_resolves_to_pi(self):
        assert not CoverageUtility.is_fully_monotonic
        assert resolve_orderer_name(AUTO_ORDERER, CoverageUtility) == "pi"

    def test_explicit_names_pass_through(self, movies):
        service = make_service(movies)
        utility = service.shared_measure("linear")
        for name in ("pi", "greedy", "anyk", "nonsense"):
            assert resolve_orderer_name(name, utility) == name

    def test_journal_logs_the_resolved_name(self, movies):
        journal = EventJournal()
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            journal=journal,
        )
        result = service.execute(QueryRequest(query=movies.query))
        assert result.ok
        (admitted,) = journal.events(event="request.admitted")
        assert admitted["orderer"] == "anyk"

    def test_auto_stream_is_byte_identical_to_pi(self, movies):
        # The whole point of the resolution rule: switching the default
        # must be invisible on the wire.
        service = make_service(movies)
        auto = service.execute(QueryRequest(query=movies.query))
        explicit = service.execute(
            QueryRequest(query=movies.query, orderer="pi")
        )
        assert auto.ok and explicit.ok
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
