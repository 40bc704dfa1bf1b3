"""Tests for the anytime session, inline and pipelined."""

import threading
import time

import pytest

from repro.errors import ExecutionError
from repro.execution.mediator import Mediator
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.ordering.bruteforce import PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.service.backends import FlakyBackend, InMemoryBackend
from repro.service.policy import CancellationToken, RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, QueryService
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost
from tests.service.helpers import BACKENDS, calm_chaos


def batch_signature(batch):
    return (
        batch.rank,
        batch.plan.key,
        batch.utility,
        batch.sound,
        batch.answers,
        batch.new_answers,
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestEquivalenceWithSequentialMediator:
    @pytest.mark.parametrize("workers,depth", [(1, 1), (2, 4), (4, 8)])
    def test_identical_batch_stream_on_movies(
        self, movies, backend, workers, depth
    ):
        utility = LinearCost()
        sequential = Mediator(movies.catalog, movies.source_facts)
        expected = [
            batch_signature(b)
            for b in sequential.answer(
                movies.query, utility, orderer=PIOrderer(utility)
            )
        ]
        mediator = Mediator(movies.catalog, movies.source_facts)
        session = PipelinedSession(
            mediator, executor_workers=workers, queue_depth=depth,
            backend=BACKENDS[backend](),
        )
        batches, report = session.run(
            movies.query, utility, orderer=PIOrderer(utility)
        )
        assert [batch_signature(b) for b in batches] == expected
        assert report.status == "ok"
        assert report.exhausted
        assert report.plans_processed == len(expected)

    def test_greedy_orderer_with_on_emit_feedback(self, movies, backend):
        """Greedy consults on_emit (conditional utility) — the sharpest
        check that the producer answers soundness before resumption."""
        utility = LinearCost()
        sequential = Mediator(movies.catalog, movies.source_facts)
        expected = [
            batch_signature(b)
            for b in sequential.answer(
                movies.query, utility, orderer=GreedyOrderer(utility)
            )
        ]
        mediator = Mediator(movies.catalog, movies.source_facts)
        session = PipelinedSession(
            mediator, executor_workers=3, backend=BACKENDS[backend]()
        )
        batches, _ = session.run(
            movies.query, utility, orderer=GreedyOrderer(utility)
        )
        assert [batch_signature(b) for b in batches] == expected

    def test_repeated_runs_are_deterministic(self, movies, backend):
        utility = LinearCost()
        mediator = Mediator(movies.catalog, movies.source_facts)
        session = PipelinedSession(
            mediator, executor_workers=4, backend=BACKENDS[backend]()
        )
        first, _ = session.run(movies.query, utility)
        second, _ = session.run(movies.query, utility)
        assert [batch_signature(b) for b in first] == [
            batch_signature(b) for b in second
        ]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestBudgets:
    def test_max_plans_truncates_like_mediator(self, movies, backend):
        utility = LinearCost()
        sequential = Mediator(movies.catalog, movies.source_facts)
        expected = [
            batch_signature(b)
            for b in sequential.answer(movies.query, utility, max_plans=3)
        ]
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            backend=BACKENDS[backend](),
        )
        batches, report = session.run(
            movies.query, utility, policy=RequestPolicy(max_plans=3)
        )
        assert [batch_signature(b) for b in batches] == expected
        assert report.plans_processed == 3

    def test_first_k_answers_stops_early(self, movies, backend):
        utility = LinearCost()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            backend=BACKENDS[backend](),
        )
        batches, report = session.run(
            movies.query, utility, policy=RequestPolicy(first_k_answers=2)
        )
        assert report.satisfied
        assert report.answers >= 2
        total = len(set().union(*(b.new_answers for b in batches)))
        assert total == report.answers
        # A full run has more plans than the satisfied prefix.
        full, _ = session.run(movies.query, utility)
        assert len(batches) < len(full)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestDeadlinesAndCancellation:
    def test_expired_deadline_returns_partial_not_raises(self, movies, backend):
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            backend=BACKENDS[backend](),
        )
        batches, report = session.run(
            movies.query, LinearCost(), policy=RequestPolicy(deadline_s=0.0)
        )
        assert batches == []
        assert report.deadline_exceeded
        assert report.status == "deadline_exceeded"
        assert not report.cancelled

    def test_pre_cancelled_token_reports_cancelled(self, movies, backend):
        token = CancellationToken()
        token.cancel()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            backend=BACKENDS[backend](),
        )
        batches, report = session.run(
            movies.query,
            LinearCost(),
            policy=RequestPolicy(cancellation=token),
        )
        assert batches == []
        assert report.status == "cancelled"

    def test_cancel_mid_stream(self, movies, backend):
        token = CancellationToken()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            executor_workers=1,
            queue_depth=1,
            backend=BACKENDS[backend](),
        )
        stream = session.stream(
            movies.query,
            LinearCost(),
            policy=RequestPolicy(cancellation=token),
        )
        first = next(stream)
        assert first.rank == 1
        token.cancel()
        remaining = list(stream)
        report = session.last_report
        assert report.cancelled
        # Nothing is delivered once the token is cancelled.
        assert remaining == []

    def test_cancel_from_on_batch_delivers_no_further_batch(self, movies, backend):
        # Fails at the parent commit on the pipeline: take() returned a
        # rank already published before it looked at the token, so with
        # every plan executed ahead (the sleep below) the cancelled
        # request delivered all nine batches and ended ok.
        token = CancellationToken()
        delivered = []

        def on_batch(batch):
            delivered.append(batch.rank)
            time.sleep(0.2)  # a pipeline's workers run every plan meanwhile
            token.cancel()

        service = QueryService(
            movies.catalog, movies.source_facts, backend=BACKENDS[backend]()
        )
        result = service.execute(
            QueryRequest(movies.query, policy=RequestPolicy(cancellation=token)),
            on_batch=on_batch,
        )
        assert delivered == [1]
        assert result.status == "cancelled"

    def test_early_consumer_break_leaves_session_reusable(self, movies, backend):
        utility = LinearCost()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            queue_depth=2,
            backend=BACKENDS[backend](),
        )
        stream = session.stream(movies.query, utility)
        next(stream)
        stream.close()  # consumer walks away after one batch
        # The same session streams the identical full run afterwards.
        full, report = session.run(movies.query, utility)
        assert report.exhausted
        assert full[0].rank == 1


class TestRetries:
    def test_transient_failures_are_retried_to_success(self, movies):
        backend = FlakyBackend(failure_prob=0.0, fail_first=2)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), backend=backend
        )
        policy = RequestPolicy(
            retry=RetryPolicy(max_attempts=3, base_s=0.0, cap_s=0.0)
        )
        batches, report = session.run(movies.query, LinearCost(), policy=policy)
        assert report.status == "ok"
        assert report.exhausted
        assert report.retries >= 2
        assert backend.failures_injected > 0
        assert any(b.answers for b in batches)

    def test_exhausted_retries_raise_execution_error(self, movies):
        backend = FlakyBackend(failure_prob=0.0, fail_first=5)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), backend=backend
        )
        policy = RequestPolicy(
            retry=RetryPolicy(max_attempts=2, base_s=0.0, cap_s=0.0)
        )
        with pytest.raises(ExecutionError, match="attempt"):
            session.run(movies.query, LinearCost(), policy=policy)

    def test_flaky_equivalence_once_retries_win(self, movies):
        """With enough attempts the flaky run produces the exact
        sequential batch stream — failures only cost time."""
        utility = LinearCost()
        sequential = Mediator(movies.catalog, movies.source_facts)
        expected = [
            batch_signature(b) for b in sequential.answer(movies.query, utility)
        ]
        backend = FlakyBackend(failure_prob=0.4, seed=11)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), backend=backend
        )
        policy = RequestPolicy(
            retry=RetryPolicy(max_attempts=50, base_s=0.0, cap_s=0.0)
        )
        batches, _ = session.run(movies.query, utility, policy=policy)
        assert [batch_signature(b) for b in batches] == expected


class TestInstrumentation:
    def test_service_metrics_and_mediator_counters(self, movies):
        registry = MetricRegistry()
        mediator = Mediator(
            movies.catalog, movies.source_facts, registry=registry
        )
        session = PipelinedSession(mediator)
        batches, report = session.run(movies.query, LinearCost())
        value = lambda name: registry.counter(name).value  # noqa: E731
        assert value("service.plans_pipelined") == len(batches)
        assert value("mediator.plans_processed") == len(batches)
        assert value("mediator.sound_plans") == report.sound_plans

    def test_tracer_adoption_is_restored(self, movies):
        tracer = Tracer(enabled=True)
        mediator = Mediator(movies.catalog, movies.source_facts)
        session = PipelinedSession(mediator, tracer=tracer)
        orderer = PIOrderer(LinearCost())
        assert orderer.tracer is NOOP_TRACER
        session.run(movies.query, LinearCost(), orderer=orderer)
        assert orderer.tracer is NOOP_TRACER
        assert "service.reformulate" in tracer

    def test_report_timings_populated(self, movies):
        session = PipelinedSession(Mediator(movies.catalog, movies.source_facts))
        _, report = session.run(movies.query, LinearCost())
        assert report.elapsed_s > 0.0
        assert report.first_answer_s is not None
        assert 0.0 < report.first_answer_s <= report.elapsed_s


def started_threads(movies, monkeypatch, backend):
    """Names of the threads one full movies request starts, in order."""
    started: list[str] = []
    original = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    session = PipelinedSession(
        Mediator(movies.catalog, movies.source_facts),
        executor_workers=3,
        backend=backend,
    )
    batches, report = session.run(movies.query, LinearCost())
    assert report.exhausted and len(batches) == 9
    return started


class TestThreadCensus:
    def test_an_in_memory_request_starts_no_thread(self, movies, monkeypatch):
        assert started_threads(movies, monkeypatch, InMemoryBackend()) == []

    def test_a_blocking_backend_starts_its_workers_before_its_producer(
        self, movies, monkeypatch
    ):
        # The producer is CPU-bound from its first instruction: started
        # first, it makes the consumer wait out a GIL switch interval
        # inside each following Thread.start().  Workers block on the
        # empty queue.
        assert started_threads(movies, monkeypatch, calm_chaos()) == [
            "repro-service-exec-0",
            "repro-service-exec-1",
            "repro-service-exec-2",
            "repro-service-producer",
        ]

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_an_aborted_request_orders_no_plan(self, movies, backend):
        # Recorded, not raised: a cancelled pipeline never surfaces the
        # producer's exception.
        ordered_on: list[str] = []

        class Recording(PIOrderer):
            def order(self, *args, **kwargs):
                ordered_on.append(threading.current_thread().name)
                yield from super().order(*args, **kwargs)

        token = CancellationToken()
        token.cancel()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            backend=BACKENDS[backend](),
        )
        batches, report = session.run(
            movies.query,
            LinearCost(),
            orderer=Recording(LinearCost()),
            policy=RequestPolicy(cancellation=token),
        )
        assert batches == [] and report.cancelled
        assert ordered_on == []


class TestValidation:
    def test_worker_and_queue_bounds(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        with pytest.raises(ExecutionError):
            PipelinedSession(mediator, executor_workers=0)
        with pytest.raises(ExecutionError):
            PipelinedSession(mediator, queue_depth=0)
