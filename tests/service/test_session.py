"""Tests for the pipelined anytime session."""

import threading

import pytest

from repro.errors import ExecutionError
from repro.execution.mediator import Mediator
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.ordering.bruteforce import PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.service.backends import FlakyBackend
from repro.service.policy import CancellationToken, RequestPolicy, RetryPolicy
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost


def batch_signature(batch):
    return (
        batch.rank,
        batch.plan.key,
        batch.utility,
        batch.sound,
        batch.answers,
        batch.new_answers,
    )


class TestEquivalenceWithSequentialMediator:
    @pytest.mark.parametrize("workers,depth", [(1, 1), (2, 4), (4, 8)])
    def test_identical_batch_stream_on_movies(self, movies, workers, depth):
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
            mediator, executor_workers=workers, queue_depth=depth
        )
        batches, report = session.run(
            movies.query, utility, orderer=PIOrderer(utility)
        )
        assert [batch_signature(b) for b in batches] == expected
        assert report.status == "ok"
        assert report.exhausted
        assert report.plans_processed == len(expected)

    def test_greedy_orderer_with_on_emit_feedback(self, movies):
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
        session = PipelinedSession(mediator, executor_workers=3)
        batches, _ = session.run(
            movies.query, utility, orderer=GreedyOrderer(utility)
        )
        assert [batch_signature(b) for b in batches] == expected

    def test_repeated_runs_are_deterministic(self, movies):
        utility = LinearCost()
        mediator = Mediator(movies.catalog, movies.source_facts)
        session = PipelinedSession(mediator, executor_workers=4)
        first, _ = session.run(movies.query, utility)
        second, _ = session.run(movies.query, utility)
        assert [batch_signature(b) for b in first] == [
            batch_signature(b) for b in second
        ]


class TestBudgets:
    def test_max_plans_truncates_like_mediator(self, movies):
        utility = LinearCost()
        sequential = Mediator(movies.catalog, movies.source_facts)
        expected = [
            batch_signature(b)
            for b in sequential.answer(movies.query, utility, max_plans=3)
        ]
        session = PipelinedSession(Mediator(movies.catalog, movies.source_facts))
        batches, report = session.run(
            movies.query, utility, policy=RequestPolicy(max_plans=3)
        )
        assert [batch_signature(b) for b in batches] == expected
        assert report.plans_processed == 3

    def test_first_k_answers_stops_early(self, movies):
        utility = LinearCost()
        session = PipelinedSession(Mediator(movies.catalog, movies.source_facts))
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


class TestDeadlinesAndCancellation:
    def test_expired_deadline_returns_partial_not_raises(self, movies):
        session = PipelinedSession(Mediator(movies.catalog, movies.source_facts))
        batches, report = session.run(
            movies.query, LinearCost(), policy=RequestPolicy(deadline_s=0.0)
        )
        assert batches == []
        assert report.deadline_exceeded
        assert report.status == "deadline_exceeded"
        assert not report.cancelled

    def test_pre_cancelled_token_reports_cancelled(self, movies):
        token = CancellationToken()
        token.cancel()
        session = PipelinedSession(Mediator(movies.catalog, movies.source_facts))
        batches, report = session.run(
            movies.query,
            LinearCost(),
            policy=RequestPolicy(cancellation=token),
        )
        assert batches == []
        assert report.status == "cancelled"

    def test_cancel_mid_stream(self, movies):
        token = CancellationToken()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            executor_workers=1,
            queue_depth=1,
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
        # The stream ended cleanly; whatever drained before the token
        # was observed is a clean prefix.
        ranks = [first.rank] + [b.rank for b in remaining]
        assert ranks == list(range(1, len(ranks) + 1))

    def test_early_consumer_break_leaves_session_reusable(self, movies):
        utility = LinearCost()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), queue_depth=2
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


class TestThreadStartOrder:
    def test_executor_workers_start_before_the_producer(self, movies, monkeypatch):
        # The producer is CPU-bound from its first instruction: started
        # first, it makes the consumer wait out a GIL switch interval
        # inside each following Thread.start() (5 ms apiece, on the
        # way to the first answer).  Workers block on the empty queue.
        started: list[str] = []
        original = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            original(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), executor_workers=3
        )
        batches, _report = session.run(movies.query, LinearCost())
        assert batches
        assert started == [
            "repro-service-exec-0",
            "repro-service-exec-1",
            "repro-service-exec-2",
            "repro-service-producer",
        ]

    def test_the_first_plan_is_ordered_before_the_producer_starts(self, movies):
        # Ordered on the producer, the head spends part of the switch
        # interval the consumer waits out inside producer.start(): how
        # many plans are ready when it ends — what the first batches
        # carry — then hangs on the host's speed.
        class Recording(PIOrderer):
            def order(self, *args, **kwargs):
                for ordered in super().order(*args, **kwargs):
                    ordered_on.append(threading.current_thread().name)
                    yield ordered

        ordered_on: list[str] = []
        session = PipelinedSession(Mediator(movies.catalog, movies.source_facts))
        batches, _report = session.run(
            movies.query, LinearCost(), orderer=Recording(LinearCost())
        )
        assert len(batches) == len(ordered_on) > 1
        assert ordered_on[0] == threading.current_thread().name
        assert set(ordered_on[1:]) == {"repro-service-producer"}

    def test_an_aborted_request_orders_no_plan(self, movies):
        class Untouched(PIOrderer):
            def order(self, *args, **kwargs):
                raise AssertionError("ordered a plan for a cancelled request")
                yield

        token = CancellationToken()
        token.cancel()
        session = PipelinedSession(Mediator(movies.catalog, movies.source_facts))
        batches, report = session.run(
            movies.query,
            LinearCost(),
            orderer=Untouched(LinearCost()),
            policy=RequestPolicy(cancellation=token),
        )
        assert batches == [] and report.cancelled


class TestValidation:
    def test_worker_and_queue_bounds(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        with pytest.raises(ExecutionError):
            PipelinedSession(mediator, executor_workers=0)
        with pytest.raises(ExecutionError):
            PipelinedSession(mediator, queue_depth=0)
