"""Tests for the anytime session, inline and pipelined."""

import io
import threading
import time

import pytest

from repro.errors import ExecutionError, TransientExecutionError
from repro.execution.mediator import Mediator
from repro.observability.journal import EventJournal
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import Tracer
from repro.ordering.bruteforce import PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.resilience.chaos import ChaosBackend, ChaosProfile, FaultProfile
from repro.service import session as session_module
from repro.service.backends import InMemoryBackend
from repro.service.policy import CancellationToken, RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, QueryService
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost
from repro.workloads.movies import movie_domain
from tests.journal_reader import events
from tests.service.helpers import BACKENDS, backoff, calm_chaos, run


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
        batches, report = run(
            session, movies.query, utility, orderer=PIOrderer(utility)
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
        batches, _ = run(
            session, movies.query, utility, orderer=GreedyOrderer(utility)
        )
        assert [batch_signature(b) for b in batches] == expected

    def test_repeated_runs_are_deterministic(self, movies, backend):
        utility = LinearCost()
        mediator = Mediator(movies.catalog, movies.source_facts)
        session = PipelinedSession(
            mediator, executor_workers=4, backend=BACKENDS[backend]()
        )
        first, _ = run(session, movies.query, utility)
        second, _ = run(session, movies.query, utility)
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
        batches, report = run(
            session, movies.query, utility, policy=RequestPolicy(max_plans=3)
        )
        assert [batch_signature(b) for b in batches] == expected
        assert report.plans_processed == 3

    def test_first_k_answers_stops_early(self, movies, backend):
        utility = LinearCost()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            backend=BACKENDS[backend](),
        )
        batches, report = run(
            session, movies.query, utility, policy=RequestPolicy(first_k_answers=2)
        )
        assert report.satisfied
        assert report.answers >= 2
        total = len(set().union(*(b.new_answers for b in batches)))
        assert total == report.answers
        # A full run has more plans than the satisfied prefix.
        full, _ = run(session, movies.query, utility)
        assert len(batches) < len(full)

    def test_a_satisfied_request_stops_ordering(
        self, movies, backend, monkeypatch
    ):
        # Once the consumer has left, the producer orders at most the
        # plan it was ordering then: every later plan is work nobody
        # reads.  Only plans ordered after the consumer set the
        # request's stop event count, and until the request is
        # satisfied the orderer waits for the consumer to come within
        # two batches before it orders another plan, so a starved
        # consumer cannot let the pipeline finish the space first.
        runs, batches, left_when_ordered = [], [], []
        consumed = threading.Condition()

        class Recorded(session_module._SessionRun):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        class Paced(PIOrderer):
            def order(self, *args, **kwargs):
                for plan in super().order(*args, **kwargs):
                    left_when_ordered.append(runs[-1].stop.is_set())
                    yield plan
                    with consumed:
                        while not (
                            len(batches) + 2 > len(left_when_ordered)
                            or session.last_report.satisfied
                        ):
                            consumed.wait(timeout=0.005)

        monkeypatch.setattr(session_module, "_SessionRun", Recorded)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            executor_workers=1, queue_depth=1, backend=BACKENDS[backend](),
        )
        for batch in session.stream(
            movies.query, LinearCost(),
            orderer=Paced(LinearCost()),
            policy=RequestPolicy(first_k_answers=1),
        ):
            with consumed:
                batches.append(batch)
                consumed.notify_all()
        assert session.last_report.satisfied and len(batches) < 9
        assert sum(left_when_ordered) <= 1
        assert len(left_when_ordered) < movies.space.size


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestDeadlinesAndCancellation:
    def test_expired_deadline_returns_partial_not_raises(self, movies, backend):
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            backend=BACKENDS[backend](),
        )
        batches, report = run(
            session, movies.query, LinearCost(), policy=RequestPolicy(deadline_s=0.0)
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
        batches, report = run(
            session, movies.query,
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
        full, report = run(session, movies.query, utility)
        assert report.exhausted
        assert full[0].rank == 1


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_an_orderer_failure_reaches_the_consumer(movies, backend):
    # On the pipeline the orderer runs on the producer thread: its
    # exception must end the stream on the consumer, not end it quietly.
    class Failing(PIOrderer):
        def order(self, *args, **kwargs):
            for rank, plan in enumerate(super().order(*args, **kwargs), 1):
                if rank == 3:
                    raise RuntimeError("the orderer broke")
                yield plan

    session = PipelinedSession(
        Mediator(movies.catalog, movies.source_facts),
        backend=BACKENDS[backend](),
    )
    delivered = []
    with pytest.raises(RuntimeError, match="the orderer broke"):
        for batch in session.stream(
            movies.query, LinearCost(), orderer=Failing(LinearCost()),
            # Bounds the wait should the failure never reach the consumer.
            policy=RequestPolicy(deadline_s=10.0),
        ):
            delivered.append(batch.rank)
    assert delivered == [1, 2]


class FailFirst(ChaosBackend):
    """A calm chaos backend failing the first *n* attempts of each plan."""

    def __init__(self, n):
        super().__init__(ChaosProfile("calm", {}))
        self.n = n
        self.attempts = {}

    def execute(self, executable, database):
        signature = str(executable)
        with self._lock:
            attempt = self.attempts[signature] = self.attempts.get(signature, 0) + 1
        if attempt <= self.n:
            raise TransientExecutionError(f"attempt {attempt} of {signature}")
        return super().execute(executable, database)


class TestRetries:
    @pytest.fixture(autouse=True)
    def no_backoff(self):
        with backoff(0.0, 0.0):
            yield

    def test_transient_failures_are_retried_to_success(self, movies):
        backend = FailFirst(2)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), backend=backend
        )
        policy = RequestPolicy(retry=RetryPolicy(max_attempts=3))
        batches, report = run(session, movies.query, LinearCost(), policy=policy)
        assert report.status == "ok"
        assert report.exhausted
        assert report.retries >= 2
        assert set(backend.attempts.values()) == {3}  # two failed, one ran
        assert any(b.answers for b in batches)

    def test_exhausted_retries_raise_execution_error(self, movies):
        backend = FailFirst(5)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), backend=backend
        )
        policy = RequestPolicy(retry=RetryPolicy(max_attempts=2))
        with pytest.raises(ExecutionError, match="attempt"):
            run(session, movies.query, LinearCost(), policy=policy)

    def test_flaky_equivalence_once_retries_win(self, movies):
        """With enough attempts the flaky run produces the exact
        sequential batch stream — failures only cost time."""
        utility = LinearCost()
        sequential = Mediator(movies.catalog, movies.source_facts)
        expected = [
            batch_signature(b) for b in sequential.answer(movies.query, utility)
        ]
        backend = ChaosBackend(
            ChaosProfile("flaky", {}, default=FaultProfile(transient_prob=0.4)),
            seed=11,
        )
        sink = io.StringIO()
        session = PipelinedSession(
            Mediator(
                movies.catalog, movies.source_facts,
                journal=EventJournal(stream=sink),
            ),
            backend=backend,
        )
        policy = RequestPolicy(retry=RetryPolicy(max_attempts=50))
        batches, report = run(session, movies.query, utility, policy=policy)
        assert [batch_signature(b) for b in batches] == expected
        assert report.retries == backend.failures_injected > 0
        # One ``plan.retry`` before each backoff pause.
        assert len(events(sink, event="plan.retry")) == report.retries
        retries = session.mediator.registry.counter("service.retries")
        assert retries.value == report.retries


class TestInstrumentation:
    def test_service_metrics_and_mediator_counters(self, movies):
        registry = MetricRegistry()
        mediator = Mediator(
            movies.catalog, movies.source_facts, registry=registry
        )
        session = PipelinedSession(mediator)
        batches, report = run(session, movies.query, LinearCost())
        value = lambda name: registry.counter(name).value  # noqa: E731
        assert value("mediator.plans_processed") == len(batches)
        assert value("mediator.sound_plans") == report.sound_plans
        execute_s = registry.histogram("service.execute_s")
        assert execute_s.count == report.sound_plans

    def test_workers_never_record_into_the_request_tracer(self, movies):
        # Spans are single-threaded: each worker records into its own
        # tracer, merged into the request's once the workers joined.
        threads = []

        class Watched(Tracer):
            def _pop(self, span):
                threads.append(threading.current_thread().name)
                super()._pop(span)

        tracer = Watched()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            backend=calm_chaos(),
            tracer=tracer,
        )
        _batches, report = run(session, movies.query, LinearCost())
        assert not [name for name in threads if "exec" in name]
        spans = tracer.as_dict()
        assert spans["execution.engine.execute"]["calls"] == report.sound_plans

    def test_report_timings_populated(self, movies):
        session = PipelinedSession(Mediator(movies.catalog, movies.source_facts))
        _, report = run(session, movies.query, LinearCost())
        assert report.elapsed_s > 0.0
        assert report.first_answer_s is not None
        assert 0.0 < report.first_answer_s <= report.elapsed_s


class PaddedBackend(InMemoryBackend):
    """In-memory execution behind a fixed sleep per plan, so execution
    dominates ordering: the regime the pipeline is for."""

    def __init__(self, blocking: bool) -> None:
        self.blocking = blocking

    def execute(self, executable, database):
        time.sleep(PAD_S)
        return super().execute(executable, database)


#: Per-plan execution padding: large against ordering (< 1 ms a plan),
#: small against the suite (9 plans, two runs).
PAD_S = 0.02
#: Scheduler-noise allowance for both comparisons.
SLACK_S = 0.25


class TestPipeliningNeverDelays:
    """Overlapping ordering with execution can only move answers
    earlier: the producer does the sequential loop's per-plan work
    before each hand-off.  The sequential side is the same session over
    the same padded backend declared non-blocking, which runs every
    stage inline as ``Mediator.answer`` does."""

    @pytest.fixture(scope="class")
    def reports(self):
        movies, reports = movie_domain(), {}
        for name, blocking in (("sequential", False), ("pipelined", True)):
            session = PipelinedSession(
                Mediator(movies.catalog, movies.source_facts),
                executor_workers=3,
                queue_depth=8,
                backend=PaddedBackend(blocking),
            )
            _, reports[name] = run(
                session, movies.query, LinearCost(), orderer=PIOrderer(LinearCost())
            )
        return reports

    def test_first_answer_no_later_than_sequential(self, reports):
        sequential, pipelined = reports["sequential"], reports["pipelined"]
        assert sequential.first_answer_s is not None
        assert pipelined.first_answer_s <= sequential.first_answer_s + SLACK_S

    def test_full_drain_no_later_than_sequential(self, reports):
        sequential, pipelined = reports["sequential"], reports["pipelined"]
        assert pipelined.exhausted and sequential.exhausted
        assert pipelined.elapsed_s <= sequential.elapsed_s + SLACK_S


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
    batches, report = run(session, movies.query, LinearCost())
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
        batches, report = run(
            session, movies.query,
            LinearCost(),
            orderer=Recording(LinearCost()),
            policy=RequestPolicy(cancellation=token),
        )
        assert batches == [] and report.cancelled
        assert ordered_on == []
