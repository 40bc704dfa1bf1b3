"""Cancellation and deadline at each hand-off of the blocking pipeline.

Over a blocking backend a request runs on three kinds of thread, and
they meet at three hand-offs: the producer putting a plan on a full
queue, a worker waiting on an empty one, and the consumer
(``_SessionRun.take``) waiting for the plan at its rank.  Each test
parks the pipeline at one hand-off with events it holds, aborts the
request there and only then opens the gates.  The request must end with
the abort's status, deliver no batch and execute no plan after it, and
leave no pipeline thread behind.

No test sleeps.  A deadline expires on a clock the test moves, and
``_TICK_S`` is stretched to 2 s, so an abort that is only noticed when a
poll runs out costs its request at least that long and fails the bound.

Two tests keep the real ``_TICK_S``, because nothing but a poll can
wake the consumer there: the producer on a full queue while every
worker is still executing, and a worker in a retry's backoff, the one
other place a request waits.  Both are held to the rest.

The inline path has no hand-off, but its one thread can wait in a
retry's backoff too; the last test cancels it there from another
thread.
"""

import threading
import time
from queue import Queue
from types import SimpleNamespace

import pytest

from repro.errors import TransientExecutionError
from repro.execution.mediator import Mediator
from repro.ordering.bruteforce import PIOrderer
from repro.service import policy as policy_module
from repro.service import session as session_module
from repro.service.backends import InMemoryBackend
from repro.service.policy import CancellationToken, RequestPolicy, RetryPolicy
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost
from tests.service.helpers import backoff

STRETCHED_TICK_S = 2.0
#: Bound on every wait for another thread: a broken pipeline fails, it
#: does not hang the suite.
WAIT_S = 30.0


class GatedBackend(InMemoryBackend):
    """Blocking execution that holds each plan until ``gate`` opens."""

    blocking = True

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.aborted = threading.Event()
        self.after_abort = 0

    def execute(self, executable, database):
        if self.aborted.is_set():
            self.after_abort += 1
        self.entered.set()
        assert self.gate.wait(WAIT_S)
        return super().execute(executable, database)


class FailingBackend(GatedBackend):
    """Every attempt fails in a retryable way."""

    def execute(self, executable, database):
        if self.aborted.is_set():
            self.after_abort += 1
        raise TransientExecutionError("the source flaked")


class GatedOrderer(PIOrderer):
    """PI, holding its first plan until ``gate`` opens."""

    def __init__(self, utility) -> None:
        super().__init__(utility)
        self.gate = threading.Event()
        self.reached = threading.Event()

    def order(self, *args, **kwargs):
        for rank, plan in enumerate(super().order(*args, **kwargs), 1):
            if rank == 1:
                self.reached.set()
                assert self.gate.wait(WAIT_S)
            yield plan


@pytest.fixture
def handoffs(monkeypatch):
    """The session's work queue, reporting the two queue hand-offs; a
    put on a full queue counts once ``armed`` (when set) is."""
    seen = SimpleNamespace(
        put_on_full=threading.Event(),
        get_on_empty=threading.Event(),
        armed=None,
    )

    class WatchedQueue(Queue):
        def put(self, item, block=True, timeout=None):
            if block and self.full() and (seen.armed is None or seen.armed.is_set()):
                seen.put_on_full.set()
            super().put(item, block, timeout)

        def get(self, block=True, timeout=None):
            if block and self.empty():
                seen.get_on_empty.set()
            return super().get(block, timeout)

    monkeypatch.setattr(session_module, "Queue", WatchedQueue)
    return seen


@pytest.fixture
def in_backoff(monkeypatch):
    """Set once a request starts sleeping out a retry's backoff."""
    entered = threading.Event()
    wait = session_module._SessionRun.wait

    def watched_wait(run, seconds):
        entered.set()
        return wait(run, seconds)

    monkeypatch.setattr(session_module._SessionRun, "wait", watched_wait)
    return entered


@pytest.fixture
def stretched_tick(monkeypatch):
    monkeypatch.setattr(session_module, "_TICK_S", STRETCHED_TICK_S)


@pytest.fixture
def clock(monkeypatch):
    """A monotonic clock for deadlines that only the test moves."""
    now = [0.0]
    monkeypatch.setattr(
        policy_module, "time", SimpleNamespace(monotonic=lambda: now[0])
    )
    return now


def abort(how, token, clock):
    if how == "cancelled":
        token.cancel()
    else:
        clock[0] += 120.0  # past the 60 s deadline


def drive(
    movies, how, clock, backend, *, at, orderer=None, retry=None,
    gates_after_producer=False, **pipeline
):
    """Run one request, aborting it once every event of *at* is set;
    then open every gate (with *gates_after_producer*, only once the
    producer thread has ended, or a poll later).

    Returns the report, the ranks of the batches delivered after the
    abort, and the seconds from the abort to the end of the stream.
    """
    session = PipelinedSession(
        Mediator(movies.catalog, movies.source_facts),
        backend=backend,
        **pipeline,
    )
    utility = LinearCost()
    orderer = orderer or PIOrderer(utility)
    token = CancellationToken()
    policy = RequestPolicy(
        deadline_s=60.0, cancellation=token, retry=retry or RetryPolicy()
    )
    aborted_at = []

    def aborter():
        for event in at:
            assert event.wait(WAIT_S), "the hand-off was never reached"
        aborted_at.append(time.perf_counter())
        backend.aborted.set()
        abort(how, token, clock)
        if gates_after_producer:
            (producer,) = [
                thread for thread in threading.enumerate()
                if thread.name == "repro-service-producer"
            ]
            producer.join(STRETCHED_TICK_S)
        backend.gate.set()
        if isinstance(orderer, GatedOrderer):
            orderer.gate.set()

    helper = threading.Thread(target=aborter, name="test-aborter")
    helper.start()
    late = []
    for batch in session.stream(
        movies.query, utility, orderer=orderer, policy=policy
    ):
        if backend.aborted.is_set():
            late.append(batch.rank)
    ended = time.perf_counter()
    helper.join(WAIT_S)
    return session.last_report, late, ended - aborted_at[0]


def assert_clean_abort(how, backend, report, late, wall, executed_after=0):
    assert report.status == how
    assert late == [], "a batch was delivered after the abort"
    assert backend.after_abort == executed_after, "plans executed after the abort"
    assert wall < STRETCHED_TICK_S / 2, f"{wall:.2f}s: the abort waited a poll"
    assert not [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-service-")
    ]


@pytest.mark.parametrize("how", ["cancelled", "deadline_exceeded"])
class TestHandOffs:
    def test_the_producer_on_a_full_queue(
        self, movies, handoffs, stretched_tick, clock, how
    ):
        # The one worker holds a plan, the next waits in the queue, and
        # the producer blocks putting the one after.
        backend = GatedBackend()
        outcome = drive(
            movies, how, clock, backend,
            at=(handoffs.put_on_full,),
            executor_workers=1, queue_depth=1,
        )
        assert_clean_abort(how, backend, *outcome)

    def test_the_producer_on_a_full_queue_while_the_workers_execute(
        self, movies, handoffs, clock, how
    ):
        # As above, but the worker stays in its plan until the producer
        # has ended: only the consumer, on its way out, can make room.
        # The real ``_TICK_S``: nothing wakes the consumer but a poll.
        backend = GatedBackend()
        handoffs.armed = backend.entered  # the worker holds its plan
        outcome = drive(
            movies, how, clock, backend,
            at=(handoffs.put_on_full,), gates_after_producer=True,
            executor_workers=1, queue_depth=1,
        )
        assert_clean_abort(how, backend, *outcome)

    def test_a_worker_on_an_empty_queue(
        self, movies, handoffs, stretched_tick, clock, how
    ):
        # The orderer holds plan 1, so the workers wait on an empty
        # queue; the plan it lets go after the abort is not executed.
        backend, orderer = GatedBackend(), GatedOrderer(LinearCost())
        outcome = drive(
            movies, how, clock, backend,
            at=(handoffs.get_on_empty, orderer.reached),
            orderer=orderer,
            executor_workers=2, queue_depth=8,
        )
        assert_clean_abort(how, backend, *outcome)

    def test_the_consumer_waiting_on_a_rank(
        self, movies, handoffs, stretched_tick, clock, how
    ):
        # The one worker holds the first sound plan, and the queue has
        # room for every other plan and the marker: only that worker
        # and the consumer wait.
        backend = GatedBackend()
        outcome = drive(
            movies, how, clock, backend,
            at=(backend.entered,),
            executor_workers=1, queue_depth=16,
        )
        assert_clean_abort(how, backend, *outcome)

    def test_a_worker_in_a_retry_backoff(self, movies, clock, in_backoff, how):
        # The one worker waits out a 30 s backoff after its first failed
        # attempt.  The abort wakes it, and no further attempt runs.
        backend = FailingBackend()
        with backoff(30.0, 30.0):
            outcome = drive(
                movies, how, clock, backend,
                at=(in_backoff,), retry=RetryPolicy(max_attempts=50),
                executor_workers=1, queue_depth=1,
            )
        assert_clean_abort(how, backend, *outcome)


class InlineFailingBackend(FailingBackend):
    """Every attempt fails in a retryable way, on the inline path."""

    blocking = False


def test_an_inline_backoff_ends_on_cancellation(movies, in_backoff):
    # Inline, the thread in the backoff is the consumer itself, so
    # only the request's token can wake it: a cancellation from
    # another thread ends the request at once, not a backoff later.
    backend = InlineFailingBackend()
    session = PipelinedSession(
        Mediator(movies.catalog, movies.source_facts), backend=backend
    )
    token = CancellationToken()
    policy = RequestPolicy(
        cancellation=token, retry=RetryPolicy(max_attempts=50)
    )

    def canceller():
        assert in_backoff.wait(WAIT_S), "no backoff was reached"
        backend.aborted.set()
        token.cancel()

    helper = threading.Thread(target=canceller, name="test-canceller")
    helper.start()
    started = time.perf_counter()
    with backoff(policy_module.BACKOFF_CAP_S, policy_module.BACKOFF_CAP_S):
        batches = list(
            session.stream(
                movies.query, LinearCost(), orderer=PIOrderer(LinearCost()),
                policy=policy,
            )
        )
    wall = time.perf_counter() - started
    helper.join(WAIT_S)
    assert session.last_report.status == "cancelled"
    assert batches == []
    assert backend.after_abort == 0, "an attempt ran after the cancellation"
    assert wall < policy_module.BACKOFF_CAP_S / 4, f"{wall:.2f}s: slept it out"
