"""The service's anytime session: inline, or pipelined where it pays.

``Mediator.answer`` drives the staged loop of
:class:`~repro.execution.mediator.AnytimeRun` inline, one plan at a
time.  The paper's Section 2 motivation is to overlap the two — *"the
mediator should begin executing the best plan while the ordering
algorithm computes the next ones"* — but that only pays while execution
*waits*: CPU-bound execution under one GIL leaves ordering nothing to
overlap with.  So :class:`PipelinedSession` asks its backend once, before
plan 1 (:attr:`~repro.service.backends.ExecutionBackend.blocking`).  A
backend that never waits gets every stage on the calling thread, as the
inline driver runs them: no thread, queue or hand-off.  One that blocks
gets the **pipeline**: a producer thread runs the ``plans`` stage
(orderer + soundness test) into a queue at most ``queue_depth`` plans
ahead of execution, and ``executor_workers`` threads run the
``execute`` stage over a read-only view of the source instances, with
this session's retry schedule for transient backend failures.

Either way the **consumer** (the thread iterating :meth:`stream`) takes
plans in rank order and settles each in one loop, so the batch stream
is the inline driver's, plan for plan and byte for byte.  The ``plans``
stage decides plan ``i``'s soundness before the orderer is resumed,
whichever thread runs it, so the emitted plan sequence cannot diverge;
execution results never influence the ordering, so executing plans out
of order is unobservable once the consumer has put them back in rank
order — that reassembly is the pipeline's half of the argument.

Deadlines and cancellation are cooperative: checked between plans, they
end the stream early with :attr:`SessionReport.deadline_exceeded` or
``cancelled`` set instead of raising, so partial results always reach
the caller.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext, suppress
from queue import Empty, Full, Queue
from typing import Callable, Iterator, Optional

from repro.datalog.query import ConjunctiveQuery
from repro.execution.mediator import (
    AnswerBatch,
    AnytimeRun,
    Mediator,
    SessionReport,
    StagedPlan,
)
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.ordering.base import PlanOrderer
from repro.service.backends import ExecutionBackend, InMemoryBackend
from repro.service.policy import RequestPolicy
from repro.utility.base import UtilityMeasure

__all__ = ["PipelinedSession", "SessionReport"]

#: How often the consumer looks for a cancellation or a deadline while
#: it waits for a rank, and how long it gives a thread to stop.  Only a
#: liveness bound: hand-offs and shutdown are notification-driven and
#: never wait this long.
_TICK_S = 0.05

#: Queue marker: no more plans.  One is enough for the whole pool —
#: each worker that takes it leaves it for the next.
_DONE = object()

#: Where the stream ends when the plan budget is drained.
_EXHAUSTED = object()


class _SessionRun:
    """The abort state of one in-flight request, and the pipeline's results.

    Also the ``backoff`` the execute stage consults: retries stop at
    the policy's attempt limit or as soon as the request is aborted,
    and backoff sleeps end early on cancellation, on shutdown or at the
    deadline.
    """

    def __init__(self, policy: RequestPolicy, pipelined: bool) -> None:
        self.cond = threading.Condition()
        #: The pipeline's result at each rank: an executed plan, or how
        #: the stream ends there — ``_EXHAUSTED``, the producer's
        #: exception, or None (an aborted producer or abandoned plan).
        self.results: dict[int, object] = {}
        self.stop = threading.Event()
        self.retry = policy.retry
        self.deadline = policy.start_deadline()
        self.token = policy.token()
        #: What a backoff sleeps on: ``stop``, which the consumer sets as
        #: it leaves, unless the consumer is the sleeper (inline).
        self.wake = self.stop if pipelined else self.token

    def aborted(self) -> bool:
        return (
            self.stop.is_set() or self.token.cancelled or self.deadline.expired
        )

    def delay(self, failed_attempts: int) -> Optional[float]:
        if failed_attempts >= self.retry.max_attempts or self.aborted():
            return None
        return self.retry.delay(failed_attempts)

    def wait(self, seconds: float) -> bool:
        """Sleep out a backoff; True to try again, False once aborted."""
        self.wake.wait(self.deadline.clamp(seconds))
        return not self.aborted()

    def publish(self, rank: int, result: object) -> None:
        with self.cond:
            self.results[rank] = result
            self.cond.notify_all()

    def take(self, rank: int) -> object:
        """Block for the result at *rank*; None once the request aborts,
        even if that result is already published."""
        with self.cond:
            while not self.aborted():
                if rank in self.results:
                    return self.results.pop(rank)
                self.cond.wait(timeout=_TICK_S)
        return None


def _drain(work_q: Queue) -> None:
    with suppress(Empty):
        while True:
            work_q.get_nowait()


def _leave_done(work_q: Queue) -> None:
    """Put the ``_DONE`` marker (back) for the next worker to find.

    Only called once nothing but markers can enter the queue any more,
    so a full queue already holds one.
    """
    with suppress(Full):
        work_q.put_nowait(_DONE)


class PipelinedSession:
    """Runs queries through a mediator, pipelined over a blocking backend.

    One session instance serves one request at a time (the service
    layer creates a session per admitted request); the mediator — and
    with it the registry, journal and resilience manager every session
    on it shares — and the backend may be shared freely.
    ``executor_workers`` and ``queue_depth`` size the pipeline only;
    :class:`~repro.service.server.ServiceConfig` checks their bounds.
    """

    def __init__(
        self,
        mediator: Mediator,
        *,
        executor_workers: int = 2,
        queue_depth: int = 8,
        backend: Optional[ExecutionBackend] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.mediator = mediator
        self.executor_workers = executor_workers
        self.queue_depth = queue_depth
        self.backend = backend if backend is not None else InMemoryBackend()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.last_report: Optional[SessionReport] = None
        registry = mediator.registry
        self._retries = registry.counter("service.retries")
        self._execute_hist = registry.histogram("service.execute_s")

    def stream(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
        *,
        orderer: Optional[PlanOrderer] = None,
        policy: Optional[RequestPolicy] = None,
        request_id: str = "",
    ) -> Iterator[AnswerBatch]:
        """Yield answer batches in emission order.

        The stages of ``Mediator.answer`` — same plans, same order,
        same batches — on this thread, or overlapped across threads
        over a blocking backend.  After the generator finishes (or is
        closed early), :attr:`last_report` describes the run;
        ``request_id`` correlates its journal events.
        """
        policy = policy if policy is not None else RequestPolicy()
        backend = self.backend
        # Decided once, before plan 1: threads buy overlap only while
        # execution waits, and whether it can is the backend's to say.
        pipelined = backend.blocking
        run = _SessionRun(policy, pipelined)
        core = AnytimeRun(
            self.mediator, query, utility,
            orderer=orderer, max_plans=policy.max_plans,
            request_id=request_id, tracer=self.tracer,
        )
        report = self.last_report = core.report
        plans = core.plans()
        database = self.mediator.execution_database()

        def run_query(executable: ConjunctiveQuery) -> frozenset:
            return backend.execute(executable, database)

        def executor(tracer: Tracer) -> Callable[[StagedPlan], None]:
            return lambda item: core.execute(item, run_query, run, tracer)

        if pipelined:
            source = self._pipeline(run, plans, executor)
        else:
            execute = executor(self.tracer)

            def take(_rank: int) -> object:
                if run.aborted():
                    return None
                item = next(plans, _EXHAUSTED)
                if item is not _EXHAUSTED:
                    execute(item)
                    if item.error is not None and run.aborted():
                        return None  # the abort cut its retries short
                return item

            source = nullcontext(take)
        try:
            with source as take_next:
                rank = 1
                while True:
                    item = take_next(rank)
                    if not isinstance(item, StagedPlan):
                        if isinstance(item, BaseException):
                            raise item
                        if item is _EXHAUSTED:
                            report.exhausted = True
                        elif run.token.cancelled:
                            report.cancelled = True
                        else:
                            # Deadline — seen by take, by a worker that
                            # then abandoned this plan, or only by the
                            # producer before it stopped early.
                            report.deadline_exceeded = True
                        return
                    batch = core.settle(item)
                    with self.mediator.registry.lock:
                        self._retries.inc(item.retries)
                        if item.execute_s:
                            self._execute_hist.observe(item.execute_s)
                    yield batch
                    rank += 1
                    if (
                        policy.first_k_answers is not None
                        and report.answers >= policy.first_k_answers
                    ):
                        report.satisfied = True
                        return
        finally:
            core.close()

    @contextmanager
    def _pipeline(self, run: _SessionRun, plans: Iterator[StagedPlan], executor):
        """Start the producer and the workers and yield ``run.take``;
        on the way out, stop every thread and collect it."""
        work_q: Queue = Queue(maxsize=self.queue_depth)

        def produce() -> None:
            produced = 0
            end: object = None  # aborted: deadline, cancel or shutdown
            try:
                while not run.aborted():
                    item = next(plans, None)
                    if item is None:
                        end = _EXHAUSTED
                        break
                    # On a full queue this blocks until a worker takes
                    # a plan, or the consumer drains the queue on its
                    # way out (see the ``finally`` below).
                    work_q.put(item)
                    produced += 1
            except BaseException as exc:  # surfaced on the consumer
                end = exc
            finally:
                run.publish(produced + 1, end)

        def work(tracer: Tracer) -> None:
            execute = executor(tracer)
            # The consumer leaves ``_DONE`` on its way out, so a worker
            # waiting here is always woken.
            while (item := work_q.get()) is not _DONE:
                abandoned = run.aborted()
                if not abandoned:
                    execute(item)
                run.publish(item.ordered.rank, None if abandoned else item)
            _leave_done(work_q)

        producer = threading.Thread(
            target=produce, name="repro-service-producer", daemon=True
        )
        # Tracers are single-threaded recorders, so every worker gets a
        # private one; they fold into the session tracer after the
        # workers have quiesced (see the ``finally`` below).
        worker_tracers = [
            Tracer(enabled=self.tracer.enabled)
            for _ in range(self.executor_workers)
        ]
        workers = [
            threading.Thread(
                target=work,
                args=(worker_tracers[i],),
                name=f"repro-service-exec-{i}",
                daemon=True,
            )
            for i in range(self.executor_workers)
        ]
        try:
            # Workers first: they block on the empty queue at once.  A
            # CPU-bound producer started first makes this thread wait
            # out a GIL switch interval inside every later start().
            for worker in workers:
                worker.start()
            producer.start()
            yield run.take
        finally:
            run.stop.set()
            # Unblock a producer stuck on a full queue, then collect
            # the threads; daemon flags are only a last resort.
            while producer.is_alive():
                _drain(work_q)
                producer.join(timeout=_TICK_S)
            # The producer is gone, so nothing refills the queue: empty
            # it and leave the marker that wakes every worker in turn.
            _drain(work_q)
            _leave_done(work_q)
            for worker in workers:
                worker.join(timeout=5 * _TICK_S)
            if self.tracer.enabled:
                # Workers have quiesced; their private spans fold into
                # the session tracer so ``--trace`` reports see them.
                for worker_tracer in worker_tracers:
                    if len(worker_tracer):
                        self.tracer.merge(worker_tracer)
