"""The pipelined anytime session: ordering overlapped with execution.

``Mediator.answer`` drives the staged loop of
:class:`~repro.execution.mediator.AnytimeRun` inline: the orderer
cannot start computing plan ``i+1`` until plan ``i`` has finished
executing.  The paper's Section 2 motivation is the opposite — *"the
mediator should begin executing the best plan while the ordering
algorithm computes the next ones"*.  :class:`PipelinedSession` is the
second driver of the same stages, spread over threads:

* a **producer thread** runs the ``plans`` stage (orderer + soundness
  test) from the second plan on — the first is ordered by the consumer
  before that thread starts, when nothing could overlap with it —
  feeding a bounded queue (backpressure keeps the orderer at most
  ``queue_depth`` plans ahead of execution);
* a pool of **executor workers** runs the ``execute`` stage
  concurrently over a read-only view of the source instances, with
  this session's retry schedule for transient backend failures;
* the **consumer** (the thread iterating :meth:`stream`) reassembles
  results into emission order and runs ``settle`` on each — so the
  batch stream is *identical*, plan for plan and byte for byte, to the
  inline driver's.

What the core guarantees and what this module adds: the ``plans``
stage decides soundness for plan ``i`` immediately after the orderer
yields it, *before* the generator is resumed, whichever thread runs
it.  The orderers' ``on_emit`` callback (asked on resumption)
therefore sees the same answers in the same order, and the emitted
plan sequence cannot diverge.  Execution results never influence the
ordering, only their soundness bits do, so running executions out of
order is unobservable once the consumer has put them back in rank
order — that reassembly is this module's half of the argument.

Deadlines and cancellation are cooperative and clean: on expiry the
session stops pulling plans, drains in-flight work, and finishes the
batch stream early; :attr:`SessionReport.deadline_exceeded` is set
instead of raising, so partial results always reach the caller.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import suppress
from queue import Empty, Full, Queue
from typing import Iterator, Optional

from repro.errors import ExecutionError, InternalError
from repro.datalog.query import ConjunctiveQuery
from repro.execution.mediator import (
    AnswerBatch,
    AnytimeRun,
    Mediator,
    SessionReport,
    StagedPlan,
)
from repro.observability.tracing import Tracer
from repro.ordering.base import PlanOrderer
from repro.service.backends import ExecutionBackend, InMemoryBackend
from repro.service.policy import RequestPolicy
from repro.utility.base import UtilityMeasure

__all__ = ["PipelinedSession", "SessionReport"]

#: Poll granularity for queue hand-offs and condition waits.  Only a
#: liveness bound (threads notice stop/deadline at least this often);
#: normal hand-offs and shutdown are notification-driven and never
#: wait this long.
_TICK_S = 0.05

#: Queue marker: no more plans.  One is enough for the whole pool —
#: each worker that takes it leaves it for the next.
_DONE = object()

#: Published after the last plan when the producer drained its budget.
_EXHAUSTED = object()


class _SessionRun:
    """Thread-shared state of one in-flight pipelined request.

    Also the ``backoff`` the execute stage consults: retries stop at
    the policy's attempt limit or as soon as the request is aborted,
    and backoff sleeps end early on shutdown or at the deadline.
    """

    def __init__(self, policy: RequestPolicy, request_id: str) -> None:
        self.cond = threading.Condition()
        #: What the consumer finds at each rank: an executed plan, or
        #: how the stream ends there — ``_EXHAUSTED``, the producer's
        #: exception, or None for an aborted producer and for a plan a
        #: worker abandoned unexecuted (deadline or cancellation).
        self.results: dict[int, object] = {}
        self.stop = threading.Event()
        self.retry = policy.retry
        self.deadline = policy.start_deadline()
        self.token = policy.token()
        self.request_id = request_id

    def aborted(self) -> bool:
        return (
            self.stop.is_set() or self.token.cancelled or self.deadline.expired
        )

    def delay(self, failed_attempts: int) -> Optional[float]:
        if failed_attempts >= self.retry.max_attempts or self.aborted():
            return None
        return self.retry.delay(failed_attempts, salt=self.request_id)

    def wait(self, seconds: float) -> None:
        self.stop.wait(self.deadline.clamp(seconds))

    def publish(self, rank: int, result: object) -> None:
        with self.cond:
            self.results[rank] = result
            self.cond.notify_all()

    def take(self, rank: int) -> object:
        """Block for the result at *rank*; None if the request aborts first."""
        token, deadline = self.token, self.deadline
        with self.cond:
            while True:
                if rank in self.results:
                    return self.results.pop(rank)
                if token.cancelled or deadline.expired:
                    return None
                self.cond.wait(timeout=_TICK_S)


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
    """Runs queries through a mediator with ordering/execution overlap.

    One session instance serves one request at a time (the service
    layer creates a session per admitted request); the mediator — and
    with it the registry, journal and resilience manager every session
    on it shares — and the backend may be shared freely.
    """

    def __init__(
        self,
        mediator: Mediator,
        *,
        executor_workers: int = 2,
        queue_depth: int = 8,
        backend: Optional[ExecutionBackend] = None,
        policy: Optional[RequestPolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if executor_workers < 1:
            raise ExecutionError("executor_workers must be at least 1")
        if queue_depth < 1:
            raise ExecutionError("queue_depth must be at least 1")
        self.mediator = mediator
        self.executor_workers = executor_workers
        self.queue_depth = queue_depth
        self.backend = backend if backend is not None else InMemoryBackend()
        self.policy = policy if policy is not None else RequestPolicy()
        self.tracer = tracer if tracer is not None else mediator.tracer
        self.last_report: Optional[SessionReport] = None
        registry = mediator.registry
        self._plans_pipelined = registry.counter("service.plans_pipelined")
        self._retries = registry.counter("service.retries")
        self._execute_hist = registry.histogram("service.execute_s")

    # -- the pipeline ------------------------------------------------------------

    def stream(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
        *,
        orderer: Optional[PlanOrderer] = None,
        policy: Optional[RequestPolicy] = None,
        request_id: str = "",
    ) -> Iterator[AnswerBatch]:
        """Yield answer batches in emission order, pipelined.

        The same stages as ``Mediator.answer`` (same plans, same
        order, same batches) with ordering, soundness, and execution
        overlapped across threads.  After the generator finishes (or
        is closed early), :attr:`last_report` describes the run.
        ``request_id`` correlates this run's journal events (emitted
        from the producer, executor, and consumer threads — the
        journal serializes them with one global ``seq``).
        """
        policy = policy if policy is not None else self.policy
        run = _SessionRun(policy, request_id)
        token, deadline = run.token, run.deadline
        with self.tracer.span("service.reformulate"):
            core = AnytimeRun(
                self.mediator, query, utility,
                orderer=orderer, max_plans=policy.max_plans,
                request_id=request_id, tracer=self.tracer,
            )
        report = self.last_report = core.report
        work_q: Queue = Queue(maxsize=self.queue_depth)
        database = self.mediator.execution_database()

        def put_abortable(item) -> bool:
            """Enqueue unless the session is shutting down."""
            while not run.stop.is_set():
                try:
                    work_q.put(item, timeout=_TICK_S)
                    return True
                except Full:
                    continue
            return False

        # One generator for the request: the consumer orders the first
        # plan on it before the producer starts and puts it back in
        # front (below); the producer queues that one and orders every
        # later one.
        plans = core.plans()

        def produce() -> None:
            produced = 0
            end: object = None  # aborted: deadline, cancel or shutdown
            try:
                while not run.aborted():
                    item = next(plans, None)
                    if item is None:
                        end = _EXHAUSTED
                        break
                    if not put_abortable(item):
                        break
                    produced += 1
            except BaseException as exc:  # surfaced on the consumer
                end = exc
            finally:
                run.publish(produced + 1, end)
                put_abortable(_DONE)

        def work(tracer: Tracer) -> None:
            def run_query(executable: ConjunctiveQuery) -> frozenset:
                with tracer.span("service.worker.execute"):
                    return self.backend.execute(executable, database)

            while True:
                try:
                    item = work_q.get(timeout=_TICK_S)
                except Empty:
                    if run.stop.is_set():
                        return
                    continue
                if item is _DONE:
                    _leave_done(work_q)
                    return
                abandoned = token.cancelled or deadline.expired
                if not abandoned:
                    core.execute(item, run_query, run)
                run.publish(item.ordered.rank, None if abandoned else item)

        producer = threading.Thread(
            target=produce, name="repro-service-producer", daemon=True
        )
        # Tracers are single-threaded recorders, so every worker gets a
        # private one; the consumer folds them into the session tracer
        # after the workers have quiesced (see the ``finally`` below).
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

        next_rank = 1
        try:
            # Workers first: they block on the empty queue at once.  A
            # CPU-bound producer started first makes this thread wait
            # out a GIL switch interval inside every later start().
            for worker in workers:
                worker.start()
            # The first plan is ordered here, not on the producer.
            # Nothing can overlap with it — there is no plan to execute
            # yet — and the producer, CPU-bound from its first
            # instruction, holds the GIL through start() below for one
            # switch interval: what it has ready when that interval ends
            # is what the first batches carry.  This way the whole
            # interval goes to the plans behind the head, and which of
            # them make the first batches does not hang on a fraction
            # of a millisecond of the host's speed.
            if not run.aborted():
                head = next(plans, None)
                if head is not None:
                    plans = itertools.chain((head,), plans)
            producer.start()
            while True:
                item = run.take(next_rank)
                if not isinstance(item, StagedPlan):
                    if isinstance(item, BaseException):
                        raise item
                    if item is _EXHAUSTED:
                        report.exhausted = True
                    elif token.cancelled:
                        report.cancelled = True
                    else:
                        # Deadline — seen here, by a worker that then
                        # abandoned this plan, or only by the producer
                        # before it stopped early.
                        report.deadline_exceeded = True
                    return
                batch = core.settle(item)
                with self.mediator.registry.lock:
                    self._plans_pipelined.inc()
                    self._retries.inc(item.retries)
                    if item.execute_s:
                        self._execute_hist.observe(item.execute_s)
                yield batch
                next_rank += 1
                if (
                    policy.first_k_answers is not None
                    and report.answers >= policy.first_k_answers
                ):
                    report.satisfied = True
                    return
        finally:
            run.stop.set()
            # Unblock a producer stuck on a full queue, then collect
            # the threads; daemon flags are only a last resort.
            while producer.is_alive():
                _drain(work_q)
                producer.join(timeout=_TICK_S)
            # The producer is gone (its own _DONE may have been refused
            # or drained above), so nothing refills the queue: empty it
            # and leave the marker that wakes every worker in turn.
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
            core.close()

    def run(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
        *,
        orderer: Optional[PlanOrderer] = None,
        policy: Optional[RequestPolicy] = None,
        request_id: str = "",
    ) -> tuple[list[AnswerBatch], SessionReport]:
        """Collect the whole stream; returns (batches, report)."""
        batches = list(
            self.stream(
                query, utility,
                orderer=orderer, policy=policy, request_id=request_id,
            )
        )
        report = self.last_report
        if report is None:
            raise InternalError("stream() finished without leaving a report")
        return batches, report
