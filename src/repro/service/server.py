"""The multi-query service: shared catalog, admission control, metrics.

One :class:`QueryService` owns a mediator (catalog + source instances
+ metric registry) and serves many concurrent requests.  Shared across
*all* requests:

* the catalog and source statistics,
* one :class:`~repro.observability.caching.CachingUtilityMeasure` per
  utility-measure name — so request N's utility evaluations warm the
  cache for request N+1 (the measures themselves are stateless; all
  per-request state lives in the execution contexts),
* the :class:`~repro.observability.metrics.MetricRegistry`, exposing
  ``service.*`` counters and latency histograms,
* one parsed query per query text (:meth:`QueryService.prepared_query`),
  which keeps its bucket space, soundness verdicts and compiled joins.

Per request: a fresh orderer, a fresh
:class:`~repro.service.session.PipelinedSession`, and (when request
tracing is on) a private :class:`~repro.observability.tracing.Tracer`
whose span tree is returned with the result.

Every request, in-process or off the wire, runs on the thread that
called :meth:`QueryService.execute` and passes **one admission gate**:
at most ``max_concurrent`` run, at most ``backlog`` more wait for a
slot (then end ``rejected``), and anything beyond that is shed at once
with :class:`~repro.errors.ServiceOverloadedError`, which the TCP front
end translates into an ``overloaded`` error record — backpressure
reaches the client instead of an unbounded queue.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.errors import ReproError, ServiceError, ServiceOverloadedError
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.execution.mediator import AnswerBatch, Mediator
from repro.observability.caching import CachingUtilityMeasure
from repro.observability.journal import EventJournal, NOOP_JOURNAL
from repro.observability.metrics import MetricRegistry
from repro.observability.prometheus import render_export
from repro.observability.tracing import NOOP_TRACER, Tracer
# The table and the ``auto`` rule are repro.ordering's; they are
# re-exported because clients of the service address orderers by name.
from repro.ordering import (
    AUTO_ORDERER,
    ORDERER_TABLE,
    AdaptiveOrderer,
    orderer_class,
    resolve_orderer_name,
)
from repro.resilience.manager import ResilienceManager
from repro.service.backends import ExecutionBackend
from repro.service.policy import Deadline, RequestPolicy
from repro.service.session import PipelinedSession, SessionReport
from repro.sources.catalog import Catalog
from repro.utility.base import UtilityMeasure
from repro.utility.cost import LinearCost

__all__ = [
    "AUTO_ORDERER",
    "QueryRequest",
    "QueryService",
    "RequestResult",
    "ServiceConfig",
    "ORDERER_TABLE",
    "resolve_orderer_name",
]

#: Per-batch streaming callback, invoked on the thread that called
#: :meth:`QueryService.execute` (it is the session's consumer).
BatchCallback = Callable[[AnswerBatch], None]

#: How long a request waits at the admission gate for a permit, unless
#: its own deadline is shorter, before it ends ``rejected``.
ADMISSION_TIMEOUT_S = 30.0

#: Query texts a service keeps parsed; past it the oldest is dropped.
PREPARED_QUERIES = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Concurrency and defaulting knobs of a :class:`QueryService`.

    ``executor_workers`` and ``queue_depth`` size a session's pipeline,
    which only a blocking backend gets: over ``InMemoryBackend`` (the
    default) a request runs inline on its caller's thread and starts
    no thread at all.

    ``adaptivity`` is the server-wide default for mid-stream
    re-ordering (requests override it via
    ``RequestPolicy.adaptivity``): ``"on"`` / ``"off"`` force it, and
    ``"auto"`` — the default — enables it exactly for requests that
    left orderer selection to the server (``--orderer auto``) on a
    service with a resilience manager.  A request that *named* an
    orderer asked for that algorithm's stream verbatim, so auto leaves
    it alone.
    """

    max_concurrent: int = 8
    backlog: int = 32
    executor_workers: int = 2
    queue_depth: int = 8
    default_measure: str = "linear"
    default_orderer: str = AUTO_ORDERER
    default_policy: RequestPolicy = field(default_factory=RequestPolicy)
    trace_requests: bool = False
    adaptivity: str = "auto"

    def __post_init__(self) -> None:
        for knob in ("max_concurrent", "backlog", "executor_workers", "queue_depth"):
            if getattr(self, knob) < 1:
                raise ServiceError(f"{knob} must be at least 1")
        if self.adaptivity not in ("auto", "on", "off"):
            raise ServiceError(
                f"adaptivity must be 'auto', 'on' or 'off', "
                f"got {self.adaptivity!r}"
            )


@dataclass(frozen=True)
class QueryRequest:
    """One query admitted into the service."""

    query: ConjunctiveQuery
    request_id: str = ""
    measure: Optional[str] = None
    orderer: Optional[str] = None
    policy: Optional[RequestPolicy] = None


@dataclass
class RequestResult:
    """Everything one request produced."""

    request_id: str
    status: str  # ok | deadline_exceeded | cancelled | rejected | error
    batches: list[AnswerBatch] = field(default_factory=list)
    answers: frozenset = frozenset()
    report: Optional[SessionReport] = None
    error: Optional[str] = None
    spans: Optional[dict] = None


class QueryService:
    """Serves concurrent anytime queries over one shared catalog."""

    def __init__(
        self,
        catalog: Catalog,
        source_facts: Mapping[str, set[tuple[object, ...]]],
        *,
        measures: Optional[Mapping[str, Callable[[], UtilityMeasure]]] = None,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricRegistry] = None,
        backend: Optional[ExecutionBackend] = None,
        resilience: Optional[ResilienceManager] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = registry if registry is not None else MetricRegistry()
        #: Shared across all requests: sessions consult its breakers
        #: and feed its health tracker (threaded in via the mediator).
        self.resilience = resilience
        #: One journal for the whole service; every event a request
        #: causes — here, in sessions, in the mediator, and in the
        #: resilience manager — carries that request's id.
        self.journal = journal if journal is not None else NOOP_JOURNAL
        if resilience is not None and not resilience.journal.enabled:
            resilience.journal = self.journal
        self.mediator = Mediator(
            catalog,
            source_facts,
            registry=self.registry,
            resilience=resilience,
            journal=self.journal,
        )
        self.backend = backend
        self._measure_factories: dict[str, Callable[[], UtilityMeasure]] = dict(
            measures if measures is not None else {"linear": LinearCost}
        )
        if self.config.default_measure not in self._measure_factories:
            raise ServiceError(
                f"default measure {self.config.default_measure!r} is not "
                f"among {self.measure_names}"
            )
        self._shared_measures: dict[str, UtilityMeasure] = {}
        self._measure_lock = threading.Lock()
        self._prepared: dict[str, ConjunctiveQuery] = {}
        self._prepared_lock = threading.Lock()
        # The admission gate (see execute): a permit to run, and a
        # place in the building — running or waiting — to shed beyond.
        self._permits = threading.Semaphore(self.config.max_concurrent)
        self._places = threading.Semaphore(
            self.config.max_concurrent + self.config.backlog
        )
        self._closed = False
        self._ids = itertools.count(1)

        counter = self.registry.counter
        self._m_requests = counter("service.requests")
        self._m_accepted = counter("service.accepted")
        self._m_rejected = counter("service.rejected")
        self._m_completed = counter("service.completed")
        self._m_errors = counter("service.errors")
        self._m_deadline = counter("service.deadline_exceeded")
        self._m_cancelled = counter("service.cancelled")
        self._m_answers = counter("service.answers")
        self._g_active = self.registry.gauge("service.active")
        self._h_first = self.registry.histogram("service.first_answer_s")
        self._h_total = self.registry.histogram("service.total_s")

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        """Close the gate, then wait up to *timeout* for requests in flight.

        Whatever has not been admitted yet, waiting at the gate now or
        arriving later, ends ``rejected``.
        """
        self._closed = True
        deadline = Deadline.after(timeout)
        # Holding every permit means nothing is running any more.  They
        # are given back so that a late arrival reaches the closed flag
        # at once instead of waiting out its admission timeout.
        with ExitStack() as held:
            for _ in range(self.config.max_concurrent):
                if not self._permits.acquire(timeout=deadline.remaining()):
                    break
                held.callback(self._permits.release)

    # -- request plumbing --------------------------------------------------------

    @property
    def measure_names(self) -> list[str]:
        """The measures a request may name, in the order they were given."""
        return list(self._measure_factories)

    def shared_measure(self, name: str) -> UtilityMeasure:
        """The cross-request shared utility measure called *name*.

        Without resilience this is a :class:`CachingUtilityMeasure` —
        request N's utility evaluations warm the cache for request
        N+1.  With a resilience manager it is the manager's
        health-aware wrapper instead, deliberately *uncached* (the
        composition rule is in :mod:`repro.resilience.measure`).
        """
        resilience = self.resilience
        with self._measure_lock:
            measure = self._shared_measures.get(name)
            if measure is None:
                try:
                    factory = self._measure_factories[name]
                except KeyError:
                    raise ServiceError(
                        f"unknown measure {name!r}; "
                        f"have {self.measure_names}"
                    ) from None
                measure = factory()
                if resilience is not None:
                    measure = resilience.health_measure(measure)
                if measure.cacheable:
                    measure = CachingUtilityMeasure(
                        measure, registry=self.registry
                    )
                self._shared_measures[name] = measure
        return measure

    def prepared_query(self, text: str) -> ConjunctiveQuery:
        """The one parsed query of *text*, shared by every request with
        it; raises :class:`~repro.errors.ParseError` for bad text."""
        with self._prepared_lock:
            query = self._prepared.get(text)
        if query is None:
            # Parsed outside the lock: of two racing parses, one is kept.
            parsed = parse_query(text)
            with self._prepared_lock:
                query = self._prepared.setdefault(text, parsed)
                if len(self._prepared) > PREPARED_QUERIES:
                    del self._prepared[next(iter(self._prepared))]
        return query

    def _make_orderer(
        self, name: str, utility: UtilityMeasure, tracer: Tracer, adaptive: bool
    ):
        """The request's orderer, recording its spans into *tracer*."""
        factory = orderer_class(name, utility)
        if adaptive and self.resilience is not None:
            return AdaptiveOrderer(
                utility,
                inner_factory=factory,
                epoch=self.resilience.epoch,
                registry=self.registry,
                tracer=tracer,
            )
        return factory(utility, tracer=tracer)

    def resolve_adaptivity(
        self, policy: RequestPolicy, requested_orderer: str
    ) -> bool:
        """Should this request re-order mid-stream?

        The per-request knob wins; otherwise the server default
        applies, where ``"auto"`` means "adaptive exactly when the
        request also left the orderer choice to the server and there
        is a resilience manager to supply the health signal".
        """
        if self.resilience is None:
            return False
        if policy.adaptivity is not None:
            return policy.adaptivity
        if self.config.adaptivity == "on":
            return True
        if self.config.adaptivity == "off":
            return False
        return requested_orderer == AUTO_ORDERER

    def next_request_id(self) -> str:
        return f"req-{next(self._ids)}"

    # -- exposition --------------------------------------------------------------

    def prometheus_text(self) -> str:
        """Every metric this service owns as Prometheus text.

        The service registry always renders; a resilience manager built
        over its *own* registry (the CLI's chaos setup does this)
        contributes its metrics too (:meth:`registry_export`), so one
        scrape sees breaker-state gauges alongside the ``service.*``
        series.
        """
        return render_export(self.registry_export())

    def registry_export(self) -> dict:
        """Every metric this service owns as one ``as_dict`` export.

        The shard-scrape counterpart of :meth:`prometheus_text`: the
        service registry plus (when distinct) the resilience registry,
        merged name-wise so the cluster router can feed the result
        straight into :meth:`MetricRegistry.merge`.
        """
        registry = self.registry  # snapshot methods lock internally
        resilience = self.resilience
        if resilience is not None and resilience.registry is not registry:
            return (
                MetricRegistry()
                .merge(registry)
                .merge(resilience.registry)
                .as_dict()
            )
        return registry.as_dict()

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        request: QueryRequest,
        on_batch: Optional[BatchCallback] = None,
    ) -> RequestResult:
        """Run one request to completion on the calling thread.

        Every caller, in-process or the connection's handler, passes
        the same gate: at most ``max_concurrent`` requests run, at most
        ``backlog`` more wait for a permit — each up to
        ``ADMISSION_TIMEOUT_S`` or its own deadline, then it is
        *rejected*, not errored — and anyone beyond that is shed at
        once with :class:`~repro.errors.ServiceOverloadedError`.  What
        the gate hands out is given back on every way out of here.
        """
        config = self.config
        request_id = request.request_id or self.next_request_id()
        self._m_requests.inc()
        policy = request.policy or config.default_policy
        with ExitStack() as held:
            if not self._places.acquire(blocking=False):
                shed = self._rejected(
                    request_id,
                    "overloaded",
                    f"admission gate full ({config.max_concurrent} running, "
                    f"{config.backlog} waiting)",
                )
                raise ServiceOverloadedError(shed.error)
            held.callback(self._places.release)
            wait = ADMISSION_TIMEOUT_S
            if policy.deadline_s is not None:
                wait = min(wait, policy.deadline_s)
            if not self._permits.acquire(timeout=wait):
                return self._rejected(
                    request_id, "admission_timeout", "admission timeout"
                )
            held.callback(self._permits.release)
            if self._closed:
                return self._rejected(
                    request_id, "shutdown", "service is shut down"
                )
            self._m_accepted.inc()
            self._g_active.inc()
            held.callback(self._g_active.dec)
            return self._run_admitted(request_id, request, policy, on_batch)

    def _rejected(self, request_id: str, code: str, message: str) -> RequestResult:
        """Count and journal a request the gate turned away."""
        self._m_rejected.inc()
        if self.journal.enabled:
            self.journal.emit(
                "request.rejected",
                request_id=request_id,
                code=code,
                message=message,
            )
        return RequestResult(request_id, "rejected", error=message)

    def _run_admitted(
        self,
        request_id: str,
        request: QueryRequest,
        policy: RequestPolicy,
        on_batch: Optional[BatchCallback],
    ) -> RequestResult:
        """An admitted request, start to finish, inside one error boundary.

        Whatever it raises — a bad name, a failing plan, a measure
        factory or an ``on_batch`` with a bug — ends in an ``error``
        result, counted and journaled, for every caller alike.
        """
        measure_name = request.measure or self.config.default_measure
        requested = request.orderer or self.config.default_orderer
        orderer_name = requested
        tracer = Tracer() if self.config.trace_requests else NOOP_TRACER
        batches: list[AnswerBatch] = []
        answers: set = set()
        try:
            try:
                utility = self.shared_measure(measure_name)
                orderer_name = resolve_orderer_name(requested, utility)
            finally:
                # Also for a measure that does not resolve ("auto" then
                # stays as asked): the error below is an admitted
                # request's, and the journal says so.
                if self.journal.enabled:
                    self.journal.emit(
                        "request.admitted",
                        request_id=request_id,
                        measure=measure_name,
                        orderer=orderer_name,
                    )
            orderer = self._make_orderer(
                orderer_name, utility, tracer,
                self.resolve_adaptivity(policy, requested),
            )
            session = PipelinedSession(
                self.mediator,
                executor_workers=self.config.executor_workers,
                queue_depth=self.config.queue_depth,
                backend=self.backend,
                tracer=tracer,
            )
            for batch in session.stream(
                request.query,
                utility,
                orderer=orderer,
                policy=policy,
                request_id=request_id,
            ):
                batches.append(batch)
                answers.update(batch.new_answers)
                if on_batch is not None:
                    on_batch(batch)
            report = session.last_report
        except Exception as exc:
            self._m_errors.inc()
            if self.journal.enabled:
                self.journal.emit(
                    "request.completed",
                    request_id=request_id,
                    status="error",
                    plans=0,
                    answers=0,
                    elapsed_s=0.0,
                    first_answer_s=None,
                )
            # Our own errors are messages for the client; anything else
            # is a defect, and its type is half of the report.
            error = (
                str(exc)
                if isinstance(exc, ReproError)
                else f"{type(exc).__name__}: {exc}"
            )
            return RequestResult(request_id, "error", error=error)
        result = RequestResult(
            request_id,
            report.status,
            batches=batches,
            answers=frozenset(answers),
            report=report,
            spans=tracer.as_dict() if tracer.enabled else None,
        )
        with self.registry.lock:
            self._m_completed.inc()
            self._m_answers.inc(len(answers))
            if report.deadline_exceeded:
                self._m_deadline.inc()
            if report.cancelled:
                self._m_cancelled.inc()
            if report.first_answer_s is not None:
                self._h_first.observe(report.first_answer_s)
            self._h_total.observe(report.elapsed_s)
        if self.journal.enabled:
            self.journal.emit(
                "request.completed",
                request_id=request_id,
                status=report.status,
                plans=report.plans_processed,
                answers=report.answers,
                elapsed_s=report.elapsed_s,
                first_answer_s=report.first_answer_s,
            )
        return result
