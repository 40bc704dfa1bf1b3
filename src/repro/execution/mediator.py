"""The anytime mediator: ordering + soundness + execution (Section 2).

Given a user query, the mediator

1. builds the buckets (reformulation),
2. streams plans out of a plan-ordering algorithm in decreasing
   utility,
3. tests each plan for soundness; unsound plans are thrown away and do
   *not* count as executed (the ordering algorithm is told via its
   ``on_emit`` callback),
4. executes sound plans against the source instances and yields the
   *new* answer tuples each contributes.

Consumers can stop iterating as soon as they are satisfied — the
"first answers fast" behaviour the paper optimizes for.

That loop exists once, as the five stages of :class:`AnytimeRun`
(prepare, plans, execute, settle, close), and has two drivers.
:meth:`Mediator.answer` is the inline one: a single thread pulls a
plan, executes it through :meth:`Mediator.execute_query` and settles
it before asking for the next.  The :mod:`repro.service` layer's
``PipelinedSession`` calls the same stage functions: on its caller's
thread in the same order when its backend never blocks, and otherwise
from a producer thread, a worker pool and its consumer, adding only
what threads need (queues, rank reassembly, deadlines, shutdown).
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Mapping, Optional

from repro.errors import ExecutionError, TransientExecutionError
from repro.datalog.query import ConjunctiveQuery
from repro.execution.engine import evaluate_conjunctive_query
from repro.observability.journal import EventJournal, NOOP_JOURNAL
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import NOOP_TRACER, Stopwatch, Tracer
from repro.ordering import AUTO_ORDERER, orderer_class
from repro.ordering.base import OrderedPlan, PlanOrderer
from repro.reformulation.buckets import build_buckets
from repro.reformulation.inverse_rules import answer_with_inverse_rules
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.reformulation.soundness import plan_query
from repro.resilience.manager import ResilienceManager
from repro.sources.catalog import Catalog
from repro.utility.base import UtilityMeasure

#: Builds an orderer for a utility measure.
OrdererFactory = Callable[[UtilityMeasure], PlanOrderer]


@dataclass(frozen=True)
class AnswerBatch:
    """The outcome of processing one plan from the ordering.

    The trailing defaulted flags are degradation accounting (see
    :mod:`repro.resilience`): a *skipped* plan was never executed
    because a circuit breaker blocked one of its sources; a *failed*
    plan exhausted its retries and was gracefully dropped.  Both carry
    empty answer sets.
    """

    rank: int
    plan: QueryPlan
    utility: float
    sound: bool
    answers: frozenset[tuple[object, ...]]
    new_answers: frozenset[tuple[object, ...]]
    skipped: bool = False
    failed: bool = False

    @property
    def new_count(self) -> int:
        return len(self.new_answers)


@dataclass
class SessionReport:
    """What happened to one request.

    The degradation fields (``plans_skipped`` through
    ``breaker_states``) are always present — callers can rely on every
    summary record carrying them, zeroed when nothing degraded.  See
    ``docs/resilience.md``.
    """

    plans_processed: int = 0
    sound_plans: int = 0
    unsound_plans: int = 0
    answers: int = 0
    retries: int = 0
    deadline_exceeded: bool = False
    cancelled: bool = False
    satisfied: bool = False  # first_k_answers reached
    exhausted: bool = False  # plan budget fully drained
    first_answer_s: Optional[float] = None
    elapsed_s: float = 0.0
    plans_skipped: int = 0  # breaker blocked a source, never executed
    plans_failed: int = 0  # retries exhausted, gracefully dropped
    sources_skipped: list[str] = field(default_factory=list)
    answers_partial: bool = False
    breaker_states: dict[str, str] = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.cancelled:
            return "cancelled"
        if self.deadline_exceeded:
            return "deadline_exceeded"
        return "ok"

    def as_dict(self) -> dict[str, object]:
        payload = {"status": self.status, **vars(self)}
        payload["sources_skipped"] = list(self.sources_skipped)
        payload["breaker_states"] = dict(self.breaker_states)
        return payload


@dataclass(slots=True)
class StagedPlan:
    """One emitted plan on its way from the plans stage to settle."""

    ordered: OrderedPlan
    #: The source-level query to run; None means the plan is unsound.
    executable: Optional[ConjunctiveQuery]
    answers: frozenset = frozenset()
    retries: int = 0
    error: Optional[Exception] = None
    execute_s: float = 0.0
    #: Breaker-blocked source names; non-empty means never executed.
    blocked: tuple[str, ...] = ()


class AnytimeRun:
    """One request's passage through the anytime loop, stage by stage.

    Constructing a run is the **prepare** stage: bind the journal to
    the request, reformulate, resolve the orderer (binding the journal
    into it and lending it *tracer* when it has none of its own), fix
    the plan budget, and set up the soundness table the orderer's
    ``on_emit`` reads.  The per-plan stages are :meth:`plans`,
    :meth:`execute` and :meth:`settle`; :meth:`close` must run however
    the request ends.  A driver decides only *which thread* runs which
    stage, and must settle plans in rank order.
    """

    def __init__(
        self,
        mediator: "Mediator",
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
        *,
        orderer: Optional[PlanOrderer] = None,
        max_plans: Optional[int] = None,
        request_id: str = "",
        tracer: Tracer,
    ) -> None:
        self.mediator = mediator
        self.query = query
        self.request_id = request_id
        self.journal = mediator.journal.bind(request_id)
        # Read once: the flag cannot change mid-run, and every stage
        # consults it per plan (BoundJournal.enabled is a property — a
        # plain bool keeps the disabled path near-free; ``repro
        # profile`` gates this in CI).
        self.journaling = self.journal.enabled
        self.report = SessionReport()
        self.watch = Stopwatch().start()
        self.space = mediator.reformulate(query)
        if orderer is None:
            orderer = mediator.make_orderer(utility)
        bind = getattr(orderer, "bind_journal", None)
        if bind is not None:
            # Adaptive orderers journal their re-sorts; duck-typed so
            # any caller-supplied orderer with the hook benefits too.
            bind(self.journal)
        # Let the ordering spans nest under the request's trace; the
        # stage running ``plans`` owns the orderer for the whole run.
        self._adopted_tracer = orderer.tracer is NOOP_TRACER and tracer.enabled
        if self._adopted_tracer:
            orderer.tracer = tracer
        self.orderer = orderer
        self.budget = mediator.resolve_budget(self.space, max_plans)
        self._soundness: dict[tuple[str, ...], bool] = {}
        self._seen: set[tuple[object, ...]] = set()

    def _on_emit(self, plan: QueryPlan) -> bool:
        # ``plans`` has always decided soundness for this plan before
        # the orderer asks.
        try:
            return self._soundness[plan.key]
        except KeyError:
            raise ExecutionError(
                f"orderer asked about unprocessed plan {plan}"
            ) from None

    def plans(self) -> Iterator[StagedPlan]:
        """Pull plans best-first, deciding soundness as each appears.

        Soundness is decided here — before the orderer is resumed — so
        ``on_emit`` always finds its answer ready and the emitted plan
        sequence cannot depend on who executes the plans, or when.
        The generator is lazy: nothing is ordered or checked for plan
        ``i+1`` until the caller asks for it.
        """
        mediator, query = self.mediator, self.query
        journal, journaling = self.journal, self.journaling
        soundness = self._soundness
        for ordered in self.orderer.order(
            self.space, self.budget, on_emit=self._on_emit
        ):
            plan = ordered.plan
            # Drift resolved: both drivers go through the mediator's
            # overridable, traced check (the session used to call
            # ``plan_query`` bare).
            executable = mediator.check_soundness(query, plan)
            sound = executable is not None
            soundness[plan.key] = sound
            if journaling:
                journal.emit(
                    "plan.emitted",
                    rank=ordered.rank,
                    plan=list(plan.key),
                    utility=ordered.utility,
                    sound=sound,
                )
            yield StagedPlan(ordered, executable)

    def execute(
        self,
        item: StagedPlan,
        run_query: Callable[[ConjunctiveQuery], frozenset],
        backoff=None,
    ) -> None:
        """Admit and run one plan, recording the outcome on *item*.

        Unsound plans pass through untouched.  How a query is evaluated
        is the driver's business (*run_query*: ``execute_query``
        inline, a backend over ``execution_database()`` in the
        service's workers), and so is the retry schedule (*backoff*:
        ``delay(failed_attempts)`` gives the seconds to wait or None to
        give up, ``wait(seconds)`` sleeps; with none, a plan gets one
        attempt).  A failed plan never raises here: the error stays on
        the item for :meth:`settle` to raise or degrade.
        """
        executable = item.executable
        if executable is None:
            return
        resilience = self.mediator.resilience
        sources: tuple[str, ...] = ()
        if resilience is not None:
            # A breaker blocking one of the plan's sources skips it
            # without executing, so the retry budget survives for
            # plans with a chance of answering.
            plan = item.ordered.plan
            item.blocked = resilience.admit(plan, request_id=self.request_id)
            if item.blocked:
                return
            sources = resilience.sources_of(plan)
        while True:
            # Timed with the bare clock, not a Stopwatch: this runs once
            # per plan on the inline driver's only thread.
            started = perf_counter()
            try:
                item.answers = run_query(executable)
            # Drift resolved: any exception marks the plan failed (the
            # sequential loop used to catch ExecutionError only), and
            # every source-attributed attempt — not just the last —
            # feeds the health tracker and breakers.
            except Exception as exc:
                if resilience is not None and isinstance(exc, ExecutionError):
                    resilience.record_failure(
                        sources, exc, request_id=self.request_id
                    )
                attempts = item.retries + 1
                delay = None
                if backoff is not None and isinstance(
                    exc, TransientExecutionError
                ):
                    delay = backoff.delay(attempts)
                if delay is None:
                    item.error = exc
                    return
                item.retries += 1
                if self.journaling:
                    self.journal.emit(
                        "plan.retry",
                        rank=item.ordered.rank,
                        attempt=attempts,
                        delay_s=delay,
                    )
                if delay > 0.0:
                    backoff.wait(delay)
            else:
                elapsed = perf_counter() - started
                item.execute_s += elapsed
                if resilience is not None:
                    resilience.record_success(
                        sources, elapsed, request_id=self.request_id
                    )
                return

    def settle(self, item: StagedPlan) -> AnswerBatch:
        """Turn an executed plan into its batch; call in rank order.

        Dedups against the running answer union, folds the batch into
        the ``mediator.*`` counters and the report, and journals the
        outcome.  A failed plan is degraded to an empty ``failed``
        batch under a graceful resilience manager and raised otherwise.
        """
        report, ordered, error = self.report, item.ordered, item.error
        report.retries += item.retries
        failed = error is not None
        if failed:
            resilience = self.mediator.resilience
            if resilience is None or not resilience.graceful:
                # Drift resolved: one error shape for both drivers (the
                # sequential loop used to re-raise the engine's own).
                raise ExecutionError(
                    f"plan {ordered.plan} failed after "
                    f"{item.retries + 1} attempt(s)"
                ) from error
        sound = item.executable is not None
        skipped = item.blocked != ()
        answers, seen = item.answers, self._seen
        new = frozenset(answers - seen)
        seen.update(answers)
        batch = AnswerBatch(
            ordered.rank, ordered.plan, ordered.utility, sound,
            answers, new, skipped, failed,
        )
        self.mediator.record_batch(batch)
        report.plans_processed += 1
        first_answer = False
        if skipped:
            report.plans_skipped += 1
            for source in item.blocked:
                if source not in report.sources_skipped:
                    report.sources_skipped.append(source)
            report.answers_partial = True
        elif failed:
            report.plans_failed += 1
            report.answers_partial = True
        elif not sound:
            report.unsound_plans += 1
        else:
            report.sound_plans += 1
            if new:
                report.answers = len(seen)
                if report.first_answer_s is None:
                    # stop() leaves the start instant in place, so the
                    # final elapsed_s keeps measuring from the same base.
                    first_answer = True
                    report.first_answer_s = self.watch.stop()
        if self.journaling:
            journal, rank = self.journal, ordered.rank
            if skipped:
                journal.emit(
                    "plan.skipped", rank=rank, sources=list(item.blocked)
                )
            elif failed:
                journal.emit(
                    "plan.failed", rank=rank, error=type(error).__name__
                )
            elif not sound:
                journal.emit("plan.unsound", rank=rank)
            else:
                journal.emit(
                    "plan.executed",
                    rank=rank,
                    answers=len(answers),
                    new_answers=len(new),
                    execute_s=item.execute_s,
                )
                if new:
                    elapsed = self.watch.stop()
                    if first_answer:
                        journal.emit(
                            "answer.first",
                            rank=rank,
                            elapsed_s=report.first_answer_s,
                        )
                    journal.emit(
                        "answer.progress",
                        rank=rank,
                        answers=report.answers,
                        elapsed_s=elapsed,
                    )
        return batch

    def close(self) -> None:
        """Finish the request, whether it drained, stopped early or raised."""
        if self._adopted_tracer:
            # An adopted tracer must not leak into the caller's orderer,
            # so the orderer can be reused across mediators.
            self.orderer.tracer = NOOP_TRACER
        resilience = self.mediator.resilience
        if resilience is not None:
            self.report.breaker_states = resilience.breaker_states()
        self.report.elapsed_s = self.watch.stop()


class Mediator:
    """A data-integration system facade over a catalog and instances."""

    def __init__(
        self,
        catalog: Catalog,
        source_facts: Mapping[str, set[tuple[object, ...]]],
        orderer_factory: Optional[OrdererFactory] = None,
        *,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[EventJournal] = None,
        resilience: Optional[ResilienceManager] = None,
    ) -> None:
        self.catalog = catalog
        self.source_facts = {
            name: set(facts) for name, facts in source_facts.items()
        }
        self.orderer_factory = orderer_factory
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Lifecycle event stream (see repro.observability.journal);
        #: disabled by default, shared with sessions built on this
        #: mediator.  Correlation ids come from the ``request_id``
        #: parameter of :meth:`answer` (the service layer supplies its
        #: own ids).
        self.journal = journal if journal is not None else NOOP_JOURNAL
        #: When set, every request on this mediator (inline or through
        #: a PipelinedSession) consults breakers before executing a plan
        #: and feeds execution outcomes back into the health tracker.
        self.resilience = resilience
        self._plans_processed = self.registry.counter("mediator.plans_processed")
        self._sound_plans = self.registry.counter("mediator.sound_plans")
        self._unsound_plans = self.registry.counter("mediator.unsound_plans")
        self._answers_emitted = self.registry.counter("mediator.answers_emitted")
        self._new_answers = self.registry.counter("mediator.new_answers")
        self._plans_skipped = self.registry.counter("mediator.plans_skipped")
        self._plans_failed = self.registry.counter("mediator.plans_failed")

    def execution_database(self) -> Mapping[str, set[tuple[object, ...]]]:
        """A read-only view of the source instances for plan execution.

        Execution engines (and, in the service layer, concurrent
        executor workers) must not be able to add or drop whole source
        relations; handing out a mapping proxy instead of the live
        dict makes that structurally impossible.
        """
        return types.MappingProxyType(self.source_facts)

    # -- seams of the staged loop ------------------------------------------------
    #
    # :class:`AnytimeRun` calls these on the mediator it was given, so
    # a subclass overriding one sees every call from either driver.
    # Each is safe to call on its own.

    def reformulate(self, query: ConjunctiveQuery) -> PlanSpace:
        """Build the bucket plan space for *query* (traced)."""
        with self.tracer.span("mediator.reformulate"):
            return build_buckets(query, self.catalog)

    def check_soundness(
        self, query: ConjunctiveQuery, plan: QueryPlan
    ) -> Optional[ConjunctiveQuery]:
        """The plan's executable source-level query, or None if unsound."""
        with self.tracer.span("mediator.soundness"):
            return plan_query(query, plan)

    def execute_query(
        self, executable: ConjunctiveQuery
    ) -> frozenset[tuple[object, ...]]:
        """Evaluate a (sound) plan's query over the source instances."""
        with self.tracer.span("mediator.execute"):
            return frozenset(
                evaluate_conjunctive_query(executable, self.execution_database())
            )

    def record_batch(self, batch: AnswerBatch) -> None:
        """Fold one processed plan into the ``mediator.*`` counters.

        Serialized on the registry lock: several requests may be
        settling concurrently on one mediator in the server.
        """
        with self.registry.lock:
            self._plans_processed.inc()
            if batch.skipped:
                self._plans_skipped.inc()
            elif batch.failed:
                self._plans_failed.inc()
            elif batch.sound:
                self._sound_plans.inc()
                self._answers_emitted.inc(len(batch.answers))
                self._new_answers.inc(batch.new_count)
            else:
                self._unsound_plans.inc()

    def resolve_budget(self, space: PlanSpace, max_plans: Optional[int]) -> int:
        return space.size if max_plans is None else min(max_plans, space.size)

    def make_orderer(self, utility: UtilityMeasure) -> PlanOrderer:
        """An orderer from the configured factory, else ``auto``'s choice."""
        factory = self.orderer_factory or orderer_class(AUTO_ORDERER, utility)
        return factory(utility)

    # -- the inline driver -------------------------------------------------------

    def answer(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
        max_plans: Optional[int] = None,
        orderer: Optional[PlanOrderer] = None,
        *,
        request_id: str = "",
    ) -> Iterator[AnswerBatch]:
        """Stream answer batches, best plans first.

        ``max_plans`` bounds how many plans (sound or not) are pulled
        from the ordering; by default the whole plan space is drained.
        ``request_id`` is the correlation id stamped on the journal
        events this run emits (when the mediator's journal is on).

        One thread, no queue: pulling batch ``i`` does no ordering,
        soundness or execution work for plan ``i+1``.
        """
        run = AnytimeRun(
            self, query, utility, orderer=orderer, max_plans=max_plans,
            request_id=request_id, tracer=self.tracer,
        )
        try:
            for item in run.plans():
                run.execute(item, self.execute_query)
                yield run.settle(item)
        finally:
            run.close()

    def answer_all(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
    ) -> set[tuple[object, ...]]:
        """All answers: the union over every sound plan."""
        answers: set[tuple[object, ...]] = set()
        for batch in self.answer(query, utility):
            answers.update(batch.answers)
        return answers

    def certain_answers(self, query: ConjunctiveQuery) -> set[tuple[object, ...]]:
        """Ground truth via inverse rules (independent code path)."""
        return answer_with_inverse_rules(self.catalog, query, self.source_facts)
