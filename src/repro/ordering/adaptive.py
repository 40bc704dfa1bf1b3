"""Adaptive mid-stream re-ordering: the health→ordering feedback loop.

The paper fixes a plan order once, under static catalog estimates.  A
serving mediator knows better *while the stream is running*: PR 4's
:class:`~repro.resilience.health.SourceHealthTracker` observes every
execution, and :class:`~repro.resilience.measure.HealthAwareMeasure`
already substitutes the observed failure rates into utility
evaluations.  What was missing is the feedback edge — nothing
*re-ranked the remaining plans* when health moved, so a stream ordered
before an outage keeps paying for doomed high-priority plans.

:class:`AdaptiveOrderer` closes the loop as a wrapper around any other
orderer:

* it forwards the inner orderer's stream untouched while the
  resilience layer's :class:`~repro.resilience.health.HealthEpoch` is
  unchanged — one integer comparison per plan;
* when the epoch moved, it re-scores the would-be head under the live
  measure and interval-evaluates the residual plan subspaces (the
  plans emitted since the last move are split out then, with
  :meth:`~repro.reformulation.plans.PlanSpace.split_off`).  If the head's
  re-scored utility still dominates every residual interval
  (:func:`~repro.ordering.dominance.head_certainly_best` — the Drips
  dominance test), the ranking provably did not shift and the stream
  continues (a *suppressed resort*, O(frontier) work, no re-sort);
* only when some interval overlaps does it abandon the inner
  generator and restart a fresh inner orderer over the residual
  subspaces (every orderer supports ``order_spaces``, the Section 7
  multi-space generalization), replaying the executed plans into the
  new ordering context so conditional measures keep their
  coverage-already-attained semantics.

Two invariants make this robustness rather than a heuristic:

* **Healthy-path identity.**  The epoch never moves while every source
  is healthy (the manager's bump rule), so the emitted stream — plans,
  utilities, ranks — is byte-identical to the unwrapped inner orderer.
* **Lazy-iteration contract.**  The wrapper is itself a conforming
  orderer: ``on_emit`` is asked once per plan on resumption, no work
  for plan ``i+1`` happens before that, and abandoning the generator
  is safe (``tests/ordering/test_lazy_contract.py`` covers it like any
  other algorithm).

Instrumentation lands under ``ordering.adaptive.*``: ``reorders``
(inner restarts), ``epoch_checks`` (integer comparisons),
``suppressed_resorts`` (epoch moved, dominance held), ``head_churn``
(re-sorts that actually changed the next plan).  With a journal bound
(:meth:`AdaptiveOrderer.bind_journal`), each re-sort emits a
``plan.reordered`` event carrying its shift witness.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import Tracer
from repro.ordering.base import EmitCallback, OrderedPlan, PlanOrderer
from repro.ordering.dominance import head_certainly_best
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.utility.base import (
    DelegatingMeasure,
    ExecutionContext,
    PlanLike,
    Slots,
    UtilityMeasure,
)
from repro.utility.intervals import Interval

__all__ = ["AdaptiveOrderer"]


class _ReplayMeasure(DelegatingMeasure):
    """A measure whose fresh contexts start with plans already executed.

    Restarting an inner orderer mid-stream must not forget the stream's
    past: conditional measures (coverage, caching variants) rank the
    *remaining* plans given everything already executed.  Orderers
    build their context internally via ``utility.new_context()``, so
    this wrapper pre-records the executed plans into every context it
    hands out and delegates everything else verbatim.

    With an empty replay list the wrapper is behaviorally identical to
    the inner measure — the healthy-path identity guarantee rests on
    that.  Always the outermost wrapper (composition rule:
    :mod:`repro.resilience.measure`).
    """

    def __init__(
        self, inner: UtilityMeasure, executed: Sequence[PlanLike]
    ) -> None:
        super().__init__(inner)
        self.executed = tuple(executed)

    def new_context(self) -> ExecutionContext:
        context = self.inner.new_context()
        for plan in self.executed:
            context.record(plan)
        return context

    def __repr__(self) -> str:
        return f"<_ReplayMeasure {self.name!r} executed={len(self.executed)}>"


def _space_slots(space: PlanSpace) -> Slots:
    """A plan space as abstract-plan slots (bucket member tuples)."""
    return tuple(bucket.sources for bucket in space.buckets)


def _split_out(
    spaces: list[PlanSpace], plan: QueryPlan
) -> list[PlanSpace]:
    """*spaces* with *plan* removed from the (one) space containing it.

    Spaces are pairwise disjoint (the ``order_spaces`` precondition),
    so at most one contains the plan; it is replaced by its
    ``split_off`` residue.  A plan in none of the spaces — possible
    when an inner orderer emits from a space the wrapper is not
    tracking — leaves the list unchanged.
    """
    result: list[PlanSpace] = []
    found = False
    for space in spaces:
        if not found and space.contains(plan):
            result.extend(space.split_off(plan))
            found = True
        else:
            result.append(space)
    return result


class AdaptiveOrderer(PlanOrderer):
    """Wrap an inner orderer; re-sort the residual space on health shifts.

    Parameters
    ----------
    utility:
        The live measure plans are (re-)scored with.  For the feedback
        loop to observe anything this should be a
        :class:`~repro.resilience.measure.HealthAwareMeasure` over the
        live tracker; with a static measure the wrapper still works but
        every re-check scores identically.
    inner_factory:
        Builds the wrapped orderer from a measure (any entry of
        :data:`repro.ordering.ORDERER_TABLE`, or a lambda).  Called once up
        front — applicability errors (e.g. Greedy over a
        non-monotonic measure) surface at construction, exactly as
        they would without the wrapper — and once per restart.
    epoch:
        The :class:`~repro.resilience.health.HealthEpoch` to watch
        (``ResilienceManager.epoch``).
    """

    name = "adaptive"

    def __init__(
        self,
        utility: UtilityMeasure,
        *,
        inner_factory: Callable[[UtilityMeasure], PlanOrderer],
        epoch,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(utility, registry=registry, tracer=tracer)
        self.inner_factory = inner_factory
        self.epoch = epoch
        #: Optional BoundJournal; set via :meth:`bind_journal` by the
        #: mediator/session so ``plan.reordered`` events carry the
        #: request correlation id.
        self.journal = None
        # Probe construction: surface NotApplicableError now, not at
        # first iteration, mirroring direct inner-orderer construction.
        self._make_inner(())
        counter = self.registry.counter
        self._reorders = counter("ordering.adaptive.reorders")
        self._epoch_checks = counter("ordering.adaptive.epoch_checks")
        self._suppressed = counter("ordering.adaptive.suppressed_resorts")
        self._head_churn = counter("ordering.adaptive.head_churn")

    # -- wiring ------------------------------------------------------------------

    def bind_journal(self, journal) -> None:
        """Attach a (bound) journal for ``plan.reordered`` events."""
        self.journal = journal

    @property
    def reorders(self) -> int:
        return int(self._reorders.value)

    @property
    def suppressed_resorts(self) -> int:
        return int(self._suppressed.value)

    def _make_inner(self, executed: Sequence[QueryPlan]) -> PlanOrderer:
        inner = self.inner_factory(_ReplayMeasure(self.utility, executed))
        # One accounting stream across restarts: the inner's
        # evaluations and the wrapper's own re-check evaluations land
        # in the same OrderingStats, as consumers of ``stats`` expect.
        inner.stats = self.stats
        if self.tracer.enabled:
            inner.tracer = self.tracer
        return inner

    # -- the trigger test --------------------------------------------------------

    def _ranking_shifted(
        self,
        head: OrderedPlan,
        remaining: list[PlanSpace],
        executed: list[QueryPlan],
    ) -> tuple[bool, float, float]:
        """(shifted?, re-scored head utility, residual frontier hi).

        O(frontier): one concrete evaluation for the head plus one
        interval evaluation per residual subspace (at most ``m`` more
        than the spaces tracked, from splitting the head out).
        """
        context = _ReplayMeasure(self.utility, executed).new_context()
        head_value = self._evaluate_plan(head.plan, context)
        rest = _split_out(remaining, head.plan)
        if not rest:
            return False, head_value, head_value
        intervals = [
            self._evaluate_slots(_space_slots(space), context)
            for space in rest
        ]
        frontier_hi = max(interval.hi for interval in intervals)
        shifted = not head_certainly_best(
            Interval.point(head_value), intervals
        )
        return shifted, head_value, frontier_hi

    # -- ordering ----------------------------------------------------------------

    def order_spaces(
        self,
        spaces: "list[PlanSpace] | tuple[PlanSpace, ...]",
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        self._check_k(k)
        # Unpacking (not list()) keeps COD002 honest: the spaces handed
        # in are copied for residual bookkeeping, never the plans.
        remaining = [*spaces]
        unfolded: list[QueryPlan] = []  # emitted, not yet split out
        executed: list[QueryPlan] = []
        #: Soundness answers for the inner orderer's ``on_emit``,
        #: recorded when the outer consumer resumes this generator —
        #: the same decide-before-resumption hand-off the pipelined
        #: session uses toward us.
        pending: dict[tuple[str, ...], bool] = {}

        def inner_on_emit(plan: QueryPlan) -> bool:
            return pending.pop(plan.key)

        emitted = 0
        seen_epoch = self.epoch.value
        inner = self._make_inner(executed).order_spaces(
            remaining, k, inner_on_emit
        )
        try:
            while emitted < k:
                entry = next(inner, None)
                if entry is None:
                    break
                self._epoch_checks.inc()
                current = self.epoch.value
                if current != seen_epoch:
                    # Re-score under the epoch we are about to act on; a
                    # bump racing in *during* the check is caught at the
                    # next plan.
                    seen_epoch = current
                    for done in unfolded:
                        remaining = _split_out(remaining, done)
                    unfolded.clear()
                    shifted, head_value, frontier_hi = self._ranking_shifted(
                        entry, remaining, executed
                    )
                    if shifted:
                        self._reorders.inc()
                        journal = self.journal
                        if journal is not None and journal.enabled:
                            journal.emit(
                                "plan.reordered",
                                rank=emitted + 1,
                                epoch=current,
                                old_head=list(entry.plan.key),
                                head_utility=head_value,
                                frontier_hi=frontier_hi,
                            )
                        old_head = entry.plan.key
                        inner.close()
                        inner = self._make_inner(executed).order_spaces(
                            remaining, k - emitted, inner_on_emit
                        )
                        entry = next(inner, None)
                        if entry is None:
                            break
                        if entry.plan.key != old_head:
                            self._head_churn.inc()
                    else:
                        self._suppressed.inc()
                emitted += 1
                plan = entry.plan
                yield OrderedPlan(plan, entry.utility, emitted)
                # Resumed: the consumer has decided soundness.  Record
                # the answer for the inner orderer (asked on its next
                # resumption) and queue the plan for the residual space
                # either way — emitted is emitted.
                sound = True if on_emit is None else on_emit(plan)
                pending[plan.key] = sound
                if sound:
                    executed.append(plan)
                unfolded.append(plan)
        finally:
            inner.close()
