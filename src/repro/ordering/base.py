"""Common interface and instrumentation for plan orderers.

The plan-ordering problem (paper, Definition 2.1): given a plan space
``S``, a utility measure ``u`` and a number ``k``, emit plans
``p1, ..., pk`` such that each ``pi`` maximizes
``u(p | p1, ..., p_{i-1}, Q)`` over the plans not yet emitted.

All orderers are generators: they lazily produce
:class:`OrderedPlan` records so callers can consume "the first few
best plans" without the orderer doing the work for all ``k`` up front
— the property the paper's motivation hinges on.

The ``on_emit`` callback implements the paper's soundness-interleaving
strategy (Section 2): the mediator tests each emitted plan for
soundness and returns False for plans it throws away, in which case
the plan is *not* recorded as executed and does not influence the
conditional utility of later plans.

Instrumentation: every orderer owns a
:class:`~repro.observability.metrics.MetricRegistry` (or shares one
passed in) and exposes :class:`OrderingStats`, a view over counters in
that registry, so per-algorithm accounting can be exported alongside
any other metrics.  A :class:`~repro.observability.tracing.Tracer` can
be attached for wall-time spans; the default is the free no-op tracer.
Utility caching (``cache=True``) wraps the measure in
:class:`~repro.observability.caching.CachingUtilityMeasure`, reporting
hit/miss counters through the same registry.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import OrderingError
from repro.observability.caching import CachingUtilityMeasure
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.ordering.frontier import Frontier, best_first
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.utility.base import ExecutionContext, Slots, UtilityMeasure
from repro.utility.intervals import Interval

#: Callback deciding whether an emitted plan counts as executed.
EmitCallback = Callable[[QueryPlan], bool]


@dataclass(frozen=True)
class OrderedPlan:
    """One entry of a plan ordering."""

    plan: QueryPlan
    utility: float
    rank: int

    def __str__(self) -> str:
        return f"#{self.rank} {self.plan} u={self.utility:.6g}"


class OrderingStats:
    """Instrumentation counters shared by all orderers.

    ``plans_evaluated`` counts utility evaluations of both concrete and
    abstract plans — the quantity the paper uses to explain the
    performance differences in Section 6 (e.g. "the number of plans
    evaluated by Streamer in the first iteration is less than 4% of the
    number of plans evaluated by PI").

    The counters live in a
    :class:`~repro.observability.metrics.MetricRegistry` under
    ``<prefix><field>`` names; this class is a field-per-counter view
    that keeps the original attribute API (``stats.refinements += 1``)
    working while the registry provides export and aggregation.
    """

    FIELDS = (
        "plans_evaluated",
        "concrete_evaluations",
        "abstract_evaluations",
        "refinements",
        "eliminations",
        "links_created",
        "links_recycled",
        "links_invalidated",
        "spaces_created",
        "first_plan_evaluations",
    )

    def __init__(
        self,
        registry: Optional[MetricRegistry] = None,
        prefix: str = "ordering.",
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.prefix = prefix
        self._counters = {
            field: self.registry.counter(f"{prefix}{field}")
            for field in self.FIELDS
        }

    def note_abstract_evaluation(self) -> None:
        self._counters["plans_evaluated"].inc()
        self._counters["abstract_evaluations"].inc()

    def note_concrete_evaluation(self) -> None:
        self._counters["plans_evaluated"].inc()
        self._counters["concrete_evaluations"].inc()

    def snapshot_first_plan(self) -> None:
        if self._counters["first_plan_evaluations"].value == 0:
            self._counters["first_plan_evaluations"].set(
                self._counters["plans_evaluated"].value
            )

    def as_dict(self) -> dict[str, int]:
        return {
            field: int(self._counters[field].value) for field in self.FIELDS
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"<OrderingStats {inner or 'empty'}>"


def _stats_field(field: str) -> property:
    def getter(self: OrderingStats) -> int:
        return int(self._counters[field].value)

    def setter(self: OrderingStats, value: int) -> None:
        self._counters[field].set(value)

    return property(getter, setter)


for _field in OrderingStats.FIELDS:
    setattr(OrderingStats, _field, _stats_field(_field))
del _field


def evaluate_plan(
    utility: UtilityMeasure,
    plan: QueryPlan,
    context: ExecutionContext,
    stats: OrderingStats,
    tracer: Tracer = NOOP_TRACER,
) -> float:
    """Point-evaluate *plan*, counting and (if enabled) tracing."""
    if tracer.enabled:
        with tracer.span("utility.eval"):
            value = utility.evaluate(plan, context)
    else:
        value = utility.evaluate(plan, context)
    stats.note_concrete_evaluation()
    return value


def evaluate_slots(
    utility: UtilityMeasure,
    slots: Slots,
    context: ExecutionContext,
    stats: OrderingStats,
    tracer: Tracer = NOOP_TRACER,
) -> Interval:
    """Interval-evaluate an abstract plan's slots, counted/traced."""
    if tracer.enabled:
        with tracer.span("utility.eval_slots"):
            interval = utility.evaluate_slots(slots, context)
    else:
        interval = utility.evaluate_slots(slots, context)
    stats.note_abstract_evaluation()
    return interval


def _no_regions(candidate: Any) -> Iterable[Any]:
    raise OrderingError(
        f"candidate {candidate.key} of an emission loop is not concrete"
    )


class PlanOrderer(ABC):
    """Base class of all ordering algorithms."""

    #: Human-readable algorithm name for experiment tables.
    name: str = "orderer"

    def __init__(
        self,
        utility: UtilityMeasure,
        *,
        cache: bool = False,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        if cache and not isinstance(utility, CachingUtilityMeasure):
            utility = CachingUtilityMeasure(utility, registry=self.registry)
        self.utility = utility
        self.stats = OrderingStats(
            registry=self.registry, prefix=f"ordering.{self.name}."
        )

    # -- instrumented evaluation -------------------------------------------------

    def _evaluate_plan(self, plan: QueryPlan, context: ExecutionContext) -> float:
        return evaluate_plan(self.utility, plan, context, self.stats, self.tracer)

    def _evaluate_slots(self, slots: Slots, context: ExecutionContext) -> Interval:
        return evaluate_slots(self.utility, slots, context, self.stats, self.tracer)

    # -- the emission loop of the frontier orderers ------------------------------

    def _emit_best_first(
        self,
        frontier: Frontier,
        context: ExecutionContext,
        k: int,
        on_emit: Optional[EmitCallback],
        *,
        uncover: Callable[[Any], Iterable[Any]],
    ) -> Iterator[OrderedPlan]:
        """Emit the ``k`` best plans of a seeded *frontier*.

        Every candidate is concrete and carries its ``plan``; there is
        nothing to expand.  On resumption after each yield:
        report the emission, record it if it counted, re-score the
        frontier iff the measure reads the context, then score — in
        the new context — what the emission uncovered (Greedy's split
        subspaces, AnyK's Lawler successors).
        """
        for rank, (candidate, value) in zip(
            range(1, k + 1), best_first(frontier, _no_regions)
        ):
            self.stats.snapshot_first_plan()
            plan = candidate.plan
            yield OrderedPlan(plan, value, rank)
            if on_emit is None or on_emit(plan):
                context.record(plan)
                if not self.utility.context_free:
                    frontier.rescore()
            for piece in uncover(candidate):
                frontier.push(piece)

    def order(
        self,
        space: PlanSpace,
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        """Lazily yield the ``k`` best plans in decreasing utility.

        May yield fewer than ``k`` entries when the space is smaller.
        Implementations must treat ``on_emit`` returning False as "plan
        discarded, not executed".

        **Lazy-iteration contract** (what the pipelined service layer
        builds on): implementations are generators, and

        1. no work for plan ``i+1`` happens until the consumer resumes
           the generator after receiving plan ``i`` — consuming a
           prefix never pays for the rest;
        2. ``on_emit(plan_i)`` is called at most once, *on resumption*
           after yielding plan ``i`` and before any utility evaluation
           for plan ``i+1`` — so a consumer that decides soundness
           between ``next()`` calls (sequentially or on a producer
           thread) always has the answer ready;
        3. abandoning the generator (``close()``/GC) is safe at any
           point and leaves the orderer reusable for a fresh call.

        ``tests/ordering/test_lazy_contract.py`` enforces this for
        every algorithm.  One space is the one-element case of
        :meth:`order_spaces`, which is what algorithms implement.
        """
        return self.order_spaces([space], k, on_emit)

    def order_spaces(
        self,
        spaces: "list[PlanSpace] | tuple[PlanSpace, ...]",
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        """Order the union of several plan spaces.

        This is the Section 7 adaptation to reformulation algorithms
        like MiniCon whose output is a *set* of plan spaces over
        generalized buckets; "modifying the ordering algorithms to
        handle a set of plan spaces (instead of one) is trivial".
        Subclasses override this with their natural generalization;
        spaces are assumed pairwise disjoint (no shared plan).
        """
        raise OrderingError(
            f"{type(self).__name__} does not support multiple plan spaces"
        )

    def order_list(
        self,
        space: PlanSpace,
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> list[OrderedPlan]:
        """Eagerly collect the ordering into a list."""
        with self.tracer.span(f"{self.name}.order"):
            return list(self.order(space, k, on_emit))

    @staticmethod
    def _check_k(k: int) -> None:
        if k <= 0:
            raise OrderingError(f"k must be positive, got {k}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} utility={self.utility.name!r}>"
