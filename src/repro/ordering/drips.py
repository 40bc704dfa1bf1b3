"""Drips: abstraction-based search for the single best plan (Section 5.1).

Drips maintains a pool of abstract plans with utility intervals and
repeatedly evaluates, eliminates dominated plans (``p.lo >= q.hi``
discards all of ``q``'s concrete plans without computing their
utilities), and refines a surviving abstract plan, until one concrete
plan remains.

The implementation realizes this as *best-first search* on the shared
:mod:`~repro.ordering.frontier`: candidates are abstract plans keyed
by interval upper bound; the top is refined if abstract and returned
if concrete.  This visits exactly the candidates Drips'
refine-the-most-promising policy visits, and the never-popped frontier
remainder is the set Drips would have eliminated — dominance
elimination performed lazily in ``O(log n)`` per step instead of by
quadratic scanning.  A popped concrete plan has the
maximal upper bound, hence utility at least every other candidate's
whole interval: it is the best plan.

Ties are resolved by the frontier's one tie-break (a concrete plan
before an abstract one, then the plans' deterministic keys), so the
search is fully reproducible.

:func:`drips_search` is shared by :class:`DripsPlanner` (one space,
one winner) and :class:`~repro.ordering.idrips.IDripsOrderer` (a pool
of top plans from several spaces).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import OrderingError
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.ordering.abstraction import (
    AbstractionHeuristic,
    AbstractPlan,
    OutputCountHeuristic,
    top_plan,
)
from repro.ordering.base import OrderingStats, evaluate_plan, evaluate_slots
from repro.ordering.frontier import Frontier, best_first
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.utility.base import ExecutionContext, UtilityMeasure


def drips_search(
    pool: Sequence[AbstractPlan],
    utility: UtilityMeasure,
    context: ExecutionContext,
    stats: OrderingStats,
    tracer: Tracer = NOOP_TRACER,
) -> tuple[AbstractPlan, float]:
    """Find the best concrete plan represented by *pool*.

    Returns the winning (concrete) abstract plan and its utility.
    """
    if not pool:
        raise OrderingError("drips_search needs a non-empty pool")

    def upper_bound(plan: AbstractPlan) -> float:
        if plan.is_concrete:
            return evaluate_plan(
                utility, plan.concrete_plan(), context, stats, tracer
            )
        return evaluate_slots(
            utility, plan.slots_members(), context, stats, tracer
        ).hi

    def refine(plan: AbstractPlan) -> list[AbstractPlan]:
        stats.refinements += 1
        return plan.refine()

    frontier = Frontier(upper_bound)
    for plan in pool:
        frontier.push(plan)
    found = next(best_first(frontier, refine), None)
    if found is None:
        raise OrderingError("drips_search exhausted the pool without a winner")
    # Everything still on the frontier is dominated by the winner.
    stats.eliminations += len(frontier)
    return found


class DripsPlanner:
    """Find the best plan of a plan space by abstraction.

    Not a :class:`~repro.ordering.base.PlanOrderer`: Drips "is not
    suited for data integration because it finds only the first plan
    in the ordering" (Section 5.2).  It exists as the building block
    of iDrips and Streamer and as a subject of the Section 5.1 worked
    example.
    """

    name = "drips"

    def __init__(
        self,
        utility: UtilityMeasure,
        heuristic: Optional[AbstractionHeuristic] = None,
        *,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.utility = utility
        self.heuristic = heuristic or OutputCountHeuristic()
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.stats = OrderingStats(
            registry=self.registry, prefix=f"ordering.{self.name}."
        )

    def best_plan(
        self, space: PlanSpace, context: Optional[ExecutionContext] = None
    ) -> tuple[QueryPlan, float]:
        """The highest-utility plan of *space* and its utility."""
        if context is None:
            context = self.utility.new_context()
        with self.tracer.span("drips.best_plan"):
            root = top_plan(space.buckets, self.heuristic)
            winner, value = drips_search(
                [root], self.utility, context, self.stats, self.tracer
            )
        return winner.concrete_plan(), value
