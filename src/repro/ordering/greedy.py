"""The Greedy algorithm (paper, Section 4).

Applicable when the utility measure is *fully monotonic*: each bucket
admits a total preference order on its sources such that upgrading a
source always improves the plan, regardless of the executed set.  Then

* the best plan of a plan space is found by picking each bucket's best
  source (local comparisons only);
* removing an emitted plan splits its space into at most ``m`` disjoint
  subspaces (:meth:`~repro.reformulation.plans.PlanSpace.split_off`);
* a priority queue over the spaces' best plans yields the global
  ordering — the shared :mod:`~repro.ordering.frontier`, with a
  candidate being a space standing in as its best plan and an
  emission uncovering the spaces its plan splits off.

The paper proves Greedy returns the correct first ``k`` plans in
``O(m * n^2 * k^2)`` time; with the heap used here the typical cost is
``O(k * n * (log(k n) + m))`` where ``m`` is the largest bucket size
and ``n`` the query length.

Full monotonicity guarantees the per-bucket *order* is stable across
execution contexts, but for measures that are monotonic yet not
context-free the utility *values* may still drift, so the frontier is
re-scored after each recorded execution.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ordering.base import EmitCallback, OrderedPlan, PlanOrderer
from repro.ordering.frontier import Frontier
from repro.ordering.regimes import not_applicable
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.utility.base import UtilityMeasure


def best_plan_of(space: PlanSpace, utility: UtilityMeasure) -> QueryPlan:
    """Pick each bucket's best source by the measure's preference key."""
    chosen = []
    for bucket in space.buckets:
        best = max(
            bucket.sources,
            key=lambda s: (utility.source_preference_key(bucket.index, s), s.name),
        )
        chosen.append(best)
    return QueryPlan(tuple(chosen))


class _SpaceBest:
    """A plan space in the frontier, standing in as its best plan."""

    __slots__ = ("space", "plan", "key")
    is_concrete = True

    def __init__(self, space: PlanSpace, utility: UtilityMeasure) -> None:
        self.space = space
        self.plan = best_plan_of(space, utility)
        self.key = self.plan.key


class GreedyOrderer(PlanOrderer):
    """Exact ordering for fully monotonic utility measures."""

    name = "greedy"

    def __init__(self, utility: UtilityMeasure, **instrumentation: object) -> None:
        if not utility.is_fully_monotonic:
            raise not_applicable("Greedy", "a fully monotonic measure", utility)
        super().__init__(utility, **instrumentation)

    def order_spaces(
        self,
        spaces: "list[PlanSpace] | tuple[PlanSpace, ...]",
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        self._check_k(k)
        context = self.utility.new_context()
        frontier = Frontier(
            lambda best: self._evaluate_plan(best.plan, context)
        )
        for space in spaces:
            frontier.push(_SpaceBest(space, self.utility))

        def split(best: _SpaceBest) -> Iterator[_SpaceBest]:
            for subspace in best.space.split_off(best.plan):
                self.stats.spaces_created += 1
                yield _SpaceBest(subspace, self.utility)

        yield from self._emit_best_first(
            frontier, context, k, on_emit, uncover=split
        )
