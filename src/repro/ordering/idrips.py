"""iDrips: iterated Drips (paper, Section 5.2).

iDrips finds the best plan with Drips, removes it from its plan space
(splitting the space into disjoint subspaces, as Greedy does), then
re-abstracts the sources of the new subspaces and runs Drips again
over the pool of all spaces' top abstract plans for the next best
plan, and so on.

Every iteration rebuilds the abstract candidate pool and recomputes
utility intervals from scratch — the duplicated work whose elimination
motivates Streamer.  In exchange iDrips is applicable whenever a sound
interval evaluation exists, including measures *without*
utility-diminishing returns (e.g. cost with caching, Figures 6.g-i).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ordering.abstraction import (
    AbstractionHeuristic,
    AbstractPlan,
    AbstractSource,
    OutputCountHeuristic,
    build_trees,
)
from repro.ordering.base import EmitCallback, OrderedPlan, PlanOrderer
from repro.ordering.drips import drips_search
from repro.reformulation.plans import PlanSpace
from repro.utility.base import UtilityMeasure


class IDripsOrderer(PlanOrderer):
    """Order plans by repeatedly applying Drips with space splitting."""

    name = "iDrips"

    def __init__(
        self,
        utility: UtilityMeasure,
        heuristic: Optional[AbstractionHeuristic] = None,
        **instrumentation: object,
    ) -> None:
        super().__init__(utility, **instrumentation)
        self.heuristic = heuristic or OutputCountHeuristic()

    def order_spaces(
        self,
        initial_spaces: "list[PlanSpace] | tuple[PlanSpace, ...]",
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        self._check_k(k)
        context = self.utility.new_context()
        spaces: dict[int, tuple[PlanSpace, tuple[AbstractSource, ...]]] = {
            index: (space, build_trees(space.buckets, self.heuristic))
            for index, space in enumerate(initial_spaces)
        }
        next_id = len(spaces)

        for rank in range(1, k + 1):
            if not spaces:
                return
            # Fresh pool each iteration: utilities may have changed and
            # iDrips deliberately rebuilds everything (Section 5.2).
            pool = [
                AbstractPlan(trees, space_id)
                for space_id, (_space, trees) in spaces.items()
            ]
            with self.tracer.span("idrips.iteration"):
                winner, value = drips_search(
                    pool, self.utility, context, self.stats, self.tracer
                )
            plan = winner.concrete_plan()
            self.stats.snapshot_first_plan()
            yield OrderedPlan(plan, value, rank)

            owner_space, _trees = spaces.pop(winner.space_id)
            for subspace in owner_space.split_off(plan):
                spaces[next_id] = (
                    subspace,
                    build_trees(subspace.buckets, self.heuristic),
                )
                next_id += 1
                self.stats.spaces_created += 1

            if on_emit is None or on_emit(plan):
                context.record(plan)
