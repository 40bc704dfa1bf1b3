"""Brute-force orderers: the naive baseline and the paper's PI.

Both materialize the full Cartesian product of the buckets and pick
the maximum each iteration — they are exact by construction.  The
difference is what gets recomputed after a plan executes:

* :class:`ExhaustiveOrderer` recomputes the utility of every remaining
  plan each iteration.
* :class:`PIOrderer` ("Plan Independence", paper Section 6) keeps
  cached utilities and invalidates only those of plans *not
  independent* of the just-executed plan — "the best brute-force
  algorithm that also computes the exact plan ordering".

Ties are broken by the plans' source-name keys, so both algorithms
are fully deterministic.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import InternalError
from repro.ordering.base import EmitCallback, OrderedPlan, PlanOrderer
from repro.reformulation.plans import PlanSpace, QueryPlan


class ExhaustiveOrderer(PlanOrderer):
    """Recompute-everything brute force (ablation baseline)."""

    name = "exhaustive"

    def order_spaces(
        self,
        spaces: "list[PlanSpace] | tuple[PlanSpace, ...]",
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        self._check_k(k)
        context = self.utility.new_context()
        remaining: dict[tuple[str, ...], QueryPlan] = {
            plan.key: plan for space in spaces for plan in space.plans()
        }
        for rank in range(1, k + 1):
            if not remaining:
                return
            best_plan = None
            best_key = None
            best_utility = float("-inf")
            for key, plan in remaining.items():
                value = self._evaluate_plan(plan, context)
                if value > best_utility or (
                    value == best_utility and (best_key is None or key < best_key)
                ):
                    best_utility = value
                    best_plan = plan
                    best_key = key
            if best_plan is None:
                raise InternalError(
                    "non-empty remaining set produced no best plan"
                )
            self.stats.snapshot_first_plan()
            yield OrderedPlan(best_plan, best_utility, rank)
            del remaining[best_plan.key]
            if on_emit is None or on_emit(best_plan):
                context.record(best_plan)


class PIOrderer(PlanOrderer):
    """Brute force with plan-independence-aware caching (paper's PI).

    In each iteration PI "uses plan independence information to decide
    the utility of which plans may have changed and thus need to be
    recomputed".  For context-free measures this means every utility
    is computed exactly once; for coverage-like measures only the
    plans overlapping the winner are recomputed.
    """

    name = "PI"

    def order_spaces(
        self,
        spaces: "list[PlanSpace] | tuple[PlanSpace, ...]",
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        self._check_k(k)
        context = self.utility.new_context()
        remaining: dict[tuple[str, ...], QueryPlan] = {
            plan.key: plan for space in spaces for plan in space.plans()
        }
        cached: dict[tuple[str, ...], float] = {}
        for rank in range(1, k + 1):
            if not remaining:
                return
            best_plan = None
            best_key = None
            best_utility = float("-inf")
            for key, plan in remaining.items():
                value = cached.get(key)
                if value is None:
                    value = self._evaluate_plan(plan, context)
                    cached[key] = value
                if value > best_utility or (
                    value == best_utility and (best_key is None or key < best_key)
                ):
                    best_utility = value
                    best_plan = plan
                    best_key = key
            if best_plan is None:
                raise InternalError(
                    "non-empty remaining set produced no best plan"
                )
            self.stats.snapshot_first_plan()
            yield OrderedPlan(best_plan, best_utility, rank)
            del remaining[best_plan.key]
            del cached[best_plan.key]
            if on_emit is None or on_emit(best_plan):
                context.record(best_plan)
                if not self.utility.context_free:
                    for key, plan in remaining.items():
                        if key in cached and not self.utility.independent(
                            best_plan, plan
                        ):
                            del cached[key]
