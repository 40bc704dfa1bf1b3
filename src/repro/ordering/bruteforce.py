"""Brute-force orderers: the naive baseline and the paper's PI.

Both materialize the full Cartesian product of the buckets and pick
the maximum each iteration — they are exact by construction, and one
scan serves both.  The difference is what gets recomputed after a plan
executes:

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

    #: Whether utilities survive an iteration; :class:`PIOrderer` keeps
    #: those the just-executed plan cannot have changed.
    reuses_utilities = False

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
            best_key = None
            best_utility = float("-inf")
            for key, plan in remaining.items():
                value = cached.get(key)
                if value is None:
                    value = cached[key] = self._evaluate_plan(plan, context)
                if value > best_utility or (
                    value == best_utility and (best_key is None or key < best_key)
                ):
                    best_utility = value
                    best_key = key
            if best_key is None:
                raise InternalError(
                    "non-empty remaining set produced no best plan"
                )
            self.stats.snapshot_first_plan()
            best_plan = remaining.pop(best_key)
            del cached[best_key]
            yield OrderedPlan(best_plan, best_utility, rank)
            executed = on_emit is None or on_emit(best_plan)
            if executed:
                context.record(best_plan)
            if not self.reuses_utilities:
                cached.clear()
            elif executed and not self.utility.context_free:
                for key, plan in remaining.items():
                    if key in cached and not self.utility.independent(
                        best_plan, plan
                    ):
                        del cached[key]


class PIOrderer(ExhaustiveOrderer):
    """Brute force with plan-independence-aware caching (paper's PI).

    In each iteration PI "uses plan independence information to decide
    the utility of which plans may have changed and thus need to be
    recomputed".  For context-free measures this means every utility
    is computed exactly once; for coverage-like measures only the
    plans overlapping the winner are recomputed.
    """

    name = "PI"
    reuses_utilities = True
