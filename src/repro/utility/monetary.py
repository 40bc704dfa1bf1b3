"""Average monetary cost per output tuple (paper, Section 6).

``u(p) = -Cost(p) / NumOutputTuples(p)`` where ``Cost`` is the
monetary analogue of cost measure (2) -- a per-access fee plus a
per-item fee on the items each source ships -- and
``NumOutputTuples`` is the standard bind-join output estimate (as in
Yerneni et al. [23]): ``m_1 = n_1``, ``m_j = m_{j-1} * n_j / N_j``,
output = ``m_d``.

Like the paper we support both the plain (context-free) variant and a
caching variant where fees are not paid again for cached source
operations.  The paper reports that for this measure the abstraction
heuristic is comparatively ineffective and PI wins (Figures 6.j-l):
the ratio of two interval quantities is wide even when each factor is
grouped well, which our reproduction confirms.
"""

from __future__ import annotations

from typing import Sequence

from repro.sources.catalog import SourceDescription
from repro.utility.base import ExecutionContext, PlanLike, Slots, UtilityMeasure
from repro.utility.cost import CachingContext
from repro.utility.intervals import Interval

#: Floor applied to the estimated output size before dividing.
_MIN_OUTPUT = 1e-6


class MonetaryCostPerTuple(UtilityMeasure):
    """Negated average monetary cost per output tuple."""

    is_fully_monotonic = False

    def __init__(
        self,
        domain_sizes: float | Sequence[float] = 1000.0,
        caching: bool = False,
    ) -> None:
        self._domain_sizes = domain_sizes
        self.caching = caching
        self.context_free = not caching
        self.has_diminishing_returns = not caching
        self.name = "monetary-per-tuple" + ("+caching" if caching else "")

    def domain_size(self, slot: int) -> float:
        if isinstance(self._domain_sizes, (int, float)):
            return float(self._domain_sizes)
        return float(self._domain_sizes[slot])

    def new_context(self) -> ExecutionContext:
        if self.caching:
            return CachingContext()
        return ExecutionContext()

    # -- point evaluation ----------------------------------------------------------

    def evaluate(self, plan: PlanLike, context: ExecutionContext) -> float:
        cost = 0.0
        flow = 0.0
        for slot, source in enumerate(plan.sources):
            stats = source.stats
            if slot == 0:
                flow = float(stats.n_tuples)
            else:
                flow = flow * stats.n_tuples / self.domain_size(slot)
            if self.caching and self._is_cached(context, source, slot):
                continue
            cost += stats.access_fee + stats.fee_per_item * flow
        return -cost / max(flow, _MIN_OUTPUT)

    def _is_cached(
        self, context: ExecutionContext, source: SourceDescription, slot: int
    ) -> bool:
        return isinstance(context, CachingContext) and context.is_cached(source, slot)

    # -- interval evaluation ----------------------------------------------------------

    def evaluate_slots(self, slots: Slots, context: ExecutionContext) -> Interval:
        cost = Interval.point(0.0)
        flow = Interval.point(0.0)
        for slot, members in enumerate(slots):
            n = Interval(
                min(s.stats.n_tuples for s in members),
                max(s.stats.n_tuples for s in members),
            )
            if slot == 0:
                flow = n
            else:
                flow = flow * n / self.domain_size(slot)
            access = Interval(
                min(s.stats.access_fee for s in members),
                max(s.stats.access_fee for s in members),
            )
            per_item = Interval(
                min(s.stats.fee_per_item for s in members),
                max(s.stats.fee_per_item for s in members),
            )
            term = access + per_item * flow
            if self.caching:
                cached = [self._is_cached(context, s, slot) for s in members]
                if all(cached):
                    term = Interval.point(0.0)
                elif any(cached):
                    term = Interval(0.0, term.hi)
            cost = cost + term
        output = Interval(max(flow.lo, _MIN_OUTPUT), max(flow.hi, _MIN_OUTPUT))
        return -(cost / output)

    # -- independence ----------------------------------------------------------------

    def independent(self, first: PlanLike, second: PlanLike) -> bool:
        if not self.caching:
            return True
        return all(a.name != b.name for a, b in zip(first.sources, second.sources))
