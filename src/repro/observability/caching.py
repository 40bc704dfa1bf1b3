"""Memoized utility evaluation with hit/miss accounting.

:class:`CachingUtilityMeasure` wraps a context-free
:class:`~repro.utility.base.UtilityMeasure` and memoizes both point
and interval evaluations.  Cache keys are built from identities the
objects already carry, never recomputed per evaluation:

* a concrete plan is identified by ``plan.key`` (its source names in
  subgoal order — the same identity the orderers use, computed once
  per plan);
* an abstract plan by its slots themselves: the per-slot member
  tuples, whose sources hash and compare by name, so equal name
  tuples are one entry whoever built them.

Only context-free measures are memoized, so no key carries a context
and the cache is *exact*: orderings with and without it are
byte-identical.  A context-dependent value, u(p | p1 ... p(i-1)), is
asked for again only after the context has recorded another plan, so
it could hit only in another run that executed the same prefix; the
constructor refuses such a measure, as it refuses one whose values
follow live source health (both are ``not cacheable``).  The win comes
from the orderers' repetition patterns — iDrips rebuilding abstract
pools each iteration, brute force rescanning surviving plans, Greedy
re-scoring its heap — and, in a ``QueryService``, from one request
warming the cache for the next.

Hits, misses and entries are counted through a
:class:`~repro.observability.metrics.MetricRegistry` under the
``utility_cache.*`` names.

Structural flags (monotonicity, diminishing returns, context freedom)
and the independence/preference hooks all delegate to the wrapped
measure (:class:`~repro.utility.base.DelegatingMeasure`), so an
orderer's applicability checks see the true measure.

Which measures may be cached, and where this wrapper sits among the
others, is the composition rule in :mod:`repro.resilience.measure`;
the constructor enforces it.
"""

from __future__ import annotations

from typing import Optional

from repro.observability.metrics import MetricRegistry
from repro.utility.base import (
    DelegatingMeasure,
    ExecutionContext,
    PlanLike,
    Slots,
    UtilityMeasure,
)
from repro.utility.intervals import Interval

__all__ = ["CachingUtilityMeasure"]


class CachingUtilityMeasure(DelegatingMeasure):
    """Transparent memoization layer over another utility measure."""

    def __init__(
        self,
        inner: UtilityMeasure,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if isinstance(inner, CachingUtilityMeasure):
            raise TypeError("refusing to stack utility caches")
        if not inner.cacheable:
            why = (
                "its values follow live source health"
                if inner.context_free
                else "its values depend on the plans already executed"
            )
            raise TypeError(
                f"refusing to cache {inner.name!r}: {why} "
                "(see repro.resilience.measure)"
            )
        super().__init__(inner)
        self.name = f"{inner.name}+memo"
        self.registry = registry if registry is not None else MetricRegistry()
        self._hits = self.registry.counter("utility_cache.hits")
        self._misses = self.registry.counter("utility_cache.misses")
        self._size = self.registry.gauge("utility_cache.entries")
        self._concrete: dict[tuple, float] = {}
        self._abstract: dict[tuple, Interval] = {}

    # -- cache plumbing ---------------------------------------------------------

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    def cache_size(self) -> int:
        return len(self._concrete) + len(self._abstract)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, plan: PlanLike, context: ExecutionContext) -> float:
        key = plan.key
        try:
            value = self._concrete[key]
        except KeyError:
            value = self.inner.evaluate(plan, context)
            self._concrete[key] = value
            self._misses.inc()
            self._size.set(self.cache_size())
            return value
        self._hits.inc()
        return value

    def evaluate_slots(self, slots: Slots, context: ExecutionContext) -> Interval:
        try:
            interval = self._abstract[slots]
        except KeyError:
            interval = self.inner.evaluate_slots(slots, context)
            self._abstract[slots] = interval
            self._misses.inc()
            self._size.set(self.cache_size())
            return interval
        self._hits.inc()
        return interval
