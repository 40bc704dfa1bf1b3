"""Memoized utility evaluation with hit/miss accounting.

:class:`CachingUtilityMeasure` wraps any
:class:`~repro.utility.base.UtilityMeasure` and memoizes both point
and interval evaluations.  Cache keys are built from identities the
objects already carry, never recomputed per evaluation:

* a concrete plan is identified by ``plan.key`` (its source names in
  subgoal order — the same identity the orderers use, computed once
  per plan);
* an abstract plan by its slots themselves: the per-slot member
  tuples, whose sources hash and compare by name, so equal name
  tuples are one entry whoever built them;
* a context by an exact *prefix token*: 0 for no executed plans, and
  for a longer prefix the integer interned from ``(token of the prefix
  before, plan.key)`` in a table this cache owns.  Two contexts get the
  same token iff they executed the same plans in the same order; a
  context remembers how far it was folded, so an evaluation pays for
  the plans recorded since the last one, not for the whole prefix.
  Context-free measures, where the executed set provably cannot change
  the value, always use 0 and build no table.

The prefix token makes the wrapper *exact*: a memoized value is
only reused in a context with the identical executed sequence, so
orderings with and without the cache are byte-identical.  The table
is allocated under a lock (one cache serves every session thread of a
``QueryService``) and lives as long as the cache.  The win comes
from the orderers' repetition patterns — iDrips rebuilding
abstract pools each iteration, brute force rescanning surviving plans,
Greedy re-scoring its heap — which re-evaluate the same signature in
the same context many times over.

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

import itertools
import threading
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
            raise TypeError(
                f"refusing to cache {inner.name!r}: its values follow live "
                "source health (see repro.resilience.measure)"
            )
        super().__init__(inner)
        self.name = f"{inner.name}+memo"
        self.registry = registry if registry is not None else MetricRegistry()
        self._hits = self.registry.counter("utility_cache.hits")
        self._misses = self.registry.counter("utility_cache.misses")
        self._size = self.registry.gauge("utility_cache.entries")
        self._concrete: dict[tuple, float] = {}
        self._abstract: dict[tuple, Interval] = {}
        # (token of the prefix before, plan.key) -> token of the prefix;
        # allocated under the lock (module docstring).
        self._prefixes: dict[tuple[int, tuple[str, ...]], int] = {}
        self._prefix_lock = threading.Lock()
        self._tokens = itertools.count(1)

    # -- cache plumbing ---------------------------------------------------------

    def _context_token(self, context: ExecutionContext) -> int:
        """The prefix token of ``context.executed`` (module docstring).

        Folds in only the plans recorded since this context was last
        seen, so the cost is O(1) amortised over a run.
        """
        if self.inner.context_free:
            return 0
        owner, folded, token = context.prefix_cursor
        if owner is not self:
            folded = token = 0
        executed = context.executed
        if folded != len(executed):
            with self._prefix_lock:
                for index in range(folded, len(executed)):
                    link = (token, executed[index].key)
                    token = self._prefixes.get(link, 0)
                    if not token:
                        token = self._prefixes[link] = next(self._tokens)
            context.prefix_cursor = (self, len(executed), token)
        return token

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
        key = (plan.key, self._context_token(context))
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
        key = (slots, self._context_token(context))
        try:
            interval = self._abstract[key]
        except KeyError:
            interval = self.inner.evaluate_slots(slots, context)
            self._abstract[key] = interval
            self._misses.inc()
            self._size.set(self.cache_size())
            return interval
        self._hits.inc()
        return interval
