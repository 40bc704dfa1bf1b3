"""Adaptive re-ranking: substitute observed failure rates into a measure.

The paper's failure-aware cost measure divides a plan's cost by
``prod_i (1 - f_i)``, the probability that every source access
succeeds — but ``f_i`` comes from static catalog priors.
:class:`HealthAwareMeasure` wraps any
:class:`~repro.utility.base.UtilityMeasure` and, at evaluation time,
replaces each source's ``stats.failure_prob`` with the EWMA failure
rate observed by a :class:`~repro.resilience.health.SourceHealthTracker`
(clamped below 1.0, since ``SourceStats`` requires ``f < 1``).  Greedy,
iDrips and Streamer then rank plans by *live* source health with no
changes of their own.

**Exact pass-through** keeps this safe to deploy: when no source has
a substituted rate (tracker empty, or below the observation floor),
every call delegates directly to the inner measure on the *original*
objects, so utilities (and therefore batch streams) are bit-identical
to the unwrapped measure.

**The one legal wrapper composition** (every site that stacks measure
wrappers follows it; :meth:`QueryService.shared_measure
<repro.service.server.QueryService.shared_measure>` is the one place
that picks between the first two):

* a base measure goes under **either**
  :class:`~repro.observability.caching.CachingUtilityMeasure` **or**
  :class:`HealthAwareMeasure` — never a cache over a health-aware
  measure, and never a cache over a context-dependent one.  The cache
  keys utilities by source-name signatures alone, which do not change
  when the substituted rates do, so cached entries would go stale the
  moment health drifts; and a value conditioned on the executed plans
  could hit only in another run with the same prefix.  One predicate,
  ``UtilityMeasure.cacheable``, says both: it is the measure's
  ``context_free``, a ``HealthAwareMeasure`` answers False, and
  wrappers forward it.  ``CachingUtilityMeasure`` — hence also
  ``PlanOrderer(cache=True)`` — refuses a measure that is not
  cacheable, and the service serves such a measure unwrapped;
* ``_ReplayMeasure`` exists only inside
  :class:`~repro.ordering.adaptive.AdaptiveOrderer` and is always
  outermost, over whichever of the two the request was given.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.errors import ServiceError
from repro.resilience.health import SourceHealthTracker
from repro.sources.catalog import SourceDescription
from repro.utility.base import (
    DelegatingMeasure,
    ExecutionContext,
    PlanLike,
    Slots,
    UtilityMeasure,
)
from repro.utility.intervals import Interval

__all__ = ["HealthAwareMeasure"]

#: ``SourceStats`` requires failure_prob < 1; a fully dead source is
#: represented as "almost surely fails" so failure-aware costs stay finite.
MAX_FAILURE_PROB = 0.999


class _SubstitutedPlan:
    """A plan view with health-substituted source descriptions."""

    __slots__ = ("sources",)

    def __init__(self, sources: tuple[SourceDescription, ...]) -> None:
        self.sources = sources


class HealthAwareMeasure(DelegatingMeasure):
    """Wrap *inner*, substituting observed failure rates into its inputs.

    Parameters
    ----------
    inner:
        Any utility measure.  Structural flags (monotonicity,
        diminishing returns, context-freeness) are mirrored from it.
    tracker:
        Source of observed EWMA failure rates.
    min_observations:
        Sample floor below which a tracker rate is ignored and the
        catalog prior kept.
    """

    def __init__(
        self,
        inner: UtilityMeasure,
        tracker: SourceHealthTracker,
        *,
        min_observations: int = 3,
    ) -> None:
        if min_observations < 1:
            raise ServiceError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        # Structural properties stay the inner measure's: substitution
        # only changes each source's failure_prob scalar, which the
        # flags already account for (e.g. failure-aware BindJoinCost
        # is not fully monotonic with or without substitution).
        super().__init__(inner)
        self.tracker = tracker
        self.min_observations = min_observations
        self.name = f"{inner.name}+health"

    @property
    def cacheable(self) -> bool:
        return False  # the rates move under a cache's keys

    # -- substitution ------------------------------------------------------------

    def observed_rate(self, source: str) -> Optional[float]:
        """The failure rate to substitute for *source*, if any."""
        return self.tracker.failure_rate(
            source, min_observations=self.min_observations
        )

    def substitute(self, source: SourceDescription) -> SourceDescription:
        """*source* with its failure prior replaced by the observed rate.

        Returns the original object (not a copy) when there is nothing
        to substitute or the observed rate equals the prior, so callers
        can detect "no change" with an identity check and preserve
        bit-identical inner-measure arithmetic.
        """
        rate = self.observed_rate(source.name)
        if rate is None:
            return source
        rate = min(max(rate, 0.0), MAX_FAILURE_PROB)
        if rate == source.stats.failure_prob:
            return source
        return SourceDescription(
            source.name, source.view, replace(source.stats, failure_prob=rate)
        )

    def _substitute_plan(self, plan: PlanLike) -> PlanLike:
        substituted = tuple(self.substitute(source) for source in plan.sources)
        if all(a is b for a, b in zip(substituted, plan.sources)):
            return plan
        return _SubstitutedPlan(substituted)

    def _substitute_slots(self, slots: Slots) -> Slots:
        changed = False
        rebuilt = []
        for members in slots:
            new_members = tuple(self.substitute(source) for source in members)
            changed = changed or any(
                a is not b for a, b in zip(new_members, members)
            )
            rebuilt.append(new_members)
        return tuple(rebuilt) if changed else slots

    # -- substituted evaluation ----------------------------------------------------
    # (Independence tests compare source *names*, which substitution
    # preserves, so those hooks forward the original plans.)

    def evaluate(self, plan: PlanLike, context: ExecutionContext) -> float:
        return self.inner.evaluate(self._substitute_plan(plan), context)

    def evaluate_slots(self, slots: Slots, context: ExecutionContext) -> Interval:
        return self.inner.evaluate_slots(self._substitute_slots(slots), context)

    def source_preference_key(self, bucket: int, source: SourceDescription) -> float:
        return self.inner.source_preference_key(bucket, self.substitute(source))

    def __repr__(self) -> str:
        return f"<HealthAwareMeasure {self.name!r}>"
