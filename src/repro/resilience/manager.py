"""The resilience facade wired into the mediator and the service.

:class:`ResilienceManager` bundles one
:class:`~repro.resilience.health.SourceHealthTracker` and one
:class:`~repro.resilience.breaker.BreakerBoard` behind the small
surface the execution layers actually need:

* :meth:`admit` — before executing a plan, ask whether any of its
  sources sits behind a non-admitting breaker; a blocked plan is
  *skipped* (degradation accounting), not retried;
* :meth:`record_success` / :meth:`record_failure` — after each
  execution attempt, feed the outcome to both the health tracker and
  the breakers.  Failures carrying a ``source`` attribute (the chaos
  errors) are attributed to that source alone; anonymous failures are
  conservatively charged to every source the plan touches;
* :meth:`health_measure` — wrap a utility measure so ordering tracks
  observed failure rates (see
  :class:`~repro.resilience.measure.HealthAwareMeasure`).

A plan that failed all its retries under a manager degrades to a
failed batch and the request goes on; without one, the request
aborts.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.errors import PermanentSourceError
from repro.observability.journal import EventJournal, NOOP_JOURNAL
from repro.observability.metrics import MetricRegistry
from repro.resilience.breaker import BreakerBoard, BreakerState
from repro.resilience.health import HealthEpoch, SourceHealthTracker
from repro.resilience.measure import HealthAwareMeasure
from repro.utility.base import PlanLike, UtilityMeasure

__all__ = ["ResilienceManager"]


class ResilienceManager:
    """Health tracker + breaker board, with plan-level attribution."""

    def __init__(
        self,
        *,
        tracker: Optional[SourceHealthTracker] = None,
        board: Optional[BreakerBoard] = None,
        registry: Optional[MetricRegistry] = None,
        breakers: bool = True,
        min_observations: int = 3,
        journal: Optional[EventJournal] = None,
    ) -> None:
        registry = registry if registry is not None else MetricRegistry()
        self.registry = registry
        #: Event journal for breaker transitions and source failures;
        #: the optional ``request_id`` kwargs on the recording methods
        #: stamp events with the request that triggered them.
        self.journal = journal if journal is not None else NOOP_JOURNAL
        self.tracker = (
            tracker
            if tracker is not None
            else SourceHealthTracker(registry=registry)
        )
        self.board = board if board is not None else BreakerBoard(registry=registry)
        #: With breakers off, plans always execute (health tracking and
        #: graceful degradation still apply) — the control arm of the
        #: breakers-on/off comparison in ``tests/resilience/test_degradation.py``.
        self.breakers = breakers
        self.min_observations = min_observations
        #: Monotone version of "the health picture changed".  Bumped on
        #: failures, on recoveries (a success on a source with recorded
        #: failures), and on breaker transitions — never on successes
        #: of never-failed sources, so a healthy run keeps epoch 0 and
        #: the adaptive orderer provably never re-sorts.
        self.epoch = HealthEpoch()
        # The breakers last seen open or half-open, by _note_transitions
        # (closed ones are not kept).  The diff baseline must be
        # *remembered*, not re-queried: reading a breaker's state lazily
        # advances a cooled-down one to half-open, so a fresh "before"
        # snapshot would swallow exactly the probe transitions the
        # epoch exists to announce.
        self._seen_states: dict[str, str] = {}
        self._seen_lock = threading.Lock()

    # -- plan helpers ------------------------------------------------------------

    @staticmethod
    def sources_of(plan: PlanLike) -> tuple[str, ...]:
        return tuple(dict.fromkeys(source.name for source in plan.sources))

    def admit(self, plan: PlanLike, *, request_id: str = "") -> tuple[str, ...]:
        """Blocking source names for *plan*; empty means admitted.

        An admission probe can itself transition breakers (open →
        half-open once the cooldown elapses), so transitions are
        journaled here too.  ``request_id`` correlates those events
        with the request whose plan probed the breaker.
        """
        if not self.breakers:
            return ()
        sources = self.sources_of(plan)
        blocked = self.board.admit(sources)
        self._note_transitions(sources, request_id)
        return blocked

    # -- outcome recording -------------------------------------------------------

    def _bump_epoch(self, reason: str, request_id: str) -> None:
        """Advance the health epoch and journal the advance."""
        value = self.epoch.bump()
        if self.journal.enabled:
            self.journal.emit(
                "health.epoch",
                request_id=request_id,
                epoch=value,
                reason=reason,
            )

    def _note_transitions(self, touched: Iterable[str], request_id: str) -> None:
        """Bump the epoch and journal every state change since last look.

        Looks only at what can have changed — the *touched* sources and
        the breakers that are, or were last seen, not closed — so the
        cost follows the plan, not the number of registered breakers.
        Runs whether or not the journal is enabled: breaker transitions
        are exactly the moments the adaptive orderer must notice, so
        the epoch bump cannot be tied to observability settings.
        """
        with self._seen_lock:
            watched = (*touched, *self._seen_states)
        after = self.board.moved_states(watched)
        changed: list[tuple[str, str, str]] = []
        with self._seen_lock:
            for source, state in after.items():
                previous = self._seen_states.pop(source, BreakerState.CLOSED)
                if state != BreakerState.CLOSED:
                    self._seen_states[source] = state
                if state != previous:
                    changed.append((source, previous, state))
        for source, previous, state in changed:
            if self.journal.enabled:
                self.journal.emit(
                    "breaker.transition",
                    request_id=request_id,
                    source=source,
                    from_state=previous,
                    to_state=state,
                )
            self._bump_epoch("breaker.transition", request_id)

    def record_success(
        self, sources: Iterable[str], *, request_id: str = ""
    ) -> None:
        """One successful plan execution touching *sources*.

        A success on a source that has recorded failures is *recovery*:
        its EWMA failure rate just moved toward 0, which can re-promote
        plans the adaptive orderer demoted — so the epoch bumps.  A
        success on a never-failed source changes nothing the ordering
        can see and leaves the epoch alone.
        """
        sources = tuple(sources)
        recovering = any(self.tracker.failures(s) > 0 for s in sources)
        for source in sources:
            self.tracker.record_success(source)
            self.board.record_success(source)
        if recovering:
            self._bump_epoch("recovery", request_id)
        self._note_transitions(sources, request_id)

    def record_failure(
        self,
        sources: Iterable[str],
        error: Optional[BaseException] = None,
        *,
        request_id: str = "",
    ) -> None:
        """One failed execution attempt of a plan touching *sources*.

        Errors that name a source (``error.source``) charge only that
        source; the plan's other sources were bystanders and should
        neither accrue failures nor trip breakers.
        """
        blamed = getattr(error, "source", None)
        permanent = isinstance(error, PermanentSourceError)
        targets = (blamed,) if blamed is not None else tuple(sources)
        for source in targets:
            self.tracker.record_failure(source)
            self.board.record_failure(source, permanent=permanent)
        if self.journal.enabled:
            self.journal.emit(
                "source.failure",
                request_id=request_id,
                sources=list(targets),
                error=type(error).__name__ if error is not None else "",
            )
        self._bump_epoch("source.failure", request_id)
        self._note_transitions(targets, request_id)

    # -- views -------------------------------------------------------------------

    def breaker_states(self) -> dict[str, str]:
        return self.board.states()

    def health_measure(self, inner: UtilityMeasure) -> HealthAwareMeasure:
        """Wrap *inner* for adaptive re-ranking.

        The result is never ``cacheable`` (the composition rule in
        :mod:`repro.resilience.measure`).
        """
        return HealthAwareMeasure(
            inner, self.tracker, min_observations=self.min_observations
        )

    def __repr__(self) -> str:
        return f"<ResilienceManager breakers={self.breaker_states()}>"
