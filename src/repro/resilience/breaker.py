"""Per-source circuit breakers with probe budgets.

A breaker guards one source name and moves through the classic three
states:

* **closed** — normal operation; consecutive failures are counted and
  ``failure_threshold`` of them in a row trips the breaker open;
* **open** — the source is presumed down; every admission check fails
  until ``cooldown_s`` has elapsed on the injected clock;
* **half-open** — after the cooldown, up to ``probe_budget`` in-flight
  probe executions are admitted.  One probe success closes the
  breaker; one probe failure re-opens it with a fresh cooldown.

The mediator and the pipelined session never consult breakers
directly; they go through :class:`BreakerBoard`, which owns one
breaker per source name and offers an all-or-nothing
:meth:`BreakerBoard.admit` for a plan's whole source set — a plan is
only worth executing if *every* source it touches is admitted, so the
board peeks every breaker first and only then consumes probe slots.

The clock is injectable (``clock=time.monotonic`` by default) so state
transitions are testable without real sleeps.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Optional

from repro.errors import ServiceError
from repro.observability.metrics import MetricRegistry

__all__ = ["BreakerState", "CircuitBreaker", "BreakerBoard"]


class BreakerState:
    """String constants for the three breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Gauge encoding of the states (0 = closed is the healthy baseline).
_STATE_CODES = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


class CircuitBreaker:
    """One source's breaker.  All state lives under one lock.

    The open → half-open transition is *lazy*: it happens inside the
    next admission check after the cooldown elapses, so no background
    timer thread is needed.
    """

    def __init__(
        self,
        source: str,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        probe_budget: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ServiceError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ServiceError(f"cooldown_s must be >= 0, got {cooldown_s}")
        if probe_budget < 1:
            raise ServiceError(f"probe_budget must be >= 1, got {probe_budget}")
        self.source = source
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.probe_budget = probe_budget
        self.clock = clock
        # Reentrant: the state helpers below take the lock themselves so
        # they are safe both standalone and from the locked public
        # methods.
        self._lock = threading.RLock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.times_opened = 0

    # -- internal state transitions ----------------------------------------------

    def _maybe_half_open(self) -> None:
        with self._lock:
            if (
                self._state == BreakerState.OPEN
                and self.clock() - self._opened_at >= self.cooldown_s
            ):
                self._state = BreakerState.HALF_OPEN
                self._probes_in_flight = 0

    def _trip(self) -> None:
        with self._lock:
            self._state = BreakerState.OPEN
            self._opened_at = self.clock()
            self._consecutive_failures = 0
            self._probes_in_flight = 0
            self.times_opened += 1

    # -- admission ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state (advancing open → half-open if the cooldown passed)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def can_admit(self) -> bool:
        """Would an execution be admitted right now?  Consumes nothing."""
        with self._lock:
            self._maybe_half_open()
            if self._state == BreakerState.CLOSED:
                return True
            if self._state == BreakerState.HALF_OPEN:
                return self._probes_in_flight < self.probe_budget
            return False

    def admit(self) -> bool:
        """Admit one execution, consuming a probe slot when half-open."""
        with self._lock:
            self._maybe_half_open()
            if self._state == BreakerState.CLOSED:
                return True
            if (
                self._state == BreakerState.HALF_OPEN
                and self._probes_in_flight < self.probe_budget
            ):
                self._probes_in_flight += 1
                return True
            return False

    # -- outcomes ----------------------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == BreakerState.HALF_OPEN:
                # The probed source answered: it is back.
                self._state = BreakerState.CLOSED
                self._probes_in_flight = 0

    def release_probe(self) -> None:
        """Return an admitted-but-unused probe slot (admission rollback)."""
        with self._lock:
            if (
                self._state == BreakerState.HALF_OPEN
                and self._probes_in_flight > 0
            ):
                self._probes_in_flight -= 1

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state == BreakerState.HALF_OPEN:
                self._trip()
                return
            if self._state == BreakerState.CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._trip()

    def force_open(self) -> None:
        """Trip immediately (permanent outage observed)."""
        with self._lock:
            if self._state != BreakerState.OPEN:
                self._trip()
            else:
                self._opened_at = self.clock()

    def reset(self) -> None:
        with self._lock:
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probes_in_flight = 0

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.source!r} {self.state}>"


class BreakerBoard:
    """All breakers of one service, keyed by source name.

    Breakers are created lazily with shared defaults; admission for a
    plan is all-or-nothing (see :meth:`admit`).  State changes are
    mirrored into the metric registry as
    ``resilience.breaker.<source>.state`` gauges (0 closed, 1
    half-open, 2 open) plus ``opened`` / ``skips`` counters.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        probe_budget: int = 1,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.probe_budget = probe_budget
        self.clock = clock
        self.registry = registry if registry is not None else MetricRegistry()
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        # Breakers whose gauge can lag without being touched: never
        # exported yet, or last exported open or half-open (a closed
        # breaker only moves when an operation touches it; an open one
        # also moves with the clock).
        self._unsettled: dict[str, CircuitBreaker] = {}

    def breaker(self, source: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(source)
            if breaker is None:
                breaker = self._breakers[source] = CircuitBreaker(
                    source,
                    failure_threshold=self.failure_threshold,
                    cooldown_s=self.cooldown_s,
                    probe_budget=self.probe_budget,
                    clock=self.clock,
                )
                self._unsettled[source] = breaker
        return breaker

    def admit(self, sources: Iterable[str]) -> tuple[str, ...]:
        """Try to admit a plan touching *sources*; return blockers.

        Two-phase: first peek every breaker without consuming probe
        budget; only if all would admit, actually consume probe slots
        for the half-open ones.  An empty return tuple means the plan
        is admitted.  Otherwise the sorted blocking source names are
        returned and *nothing* was consumed — a plan blocked on one
        dead source must not eat another source's probe slot.
        """
        names = tuple(dict.fromkeys(sources))
        blocked = tuple(
            sorted(name for name in names if not self.breaker(name).can_admit())
        )
        if blocked:
            self.registry.counter("resilience.breaker.skips").inc()
            return blocked
        admitted: list[CircuitBreaker] = []
        for name in names:
            breaker = self.breaker(name)
            if breaker.admit():
                admitted.append(breaker)
                continue
            # Raced with another thread consuming the last probe slot:
            # roll back what we took and report the blocker.
            for taken in admitted:
                taken.release_probe()
            self.registry.counter("resilience.breaker.skips").inc()
            return (name,)
        self._export_states(names)
        return ()

    def record_success(self, source: str) -> None:
        self.breaker(source).record_success()
        self._export_states((source,))

    def record_failure(self, source: str, *, permanent: bool = False) -> None:
        breaker = self.breaker(source)
        before = breaker.times_opened
        if permanent:
            breaker.force_open()
        else:
            breaker.record_failure()
        if breaker.times_opened > before:
            self.registry.counter("resilience.breaker.opened").inc()
        self._export_states((source,))

    def states(self) -> dict[str, str]:
        """Current state of every breaker, by source name."""
        with self._lock:
            breakers = tuple(self._breakers.items())
        return {name: breaker.state for name, breaker in sorted(breakers)}

    def open_sources(self) -> tuple[str, ...]:
        return tuple(
            name
            for name, state in self.states().items()
            if state == BreakerState.OPEN
        )

    def _moved(self, touched: Iterable[str]) -> dict[str, CircuitBreaker]:
        """The registered breakers among *touched*, plus the unsettled."""
        with self._lock:
            moved = {
                name: self._breakers[name]
                for name in touched
                if name in self._breakers
            }
            moved.update(self._unsettled)
        return moved

    def moved_states(self, touched: Iterable[str]) -> dict[str, str]:
        """Current state of every breaker that can have moved, by name.

        That is the registered sources in *touched* plus every breaker
        not known to be closed: what an operation on *touched* and the
        clock can have changed, read without a sweep of the board.
        """
        moved = self._moved(touched)
        return {name: moved[name].state for name in sorted(moved)}

    def _export_states(self, touched: Iterable[str]) -> None:
        """Mirror into the gauges every breaker that can have moved.

        An operation costs what its plan touches, whatever the size of
        the catalog, and the gauges read what a sweep of the whole
        board would set.  Exports are serialized under the board's
        lock, so the last one of a breaker is the freshest.
        """
        moved = self._moved(touched)
        gauge = self.registry.gauge  # the registry does its own locking
        with self._lock:
            for name, breaker in moved.items():
                state = breaker.state
                gauge(f"resilience.breaker.{name}.state").set(_STATE_CODES[state])
                if state == BreakerState.CLOSED:
                    self._unsettled.pop(name, None)
                else:
                    self._unsettled[name] = breaker

    def reset(self) -> None:
        with self._lock:
            breakers = dict(self._breakers)
        for breaker in breakers.values():
            breaker.reset()
        self._export_states(breakers)

    def __repr__(self) -> str:
        states = self.states()
        open_count = sum(1 for s in states.values() if s != BreakerState.CLOSED)
        return f"<BreakerBoard sources={len(states)} non_closed={open_count}>"
