"""Per-source health: EWMA failure rates.

The paper's fourth utility measure ranks plans by the probability that
every source access succeeds (Figure 6's "failure" measure), but the
catalog's ``failure_prob`` values are static priors.  A serving
mediator sees the truth on every execution; this module accumulates it.

:class:`SourceHealthTracker` keeps, per source name, an
exponentially weighted moving average of the **failure rate**: each
observation contributes 1.0 (failure) or 0.0 (success), so the EWMA
is a recency-biased failure probability directly substitutable for
the catalog prior.

All updates are thread-safe (executor workers of many concurrent
sessions feed one tracker) and mirrored into a
:class:`~repro.observability.metrics.MetricRegistry` under
``resilience.health.<source>.*`` so a registry snapshot shows live
source health next to the service counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.observability.metrics import MetricRegistry

__all__ = ["HealthEpoch", "SourceHealth", "SourceHealthTracker"]

#: The EWMA weight of the newest observation.
ALPHA = 0.2


class HealthEpoch:
    """A monotone counter versioning "the health picture changed".

    The resilience manager bumps it on every *meaningful* movement of
    observed source health — a recorded failure, a success on a source
    that has failed before (recovery), a breaker transition — and the
    adaptive orderer compares :attr:`value` against the epoch it last
    scored the plan frontier under.  The comparison is one integer
    read, so the orderer can afford it between every two plans; the
    expensive dominance re-check only runs when the epoch moved.

    Pure successes on never-failed sources do **not** bump the epoch
    (the manager owns that rule): a fully healthy run keeps the epoch
    at its initial value forever, which is what makes the adaptive
    orderer's healthy-path byte-identity guarantee structural rather
    than probabilistic.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def bump(self) -> int:
        """Advance the epoch; returns the new value."""
        with self._lock:
            self._value += 1
            return self._value

    def __repr__(self) -> str:
        return f"<HealthEpoch {self.value}>"


@dataclass(frozen=True)
class SourceHealth:
    """An immutable snapshot of one source's observed health."""

    source: str
    successes: int
    failures: int
    failure_ewma: float

    @property
    def observations(self) -> int:
        return self.successes + self.failures

    def as_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "successes": self.successes,
            "failures": self.failures,
            "observations": self.observations,
            "failure_ewma": self.failure_ewma,
        }


class _Cell:
    """Mutable per-source accumulator (guarded by the tracker lock)."""

    __slots__ = ("successes", "failures", "failure_ewma")

    def __init__(self) -> None:
        self.successes = 0
        self.failures = 0
        self.failure_ewma = 0.0


class SourceHealthTracker:
    """Thread-safe EWMA failure tracking per source name.

    Each observation moves the average by :data:`ALPHA` of its
    distance; the first observation initializes it (no bias toward an
    arbitrary starting value).
    """

    def __init__(self, *, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self._lock = threading.Lock()
        self._cells: dict[str, _Cell] = {}

    # -- recording ---------------------------------------------------------------

    def record_success(self, source: str) -> None:
        """One successful access of *source*."""
        self._record(source, failed=False)

    def record_failure(self, source: str) -> None:
        """One failed access of *source*."""
        self._record(source, failed=True)

    def _record(self, source: str, *, failed: bool) -> None:
        outcome = 1.0 if failed else 0.0
        with self._lock:
            cell = self._cells.get(source)
            if cell is None:
                cell = self._cells[source] = _Cell()
                cell.failure_ewma = outcome
            else:
                cell.failure_ewma += ALPHA * (outcome - cell.failure_ewma)
            if failed:
                cell.failures += 1
            else:
                cell.successes += 1
            failure_ewma = cell.failure_ewma
            total = cell.successes + cell.failures
        prefix = f"resilience.health.{source}"
        self.registry.gauge(f"{prefix}.failure_rate").set(failure_ewma)
        self.registry.gauge(f"{prefix}.observations").set(total)

    # -- queries -----------------------------------------------------------------

    def observations(self, source: str) -> int:
        with self._lock:
            cell = self._cells.get(source)
            return 0 if cell is None else cell.successes + cell.failures

    def failures(self, source: str) -> int:
        """Lifetime failure count of *source* (0 when never seen)."""
        with self._lock:
            cell = self._cells.get(source)
            return 0 if cell is None else cell.failures

    def failure_rate(
        self, source: str, *, min_observations: int = 1
    ) -> Optional[float]:
        """The observed EWMA failure rate, or None below the sample floor.

        ``None`` tells callers (the health-aware measure, dashboards)
        to keep using the catalog prior — substituting a rate learned
        from one lucky or unlucky access would be noise, not signal.
        """
        with self._lock:
            cell = self._cells.get(source)
            if cell is None or cell.successes + cell.failures < min_observations:
                return None
            return cell.failure_ewma

    def health(self, source: str) -> Optional[SourceHealth]:
        with self._lock:
            cell = self._cells.get(source)
            if cell is None:
                return None
            return SourceHealth(
                source, cell.successes, cell.failures, cell.failure_ewma
            )

    def snapshot(self) -> dict[str, SourceHealth]:
        """All tracked sources, as immutable records."""
        with self._lock:
            names = tuple(self._cells)
        result = {}
        for name in names:
            record = self.health(name)
            if record is not None:
                result[name] = record
        return result

    def __repr__(self) -> str:
        with self._lock:
            tracked = len(self._cells)
        return f"<SourceHealthTracker sources={tracked}>"
