"""A virtual-clock simulator for plan execution.

The cost-based utility measures (paper, Sections 3 and 6) predict how
expensive a plan will be to run: per-source access overhead,
per-item transmission along a bind-join pipeline, source failures, and
result caching.  This module *executes* those dynamics on a virtual
clock, so the predictions can be validated end-to-end and the value of
ordering can be demonstrated as wall-clock-style numbers:

* a source access takes ``h + alpha * items`` virtual seconds,
* an access fails with the source's failure probability; the plan
  retries from the start (fresh accesses) up to ``max_attempts``,
* with caching enabled, a repeated source operation (same source,
  same plan slot) costs zero time, mirroring
  :class:`repro.utility.cost.CachingContext`.

The simulator mirrors :class:`~repro.utility.cost.BindJoinCost`'s cost
model exactly, so over many runs the mean simulated duration of a plan
converges to ``-utility`` of the failure-aware measure — a property
the test suite checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import ExecutionError
from repro.reformulation.plans import QueryPlan
from repro.resilience.health import SourceHealthTracker
from repro.utility.cost import SourceOp


@dataclass(frozen=True)
class PlanRun:
    """Outcome of simulating one plan execution."""

    plan: QueryPlan
    started_at: float
    finished_at: float
    attempts: int
    succeeded: bool

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class SimulationReport:
    """Aggregate outcome of simulating an ordered plan sequence."""

    runs: list[PlanRun] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.runs[-1].finished_at if self.runs else 0.0

    @property
    def time_to_first_success(self) -> Optional[float]:
        for run in self.runs:
            if run.succeeded:
                return run.finished_at
        return None


class ExecutionSimulator:
    """Simulates bind-join plan executions on a virtual clock."""

    def __init__(
        self,
        access_overhead: float = 1.0,
        domain_sizes: float | Sequence[float] = 1000.0,
        caching: bool = False,
        max_attempts: int = 50,
        seed: int = 0,
        health: Optional[SourceHealthTracker] = None,
    ) -> None:
        if access_overhead < 0:
            raise ExecutionError("access overhead must be non-negative")
        if max_attempts < 1:
            raise ExecutionError("max_attempts must be at least 1")
        self.access_overhead = access_overhead
        self._domain_sizes = domain_sizes
        self.caching = caching
        self.max_attempts = max_attempts
        #: Optional observer: every simulated source access feeds the
        #: tracker with its outcome, so simulations can demonstrate the
        #: observed rates converging on the catalog priors that
        #: generated them.
        self.health = health
        self._rng = random.Random(seed)
        self._clock = 0.0
        self._cache: set[SourceOp] = set()

    @property
    def clock(self) -> float:
        return self._clock

    def domain_size(self, slot: int) -> float:
        if isinstance(self._domain_sizes, (int, float)):
            return float(self._domain_sizes)
        return float(self._domain_sizes[slot])

    def reset(self, seed: Optional[int] = None) -> None:
        """Zero the clock and clear the cache (and optionally reseed)."""
        self._clock = 0.0
        self._cache.clear()
        if seed is not None:
            self._rng = random.Random(seed)

    # -- single plan ---------------------------------------------------------------

    def run_plan(self, plan: QueryPlan) -> PlanRun:
        """Execute one plan; the virtual clock advances by its cost."""
        started = self._clock
        attempts = 0
        succeeded = False
        while attempts < self.max_attempts and not succeeded:
            attempts += 1
            attempt_cost, succeeded = self._attempt(plan)
            self._clock += attempt_cost
        return PlanRun(
            plan=plan,
            started_at=started,
            finished_at=self._clock,
            attempts=attempts,
            succeeded=succeeded,
        )

    def _attempt(self, plan: QueryPlan) -> tuple[float, bool]:
        """One execution attempt: (cost, whether it succeeded).

        Cost accrues slot by slot until a failure aborts the attempt;
        partial work is paid for, matching the expected-cost-to-success
        semantics of the failure-aware measure asymptotically.
        """
        cost = 0.0
        flow = 0.0
        for slot, source in enumerate(plan.sources):
            stats = source.stats
            if slot == 0:
                flow = float(stats.n_tuples)
            else:
                flow = flow * stats.n_tuples / self.domain_size(slot)
            op: SourceOp = (source.name, slot)
            if self.caching and op in self._cache:
                continue
            if self._rng.random() < stats.failure_prob:
                # The failed access still pays its overhead.
                cost += self.access_overhead
                if self.health is not None:
                    self.health.record_failure(source.name)
                return cost, False
            cost += self.access_overhead + stats.transfer_cost * flow
            if self.health is not None:
                self.health.record_success(source.name)
            if self.caching:
                self._cache.add(op)
        return cost, True

    # -- ordered sequences ------------------------------------------------------------

    def run_ordering(self, plans: Iterable[QueryPlan]) -> SimulationReport:
        """Execute plans back to back, accumulating virtual time."""
        report = SimulationReport()
        for plan in plans:
            report.runs.append(self.run_plan(plan))
        return report
