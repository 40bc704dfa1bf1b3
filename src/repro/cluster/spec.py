"""A picklable description of one served catalog.

A worker process is started with the ``spawn`` context (see
:mod:`repro.cluster.supervisor` for why), so everything it needs must
cross a pickle boundary.  A :class:`WorkerSpec` therefore carries only
names, numbers, plain dicts and a frozen
:class:`~repro.service.server.ServiceConfig` — the worker rebuilds live
objects (catalog, measures, chaos backend) on its side from
:func:`repro.service.workloads.service_workload`.  ``serve`` builds its
single-process service from the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ServiceError
from repro.service.server import ServiceConfig
from repro.service.workloads import WORKLOAD_NAMES

__all__ = ["WorkerSpec"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one served catalog needs to boot its service.

    ``config`` is the service's admission, defaulting and tracing
    configuration.  ``chaos`` is a :meth:`ChaosProfile.as_dict` export,
    rebuilt into a chaos backend on the worker's side; with it set,
    the service gets a resilience
    manager whose breakers cool down for ``breaker_cooldown_s`` and
    whose health-aware measures trust a failure rate after
    ``min_observations`` accesses.  ``journal_path`` names a per-shard
    JSON-lines file whose every event is tagged ``shard: <shard>``.
    """

    shard: int
    workload: str = "movies"
    seed: int = 0
    config: ServiceConfig = field(default_factory=ServiceConfig)
    chaos: Optional[dict] = None
    chaos_seed: int = 0
    breakers: bool = True
    breaker_cooldown_s: float = 5.0
    min_observations: int = 3
    journal_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ServiceError(f"shard must be >= 0, got {self.shard}")
        if self.workload not in WORKLOAD_NAMES:
            raise ServiceError(
                f"unknown workload {self.workload!r}; "
                f"have {', '.join(WORKLOAD_NAMES)}"
            )

