"""Picklable descriptions of a served catalog and of a cluster.

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

__all__ = ["ClusterConfig", "WorkerSpec"]


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
    host: str = "127.0.0.1"
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


@dataclass(frozen=True)
class ClusterConfig:
    """Router + supervisor knobs.

    ``backlog_per_shard`` bounds how many relays may be in flight to
    one worker before the router sheds with ``overloaded`` — the
    cluster-level analogue of the service's admission gate.
    ``probe_interval_s`` and the breaker knobs govern the supervisor's
    health loop: ``failure_threshold`` consecutive failed probes open a
    shard's breaker, routing fails over to ring neighbours until a
    successful probe closes it again.  A crashed worker is respawned up
    to ``max_restarts_per_shard`` times.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    backlog_per_shard: int = 32
    probe_interval_s: float = 0.25
    max_restarts_per_shard: int = 5
    failure_threshold: int = 3
    cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.backlog_per_shard < 1:
            raise ServiceError(
                f"backlog_per_shard must be >= 1, got {self.backlog_per_shard}"
            )
