"""One object that runs a whole cluster: ``Cluster``.

Glue over the subsystem's parts — builds the per-shard
:class:`WorkerSpec` list from one template spec, starts the
:class:`ClusterSupervisor` and :class:`RouterTCPServer`, and renders
the **cross-shard metric merge**
(:meth:`ClusterSupervisor.merged_registry`: every worker's registry
scraped over the control channel and folded together with the
router's own ``cluster.*`` counters) for the optional ``/metrics``
HTTP endpoint, so one scrape sees the whole cluster.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional

from repro.cluster.router import RouterTCPServer, start_router
from repro.cluster.spec import WorkerSpec
from repro.cluster.supervisor import ClusterSupervisor
from repro.errors import ServiceError
from repro.observability.journal import NOOP_JOURNAL, EventJournal
from repro.observability.prometheus import render_registry

__all__ = ["Cluster", "worker_specs"]


def worker_specs(
    workers: int,
    template: WorkerSpec = WorkerSpec(shard=0),
    *,
    journal_dir: Optional[str] = None,
) -> list[WorkerSpec]:
    """One copy of *template* per shard, identical except identity.

    Chaos seeds are decorrelated per shard (``chaos_seed + shard``) so
    the shards do not fail in lockstep; journal files are
    ``journal-shard<k>.jsonl`` under *journal_dir*.
    """
    if workers < 1:
        raise ServiceError(f"workers must be >= 1, got {workers}")
    return [
        replace(
            template,
            shard=shard,
            chaos_seed=template.chaos_seed + shard,
            journal_path=None
            if journal_dir is None
            else os.path.join(journal_dir, f"journal-shard{shard}.jsonl"),
        )
        for shard in range(workers)
    ]


class Cluster:
    """Supervisor + router + aggregation, with one start/stop."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        *,
        backlog_per_shard: int = 32,
        journal: EventJournal = NOOP_JOURNAL,
    ) -> None:
        self.backlog_per_shard = backlog_per_shard
        self.journal = journal
        self.supervisor = ClusterSupervisor(specs, journal=journal)
        self.router: Optional[RouterTCPServer] = None

    def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start workers, then the router; returns the router port."""
        self.supervisor.start()
        self.router, _thread = start_router(
            self.supervisor,
            self.backlog_per_shard,
            host,
            port,
            journal=self.journal,
        )
        return self.router.port

    def stop(self) -> None:
        if self.router is not None:
            self.router.shutdown()
            self.router.server_close()
            self.router = None
        self.supervisor.stop()

    def prometheus_text(self) -> str:
        """The cross-shard merge in Prometheus exposition format."""
        return render_registry(self.supervisor.merged_registry())
