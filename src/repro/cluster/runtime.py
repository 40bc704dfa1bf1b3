"""One object that runs a whole cluster: ``Cluster``.

Glue over the subsystem's parts — builds the per-shard
:class:`WorkerSpec` list from one template spec, starts the
:class:`ClusterSupervisor` and :class:`RouterTCPServer`, and owns
**cross-shard metric aggregation**: :meth:`merged_registry` scrapes
every worker's registry export over the control channel and folds
them into one :class:`MetricRegistry` via :meth:`MetricRegistry.merge`
(counters sum, gauges last-write, histograms bucket-wise), together
with the router's own ``cluster.*`` counters.  The optional
``/metrics`` HTTP endpoint renders exactly that merge, so one scrape
sees the whole cluster.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from typing import Optional

from repro.cluster.router import RouterTCPServer, start_router
from repro.cluster.spec import ClusterConfig, WorkerSpec
from repro.cluster.supervisor import ClusterSupervisor
from repro.errors import ServiceError
from repro.observability.journal import NOOP_JOURNAL, EventJournal
from repro.observability.metrics import MetricRegistry
from repro.observability.prometheus import render_registry

__all__ = ["Cluster", "worker_specs"]


def worker_specs(
    config: ClusterConfig,
    template: WorkerSpec = WorkerSpec(shard=0),
    *,
    journal_dir: Optional[str] = None,
) -> list[WorkerSpec]:
    """One copy of *template* per shard, identical except identity.

    Chaos seeds are decorrelated per shard (``chaos_seed + shard``) so
    the shards do not fail in lockstep; journal files are
    ``journal-shard<k>.jsonl`` under *journal_dir*.
    """
    return [
        replace(
            template,
            shard=shard,
            host=config.host,
            chaos_seed=template.chaos_seed + shard,
            journal_path=None
            if journal_dir is None
            else os.path.join(journal_dir, f"journal-shard{shard}.jsonl"),
        )
        for shard in range(config.workers)
    ]


class Cluster:
    """Supervisor + router + aggregation, with one start/stop."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        config: Optional[ClusterConfig] = None,
        *,
        journal: Optional[EventJournal] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ClusterConfig(
            workers=len(specs)
        )
        self.journal = journal if journal is not None else NOOP_JOURNAL
        #: The router's own registry (``cluster.*`` series); worker
        #: metrics live in the worker processes and enter only through
        #: :meth:`merged_registry` scrapes.
        self.registry = registry if registry is not None else MetricRegistry()
        self.supervisor = ClusterSupervisor(
            specs, self.config, journal=self.journal, registry=self.registry
        )
        self.router: Optional[RouterTCPServer] = None
        self._router_thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self, host: Optional[str] = None, port: int = 0) -> int:
        """Start workers, then the router; returns the router port."""
        if self.router is not None:
            raise ServiceError("cluster already started")
        self.supervisor.start()
        self.router, self._router_thread = start_router(
            self.supervisor,
            host=host if host is not None else self.config.host,
            port=port,
            config=self.config,
            registry=self.registry,
            journal=self.journal,
            merged_export=self.merged_export,
        )
        return self.router.port

    def stop(self) -> None:
        if self.router is not None:
            self.router.shutdown()
            self.router.server_close()
            self.router = None
        self.supervisor.stop()

    @property
    def port(self) -> int:
        if self.router is None:
            raise ServiceError("cluster not started")
        return self.router.port

    def __enter__(self) -> "Cluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- cross-shard aggregation -------------------------------------------------

    def merged_registry(self) -> MetricRegistry:
        """Router counters + every reachable shard's scraped export.

        A shard that is down or mid-restart is skipped rather than
        failing the whole scrape — partial visibility beats none while
        a worker restarts; the ``cluster.worker_restarts`` counter in
        the router registry records that something is missing.
        """
        merged = MetricRegistry().merge(self.registry)
        for shard in self.supervisor.shards:
            try:
                merged.merge(self.supervisor.scrape(shard))
            except (OSError, ValueError, ServiceError):
                continue
        return merged

    def merged_export(self) -> dict:
        return self.merged_registry().as_dict()

    def prometheus_text(self) -> str:
        """The merged registry in Prometheus exposition format."""
        return render_registry(self.merged_registry())
