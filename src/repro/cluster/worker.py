"""The worker process entry point.

``worker_main`` is what the supervisor hands to the ``spawn``
context: a module-level function (so it pickles by reference) that
rebuilds a full :class:`~repro.service.server.QueryService` from its
:class:`~repro.cluster.spec.WorkerSpec`, binds the JSON-lines TCP
front end on an OS-assigned loopback port, reports that port back
over the ready pipe, and then parks until told to stop.

Workers are **shared nothing**: each has its own utility caches,
metric registry, resilience manager, and (optionally) journal file.
Cross-shard aggregation happens in the router by scraping each
worker's ``{"type": "metrics"}`` control record — nothing here is
shared memory.

Shutdown is cooperative: SIGTERM (or SIGINT) sets an event, the main
loop drains, and the TCP server + service close cleanly so in-flight
requests finish their streams.  A worker that dies any other way is
noticed by the supervisor's probe loop and restarted.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Optional

from repro.cluster.spec import WorkerSpec
from repro.observability.journal import EventJournal
from repro.observability.metrics import MetricRegistry
from repro.service.frontend import start_server
from repro.service.server import QueryService
from repro.service.workloads import service_workload

__all__ = ["HOST", "build_worker_service", "worker_main"]

#: Where every worker listens: the router on the same host is its one
#: client, so a worker is never reachable from outside.
HOST = "127.0.0.1"


def build_worker_service(
    spec: WorkerSpec, *, journal: Optional[EventJournal] = None
) -> QueryService:
    """The :class:`QueryService` *spec* describes: a worker's, or ``serve``'s."""
    catalog, facts, measures, _ = service_workload(spec.workload, spec.seed)
    backend = None
    resilience = None
    if spec.chaos:
        from repro.resilience.breaker import BreakerBoard
        from repro.resilience.chaos import ChaosBackend, ChaosProfile
        from repro.resilience.manager import ResilienceManager

        backend = ChaosBackend(
            ChaosProfile.from_dict(spec.chaos), seed=spec.chaos_seed
        )
        registry = MetricRegistry()
        resilience = ResilienceManager(
            board=BreakerBoard(
                cooldown_s=spec.breaker_cooldown_s, registry=registry
            ),
            registry=registry,
            breakers=spec.breakers,
            min_observations=spec.min_observations,
        )
    return QueryService(
        catalog,
        facts,
        measures=measures,
        config=spec.config,
        backend=backend,
        resilience=resilience,
        journal=journal,
    )


def worker_main(spec: WorkerSpec, ready_conn) -> None:
    """Run one worker until SIGTERM.  Spawned by the supervisor.

    *ready_conn* is this incarnation's own pipe end; exactly one
    message — the front end's port — is sent once it is accepting,
    which is the supervisor's cue that the shard is routable.  A
    private pipe per spawn (rather than one queue shared across
    generations) means a SIGKILLed predecessor can never wedge a
    successor's ready report: a queue's feeder-thread lock dies with
    its holder, a fresh pipe has no shared state at all.
    """
    journal = None
    journal_sink = None
    if spec.journal_path:
        journal_sink = open(spec.journal_path, "w", encoding="utf-8")
        journal = EventJournal(stream=journal_sink, tags={"shard": spec.shard})
    service = build_worker_service(spec, journal=journal)
    server, _thread = start_server(
        service,
        host=HOST,
        port=0,
        identity={"shard": spec.shard, "pid": os.getpid()},
    )
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    ready_conn.send(server.port)
    ready_conn.close()
    while not stop.is_set():
        stop.wait(0.2)
    server.shutdown()
    server.server_close()
    service.shutdown()
    if journal_sink is not None:
        journal_sink.close()
