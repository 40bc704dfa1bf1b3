"""Worker process lifecycle: spawn, probe, restart.

The supervisor owns N worker processes (one per shard) and keeps the
routing table honest:

* **spawn** — workers are started with the ``spawn`` multiprocessing
  context, never ``fork``: the supervisor lives in a threaded process
  (router handlers, the probe loop), and forking a threaded process
  can clone held locks into the child.  ``spawn`` re-imports cleanly;
  everything a worker needs crosses as a picklable
  :class:`~repro.cluster.spec.WorkerSpec`.
* **probe** — a background loop sends ``{"type": "health"}`` to every
  shard each :data:`PROBE_INTERVAL_S` and feeds the outcome into a
  per-shard :class:`~repro.resilience.breaker.CircuitBreaker` — the
  exact breaker the per-source resilience layer uses, reused one
  level up.  The router consults these breakers for admission, so an
  unhealthy shard drains to its ring neighbours and half-open probes
  let it back in gradually.
* **restart** — a dead process (crash, ``kill -9``) is respawned from
  its spec, up to :data:`MAX_RESTARTS_PER_SHARD` times, on a fresh port;
  the port table is updated atomically so relays reconnect to the new
  incarnation.  Every transition is journalled as ``cluster.worker``.

Nothing here touches request payloads — relaying is the router's job.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from typing import Optional

from repro.cluster.spec import WorkerSpec
from repro.cluster.worker import HOST, worker_main
from repro.errors import ServiceError
from repro.observability.journal import NOOP_JOURNAL, EventJournal
from repro.observability.metrics import MetricRegistry
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.service import protocol
from repro.service.frontend import connect

__all__ = ["ClusterSupervisor", "WorkerHandle"]

#: How long a spawned worker may take to report ready.
STARTUP_TIMEOUT_S = 60.0
#: Socket timeout of one health probe or metrics scrape.
PROBE_TIMEOUT_S = 5.0
#: Seconds between two passes of the probe loop.
PROBE_INTERVAL_S = 0.25
#: Consecutive failed probes or relays that open a shard's breaker, and
#: how long it stays open before a half-open probe.
FAILURE_THRESHOLD = 3
COOLDOWN_S = 1.0
#: Respawns of one shard before it is abandoned.
MAX_RESTARTS_PER_SHARD = 5


class WorkerHandle:
    """One shard's process, port, breaker, and restart budget."""

    def __init__(self, spec: WorkerSpec, breaker: CircuitBreaker) -> None:
        self.spec = spec
        self.breaker = breaker
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        #: Parent end of this incarnation's private ready pipe.
        self.ready_conn = None
        self.port: Optional[int] = None
        self.restarts = 0
        #: Set once the restart budget is spent; the shard stays down.
        self.abandoned = False

    @property
    def shard(self) -> int:
        return self.spec.shard

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ClusterSupervisor:
    """Spawns and watches one worker process per shard."""

    def __init__(
        self, specs: list[WorkerSpec], *, journal: EventJournal = NOOP_JOURNAL
    ) -> None:
        if not specs:
            raise ServiceError("need at least one worker spec")
        shards = [spec.shard for spec in specs]
        if len(set(shards)) != len(shards):
            raise ServiceError(f"duplicate shard ids in specs: {shards}")
        self.journal = journal
        #: The router's and supervisor's own ``cluster.*`` series.
        self.registry = MetricRegistry()
        self._ctx = multiprocessing.get_context("spawn")
        self._handles = {
            spec.shard: WorkerHandle(
                spec,
                CircuitBreaker(
                    f"shard-{spec.shard}",
                    failure_threshold=FAILURE_THRESHOLD,
                    cooldown_s=COOLDOWN_S,
                ),
            )
            for spec in specs
        }
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None
        self._m_restarts = self.registry.counter("cluster.worker_restarts")
        self._m_probe_fail = self.registry.counter("cluster.probe_failures")

    # -- lifecycle ---------------------------------------------------------------

    @property
    def shards(self) -> tuple[int, ...]:
        return tuple(sorted(self._handles))

    def start(self) -> None:
        """Spawn every worker and block until all report ready."""
        for handle in self._handles.values():
            self._spawn(handle)
        self._await_ready(set(self._handles), STARTUP_TIMEOUT_S)
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-cluster-probe", daemon=True
        )
        self._probe_thread.start()

    def _spawn(self, handle: WorkerHandle) -> None:
        # A fresh pipe per incarnation: ready reports must not share
        # any channel with a previous (possibly SIGKILLed) worker — a
        # shared mp.Queue can be wedged forever by a producer that died
        # holding its feeder lock, which is exactly how crash tests die.
        with self._lock:
            stale_conn, handle.ready_conn = handle.ready_conn, None
        if stale_conn is not None:
            stale_conn.close()
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.spec, child_conn),
            name=f"repro-worker-{handle.shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        with self._lock:
            handle.process = process
            handle.ready_conn = parent_conn
            handle.port = None
        self.journal.emit(
            "cluster.worker", shard=handle.shard, state="spawned"
        )

    def _await_ready(self, shards: set[int], timeout_s: float) -> None:
        """Wait on each pending shard's pipe until it reports ready."""
        deadline = time.monotonic() + timeout_s
        pending = set(shards)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"workers for shards {sorted(pending)} did not become "
                    f"ready within {timeout_s:.0f}s"
                )
            conns = {
                self._handles[shard].ready_conn: shard for shard in pending
            }
            readable = multiprocessing.connection.wait(
                conns, timeout=min(remaining, 0.5)
            )
            for conn in readable:
                shard = conns[conn]
                handle = self._handles[shard]
                try:
                    port = conn.recv()
                except (EOFError, OSError):
                    raise ServiceError(
                        f"worker for shard {shard} died before "
                        "reporting ready"
                    ) from None
                with self._lock:
                    handle.port = port
                # A ready worker is immediately routable again.
                handle.breaker.reset()
                pending.discard(shard)
                self.journal.emit(
                    "cluster.worker", shard=shard, state="ready"
                )

    def stop(self) -> None:
        """Terminate the probe loop, then every worker (SIGTERM, then kill)."""
        self._stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
        for handle in self._handles.values():
            # Snapshot under the lock: if the probe thread outlived the
            # join timeout it may still be inside _spawn reassigning
            # handle.process, and a torn read here would terminate the
            # old incarnation while the new one leaks.
            with self._lock:
                process = handle.process
            if process is None:
                continue
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            with self._lock:
                ready_conn, handle.ready_conn = handle.ready_conn, None
            if ready_conn is not None:
                ready_conn.close()
            self.journal.emit(
                "cluster.worker", shard=handle.shard, state="stopped"
            )

    # -- routing-table queries ---------------------------------------------------

    def port_of(self, shard: int) -> Optional[int]:
        """The shard's current TCP port (None while down/restarting)."""
        handle = self._handles[shard]
        with self._lock:
            return handle.port

    def routable(self, shard: int) -> bool:
        """Admit new relays?  Requires a port and a non-open breaker."""
        handle = self._handles[shard]
        with self._lock:
            if handle.port is None:
                return False
        return handle.breaker.state != BreakerState.OPEN

    def breaker_states(self) -> dict[str, str]:
        return {
            f"shard-{shard}": handle.breaker.state
            for shard, handle in sorted(self._handles.items())
        }

    def record_relay_outcome(self, shard: int, ok: bool) -> None:
        """Relay results feed the same breaker as health probes."""
        breaker = self._handles[shard].breaker
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    # -- probes and scrapes ------------------------------------------------------

    def _control_roundtrip(self, shard: int, record: dict) -> dict:
        port = self.port_of(shard)
        if port is None:
            raise ServiceError(f"shard {shard} has no port (down?)")
        with connect(HOST, port, timeout=PROBE_TIMEOUT_S) as sock:
            stream = sock.makefile("rwb")
            stream.write(protocol.encode_line(record))
            stream.flush()
            line = stream.readline()
        if not line:
            raise ServiceError(f"shard {shard} closed the probe connection")
        return protocol.decode_line(line)

    def probe(self, shard: int) -> bool:
        """One health round trip; feeds the shard's breaker."""
        try:
            reply = self._control_roundtrip(shard, {"type": "health"})
            healthy = (
                reply.get("status") == "ok"
                and int(reply.get("shard", -1)) == shard
            )
        except (OSError, ValueError, ServiceError):
            healthy = False
        handle = self._handles[shard]
        if healthy:
            handle.breaker.record_success()
        else:
            self._m_probe_fail.inc()
            handle.breaker.record_failure()
        return healthy

    def scrape(self, shard: int) -> dict:
        """The shard's ``MetricRegistry.as_dict`` export, over the wire."""
        reply = self._control_roundtrip(shard, {"type": "metrics"})
        metrics = reply.get("metrics")
        if not isinstance(metrics, dict):
            raise ServiceError(
                f"shard {shard} metrics reply malformed: {reply!r}"
            )
        return metrics

    def merged_registry(self) -> MetricRegistry:
        """Own counters + every reachable shard's scraped export.

        Folded with :meth:`MetricRegistry.merge`: counters sum, gauges
        last-write, histograms bucket-wise.  A shard that is down or
        mid-restart is skipped rather than failing the whole scrape —
        partial visibility beats none while a worker restarts; the
        ``cluster.worker_restarts`` counter records that something is
        missing.
        """
        merged = MetricRegistry().merge(self.registry)
        for shard in self.shards:
            try:
                merged.merge(self.scrape(shard))
            except (OSError, ValueError, ServiceError):
                continue
        return merged

    # -- the probe/restart loop --------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            for shard in self.shards:
                if self._stop.is_set():
                    return
                handle = self._handles[shard]
                if handle.abandoned:
                    continue
                if not handle.alive():
                    self._handle_death(handle)
                    continue
                self.probe(shard)

    def _handle_death(self, handle: WorkerHandle) -> None:
        with self._lock:
            handle.port = None
        handle.breaker.force_open()
        self.journal.emit(
            "cluster.worker", shard=handle.shard, state="died"
        )
        if self._stop.is_set():
            # stop() has begun terminating workers: it set the event
            # before touching any process, so honouring it here closes
            # the probe-loop window where a respawned worker would
            # outlive the supervisor.
            return
        if handle.restarts >= MAX_RESTARTS_PER_SHARD:
            handle.abandoned = True
            self.journal.emit(
                "cluster.worker", shard=handle.shard, state="abandoned"
            )
            return
        handle.restarts += 1
        self._m_restarts.inc()
        self._spawn(handle)
        try:
            self._await_ready({handle.shard}, STARTUP_TIMEOUT_S)
        except ServiceError:
            self.journal.emit(
                "cluster.worker", shard=handle.shard, state="restart_failed"
            )
            return
        self.journal.emit(
            "cluster.worker", shard=handle.shard, state="restarted"
        )
