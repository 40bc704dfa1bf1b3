"""The cluster front door: consistent-hash admission and relays.

A :class:`RouterTCPServer` speaks the same JSON-lines protocol as a
single worker — clients cannot tell the difference except for one
extra field: every relayed reply line carries the ``shard`` that
produced it.

Per query record the router:

1. hashes the query text on the
   :class:`~repro.cluster.hashing.ConsistentHashRing` — the same
   query always lands on the same shard, so per-shard utility caches
   stay warm (the cluster analogue of the single-process
   ``CachingUtilityMeasure`` sharing);
2. walks the ring's candidate order past shards whose breaker is open
   or whose process is down (**failover** — affinity yields to
   availability, counted in ``cluster.failovers``);
3. takes a slot on the target's **bounded backlog** — when
   ``backlog_per_shard`` relays are already in flight to that worker
   the router sheds with an ``overloaded`` error instead of queueing
   without bound;
4. relays the request bytes verbatim and streams the worker's reply
   lines back, splicing ``"shard": k`` into each one.  Reply bytes
   are otherwise untouched, so a stream through the router is
   byte-identical to the worker's own (plus the tag).

A relay that dies mid-stream is terminated with a ``shard_failed``
error record — the client always gets a terminal record, never a
silent hang — and the failure feeds the shard's breaker exactly like
a failed health probe.

Control records are answered by the router itself: ``health`` with
its role and worker count, ``metrics`` with the **cluster-wide merged
export** (:meth:`ClusterSupervisor.merged_registry`).
"""

from __future__ import annotations

import socketserver
import threading

from repro.cluster.hashing import ConsistentHashRing
from repro.cluster.supervisor import ClusterSupervisor
from repro.cluster.worker import HOST
from repro.errors import ProtocolError, ServiceError
from repro.observability.journal import NOOP_JOURNAL, EventJournal
from repro.service import protocol
from repro.service.frontend import JsonLinesHandler, connect

__all__ = ["RouterTCPServer", "start_router"]

#: Reply types that end one request's relay.
_TERMINAL_TYPES = ("summary", "error")
#: Socket timeout of a relay connection to a worker.
RELAY_TIMEOUT_S = 60.0


def tag_line(line: bytes, shard: int) -> bytes:
    """Splice ``"shard": k`` into one reply line the relay decoded.

    Works on the bytes directly — the relayed stream stays exactly
    what the worker wrote, plus the tag.  The line is a JSON object,
    so once trailing whitespace is gone its last byte is ``}``.
    """
    return line.rstrip()[:-1] + b', "shard": %d}\n' % shard


class _RouterHandler(JsonLinesHandler):
    """One client connection; keeps per-shard worker connections."""

    server: "RouterTCPServer"

    def setup(self) -> None:
        super().setup()
        # shard -> (socket, stream, port at connect time).  Reused
        # across requests on this client connection; dropped and
        # re-dialled when the worker restarts on a new port.
        self._worker_streams: dict[int, tuple] = {}

    def finish(self) -> None:
        for shard in list(self._worker_streams):
            self._drop_worker(shard)
        super().finish()

    # -- routing -----------------------------------------------------------------

    def serve_query(self, record: dict, request_id: str, line: bytes) -> None:
        router = self.server
        router.m_requests.inc()
        key = str(record.get("query", ""))
        for attempt, shard in enumerate(router.ring.candidates(key)):
            if not router.supervisor.routable(shard):
                continue
            backlog = router.backlogs[shard]
            if not backlog.acquire(blocking=False):
                router.m_overloaded.inc()
                self._send(
                    protocol.error_record(
                        request_id,
                        "overloaded",
                        f"shard {shard} backlog full "
                        f"({router.backlog_per_shard} in flight)",
                    )
                )
                return
            try:
                outcome = self._relay(shard, line, request_id)
            finally:
                backlog.release()
            router.supervisor.record_relay_outcome(shard, outcome == "done")
            if outcome == "done":
                if attempt:
                    router.m_failovers.inc()
                router.m_routed.inc()
                router.m_shard_routed[shard].inc()
                if router.journal.enabled:
                    router.journal.emit(
                        "cluster.routed", request_id=request_id, shard=shard
                    )
                return
            if outcome == "poisoned":
                # Lines already reached the client; a retry elsewhere
                # would interleave two streams.  The shard_failed error
                # record has already terminated the request.
                router.m_shard_failed.inc()
                return
        router.m_unavailable.inc()
        self._send(
            protocol.error_record(
                request_id,
                "unavailable",
                "no routable shard (all workers down or breakers open)",
            )
        )

    def _relay(self, shard: int, line: bytes, request_id: str) -> str:
        """Relay one request to *shard*.

        Returns ``"done"`` (terminal record forwarded), ``"failed"``
        (nothing reached the client — safe to fail over), or
        ``"poisoned"`` (died mid-stream; a ``shard_failed`` error was
        sent and the request is over).
        """
        try:
            stream = self._worker_stream(shard)
        except OSError:
            return "failed"
        try:
            stream.write(line)
            stream.flush()
        except OSError:
            self._drop_worker(shard)
            return "failed"
        forwarded = 0
        while True:
            try:
                reply = stream.readline()
            except OSError:
                reply = b""
            if not reply:
                self._drop_worker(shard)
                if forwarded == 0:
                    return "failed"
                self._send(
                    protocol.error_record(
                        request_id,
                        "shard_failed",
                        f"shard {shard} died mid-stream "
                        f"(after {forwarded} records)",
                    )
                )
                return "poisoned"
            try:
                kind = protocol.decode_line(reply).get("type")
            except ProtocolError:
                self._drop_worker(shard)
                if forwarded == 0:
                    return "failed"
                self._send(
                    protocol.error_record(
                        request_id,
                        "shard_failed",
                        f"shard {shard} sent an unparsable reply",
                    )
                )
                return "poisoned"
            self._send_raw(tag_line(reply, shard))
            forwarded += 1
            if kind in _TERMINAL_TYPES:
                return "done"

    def _worker_stream(self, shard: int):
        """A connected stream to the shard's *current* incarnation."""
        router = self.server
        port = router.supervisor.port_of(shard)
        if port is None:
            raise OSError(f"shard {shard} has no port")
        cached = self._worker_streams.get(shard)
        if cached is not None:
            if cached[2] == port:
                return cached[1]
            self._drop_worker(shard)  # restarted on a new port
        sock = connect(HOST, port, timeout=RELAY_TIMEOUT_S)
        stream = sock.makefile("rwb")
        self._worker_streams[shard] = (sock, stream, port)
        return stream

    def _drop_worker(self, shard: int) -> None:
        cached = self._worker_streams.pop(shard, None)
        if cached is None:
            return
        for closeable in (cached[1], cached[0]):
            try:
                closeable.close()
            except OSError:
                pass


class RouterTCPServer(socketserver.ThreadingTCPServer):
    """The cluster's client-facing TCP server."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        supervisor: ClusterSupervisor,
        backlog_per_shard: int,
        *,
        journal: EventJournal = NOOP_JOURNAL,
    ) -> None:
        if backlog_per_shard < 1:
            raise ServiceError(
                f"backlog_per_shard must be >= 1, got {backlog_per_shard}"
            )
        super().__init__(address, _RouterHandler)
        self.supervisor = supervisor
        self.backlog_per_shard = backlog_per_shard
        self.journal = journal
        self.ring = ConsistentHashRing(supervisor.shards)
        #: Bounded in-flight relay slots per shard.
        self.backlogs = {
            shard: threading.BoundedSemaphore(backlog_per_shard)
            for shard in supervisor.shards
        }
        registry = supervisor.registry
        self.m_requests = registry.counter("cluster.requests")
        self.m_routed = registry.counter("cluster.routed")
        self.m_failovers = registry.counter("cluster.failovers")
        self.m_overloaded = registry.counter("cluster.overloaded")
        self.m_shard_failed = registry.counter("cluster.shard_failed")
        self.m_unavailable = registry.counter("cluster.unavailable")
        self.m_shard_routed = {
            shard: registry.counter(f"cluster.shard{shard}.routed")
            for shard in supervisor.shards
        }

    @property
    def port(self) -> int:
        return self.server_address[1]

    def control_reply(self, record: dict, request_id: str) -> dict:
        if record.get("type") == "health":
            return protocol.health_record(
                request_id,
                identity={
                    "role": "router",
                    "workers": len(self.supervisor.shards),
                    "breakers": self.supervisor.breaker_states(),
                },
            )
        return protocol.metrics_record(
            request_id, self.supervisor.merged_registry().as_dict()
        )


def start_router(
    supervisor: ClusterSupervisor,
    backlog_per_shard: int,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    journal: EventJournal = NOOP_JOURNAL,
) -> tuple[RouterTCPServer, threading.Thread]:
    """Serve the router in a background thread; ``port=0`` picks one."""
    server = RouterTCPServer(
        (host, port), supervisor, backlog_per_shard, journal=journal
    )
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-router",
        daemon=True,
    )
    thread.start()
    return server, thread
