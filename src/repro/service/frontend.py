"""The stdlib TCP front end: ``repro serve``.

A :class:`ServiceTCPServer` is a ``ThreadingTCPServer`` speaking the
JSON-lines protocol of :mod:`repro.service.protocol`.  Connections are
persistent: a client may send any number of query records and receives
each query's batch stream (as plans finish executing, i.e. genuinely
anytime) followed by a summary record.

Requests are pushed through :meth:`QueryService.submit`, so the
service's bounded work queue and admission semaphore apply to network
traffic exactly as to in-process callers; a full backlog surfaces as
an ``overloaded`` error record on the wire.
"""

from __future__ import annotations

import dataclasses
import socket
import socketserver
import threading
from typing import Optional

from repro.errors import ProtocolError, ServiceOverloadedError
from repro.service import protocol
from repro.service.server import QueryService

__all__ = ["ServiceTCPServer", "start_server"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read query lines, stream batch/summary lines."""

    server: "ServiceTCPServer"
    # Batches are many small writes that must reach the client *now* —
    # that is the whole anytime point; Nagle+delayed-ACK would add
    # ~40ms per line.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            self._serve_lines()
        except (OSError, ValueError):
            # A client that times out, resets, or half-writes a frame
            # kills its own connection, never the handler thread (and
            # never the server): the next connection starts clean.
            pass

    def _serve_lines(self) -> None:
        service = self.server.service
        for line in self.rfile:
            if not line.strip():
                continue
            request_id = ""
            try:
                record = protocol.decode_line(line)
                request_id = str(record.get("id", ""))
                if record.get("type") in protocol.CONTROL_TYPES:
                    # Probe/scrape records are answered inline — they
                    # never enter admission control and never touch the
                    # service counters, so a cluster health probe does
                    # not skew the request metrics it is guarding.
                    self._send(self._control_reply(record, request_id))
                    continue
                request = protocol.request_from_record(
                    record, default_policy=service.config.default_policy
                )
            except ProtocolError as exc:
                self._send(protocol.error_record(request_id, "bad_request", str(exc)))
                continue
            if not request.request_id:
                request = dataclasses.replace(
                    request, request_id=service.next_request_id()
                )
            if service.journal.enabled:
                # The first event of a request's lifecycle: here the
                # wire-level id and the service-level correlation id
                # become the same thing.
                service.journal.emit(
                    "request.received",
                    request_id=request.request_id,
                    query=str(request.query),
                )

            def on_batch(batch, _id=request.request_id):
                # Invoked from the dispatcher thread; the handler
                # thread is parked in wait() meanwhile, so writes
                # never interleave.
                self._send(protocol.batch_record(_id, batch))

            try:
                pending = service.submit(request, on_batch=on_batch)
            except ServiceOverloadedError as exc:
                self._send(
                    protocol.error_record(
                        request.request_id, "overloaded", str(exc)
                    )
                )
                continue
            result = pending.wait()
            if result.status == "error":
                self._send(
                    protocol.error_record(
                        result.request_id, "error", result.error or "unknown"
                    )
                )
            else:
                self._send(protocol.summary_record(result))
            # The connection may now sit idle on its next line: do not
            # keep the request's batches alive meanwhile.
            del pending, result, on_batch

    def _control_reply(self, record: dict, request_id: str) -> dict:
        service = self.server.service
        if record.get("type") == "health":
            return protocol.health_record(
                request_id, identity=self.server.identity
            )
        return protocol.metrics_record(request_id, service.registry_export())

    def _send(self, record: dict) -> None:
        try:
            self.wfile.write(protocol.encode_line(record))
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-stream; the session notices on its
            # own (the batch callbacks become no-ops) and winds down.
            pass


class ServiceTCPServer(socketserver.ThreadingTCPServer):
    """Threading TCP server bound to a :class:`QueryService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        *,
        identity: Optional[dict] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        #: Constant fields echoed in health replies — a cluster worker
        #: announces its ``shard`` number here so a probe can detect a
        #: port serving the wrong process after a restart race.
        self.identity = dict(identity) if identity else {}

    @property
    def port(self) -> int:
        return self.server_address[1]


def start_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    identity: Optional[dict] = None,
) -> tuple[ServiceTCPServer, threading.Thread]:
    """Start serving in a background thread; ``port=0`` picks a free one.

    The caller shuts down with ``server.shutdown(); server.server_close()``
    (and then ``service.shutdown()``).
    """
    service.start()
    server = ServiceTCPServer((host, port), service, identity=identity)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-serve",
        daemon=True,
    )
    thread.start()
    return server, thread


def connect(host: str, port: int, timeout: float = 10.0) -> socket.socket:
    """A client socket for the JSON-lines protocol (loadgen + tests)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock
