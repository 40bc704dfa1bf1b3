"""The stdlib TCP front end: ``repro serve``.

A :class:`ServiceTCPServer` is a ``ThreadingTCPServer`` speaking the
JSON-lines protocol of :mod:`repro.service.protocol`.  Connections are
persistent: a client may send any number of query records and receives
each query's batch stream (as plans finish executing, i.e. genuinely
anytime) followed by a summary record.

The thread that read a request line carries the request: it calls
:meth:`QueryService.execute` and writes each batch as the session's
consumer, so the service's one admission gate applies to network
traffic exactly as to in-process callers; a request shed there
surfaces as an ``overloaded`` error record on the wire.  Its batch lines
come from one :class:`~repro.service.protocol.BatchLines` per request,
which encodes each distinct answer row once and is dropped with the
request.

:class:`JsonLinesHandler` is the connection loop itself, shared with
the cluster router (:mod:`repro.cluster.router`): the one place where
bytes from a client become records.
"""

from __future__ import annotations

import dataclasses
import socket
import socketserver
import threading
from typing import Optional

from repro.errors import ProtocolError, ServiceOverloadedError
from repro.service import protocol
from repro.service.policy import CancellationToken
from repro.service.server import QueryService

__all__ = ["JsonLinesHandler", "ServiceTCPServer", "start_server"]


class JsonLinesHandler(socketserver.StreamRequestHandler):
    """One client connection of a JSON-lines server.

    Reads bounded lines, answers malformed ones with ``bad_request``
    and control records with ``server.control_reply(record, id)``, and
    hands every query record to :meth:`serve_query`.
    """

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
        limit = protocol.MAX_REQUEST_LINE_BYTES
        # One byte over the limit tells a full frame from an over-long
        # one without ever buffering more than that.
        while line := self.rfile.readline(limit + 1):
            if len(line) > limit:
                self._send(
                    protocol.error_record(
                        "", "bad_request", f"request line over {limit} bytes"
                    )
                )
                return  # the rest of the frame is not a request: hang up
            if not line.strip():
                continue
            request_id = ""
            try:
                record = protocol.decode_line(line)
                request_id = str(record.get("id", ""))
                kind = record.get("type", "query")
                if kind in protocol.CONTROL_TYPES:
                    # Probe/scrape records are answered inline — they
                    # never enter admission control and never touch the
                    # request counters, so a cluster health probe does
                    # not skew the request metrics it is guarding.
                    self._send(self.server.control_reply(record, request_id))
                elif kind == "query":
                    self.serve_query(record, request_id, line)
                else:
                    raise ProtocolError(f"unsupported record type {kind!r}")
            except ProtocolError as exc:
                self._send(
                    protocol.error_record(request_id, "bad_request", str(exc))
                )

    def serve_query(self, record: dict, request_id: str, line: bytes) -> None:
        """Answer one query record through to its terminal record.

        May raise :class:`~repro.errors.ProtocolError` for a record it
        cannot accept (answered ``bad_request``).  Whatever it holds is
        dropped on return, so a connection idling on its next line pins
        no finished request.
        """
        raise NotImplementedError

    def _send(self, record: dict) -> bool:
        return self._send_raw(protocol.encode_line(record))

    def _send_raw(self, payload: bytes) -> bool:
        """Write one line; False when the client has hung up."""
        try:
            self.wfile.write(payload)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return False
        return True


class _Handler(JsonLinesHandler):
    """A worker's connection: each query runs here, on this thread."""

    server: "ServiceTCPServer"

    def serve_query(self, record: dict, request_id: str, line: bytes) -> None:
        service = self.server.service
        request = protocol.request_from_record(
            record,
            default_policy=service.config.default_policy,
            parse=service.prepared_query,
        )
        hung_up = CancellationToken()
        request = dataclasses.replace(
            request,
            request_id=request.request_id or service.next_request_id(),
            policy=dataclasses.replace(request.policy, cancellation=hung_up),
        )
        request_id = request.request_id
        if service.journal.enabled:
            # The first event of a request's lifecycle: here the
            # wire-level id and the service-level correlation id
            # become the same thing.
            service.journal.emit(
                "request.received", request_id=request_id, query=str(request.query)
            )

        lines = protocol.BatchLines(request_id)

        def on_batch(batch):
            # This thread is the session's consumer, so a batch is on
            # the wire before the next is settled — and a client that
            # is gone stops paying for plans nobody will read.
            if not self._send_raw(lines.line(batch)):
                hung_up.cancel()

        try:
            result = service.execute(request, on_batch=on_batch)
        except ServiceOverloadedError as exc:
            self._send(protocol.error_record(request_id, "overloaded", str(exc)))
            return
        if result.status == "error":
            self._send(
                protocol.error_record(
                    result.request_id, "error", result.error or "unknown"
                )
            )
        else:
            self._send(protocol.summary_record(result))


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

    def control_reply(self, record: dict, request_id: str) -> dict:
        if record.get("type") == "health":
            return protocol.health_record(request_id, identity=self.identity)
        return protocol.metrics_record(
            request_id, self.service.registry_export()
        )


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
    """A client socket for the JSON-lines protocol (loadgen + tests);
    *timeout* bounds the connect and every read."""
    return socket.create_connection((host, port), timeout=timeout)
