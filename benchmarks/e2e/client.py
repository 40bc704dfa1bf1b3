"""The closed-loop wire client: one process, at most ``nproc`` connections.

Each connection sends one query record, reads reply lines until the
terminal ``summary`` or ``error`` record, and only then takes the next
request from the shared cursor — callers that wait for their reply, so
a slow server receives less load.  Every latency is timed at the
client from the ``sendall`` of the query record; a reply line is
stamped when ``readline`` returns.

While a round runs the client does as little as it can: it finds each
line's record type and keeps the bytes.  The lines are decoded after
the round (:meth:`Reply.decode`), because decoding a megabyte of JSON
next to the server — on a sibling hardware thread, on this box — slows
the server it is timing.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from benchmarks.e2e.workloads import Request

#: Seconds a single reply line may take before the request is failed.
REPLY_TIMEOUT_S = 60.0

#: The record type of a reply line, whatever the JSON spacing or key order.
RECORD_TYPE = re.compile(rb'"type"\s*:\s*"([a-z_]+)"')


@dataclass
class Reply:
    """Everything the wire returned for one request, with arrival times."""

    request: Request
    request_id: str
    sent_at: float = 0.0
    done_at: float = 0.0
    #: "ok" or whatever went wrong: a summary status other than ok, an
    #: error record's code, or a transport failure.
    status: str = "unsent"
    #: Reply lines as received, terminal record last.
    lines: list[bytes] = field(default_factory=list)
    #: Decoded ``batch`` records in arrival order, and their arrival times.
    batches: list[dict] = field(default_factory=list)
    batch_at: list[float] = field(default_factory=list)
    summary: Optional[dict] = None
    wire_bytes: int = 0
    decode_s: float = 0.0

    def decode(self) -> None:
        """Turn the kept lines into records (after the round, off the clock)."""
        started = time.perf_counter()
        records = [json.loads(line) for line in self.lines]
        self.decode_s = time.perf_counter() - started
        self.wire_bytes = sum(len(line) for line in self.lines)
        self.lines = []
        self.batches = [r for r in records if r.get("type") == "batch"]
        last = records[-1] if records else {}
        if last.get("type") == "summary":
            self.summary = last
            self.status = last.get("status", "missing_status")
        elif self.status == "unchecked":
            self.status = last.get("code", f"unexpected_{last.get('type')}")

    def _time_to_answers(self, needed: int) -> Optional[float]:
        """Send → the batch bringing cumulative new answers to *needed*."""
        have = 0
        for batch, at in zip(self.batches, self.batch_at):
            have += len(batch["new_answers"])
            if have >= needed > 0:
                return at - self.sent_at
        return None

    @property
    def answers(self) -> int:
        return sum(len(batch["new_answers"]) for batch in self.batches)

    @property
    def ttfa_s(self) -> Optional[float]:
        return self._time_to_answers(1)

    @property
    def tthalf_s(self) -> Optional[float]:
        return self._time_to_answers((self.answers + 1) // 2)

    @property
    def ttl_s(self) -> float:
        return self.done_at - self.sent_at


class _Cursor:
    """Hands out request indices until the list or the time budget ends."""

    def __init__(self, count: int, deadline: Optional[float]) -> None:
        self._lock = threading.Lock()
        self._next = 0
        self._count = count
        self._deadline = deadline

    def take(self) -> Optional[int]:
        with self._lock:
            if self._next >= self._count:
                return None
            if self._deadline is not None and time.perf_counter() >= self._deadline:
                return None
            index = self._next
            self._next += 1
            return index


def _exchange(sock: socket.socket, reader, reply: Reply) -> None:
    """Send one query record and read its reply stream to the end."""
    line = (json.dumps(reply.request.record(reply.request_id)) + "\n").encode()
    reply.sent_at = time.perf_counter()
    sock.sendall(line)
    while True:
        raw = reader.readline()
        arrived = time.perf_counter()
        if not raw:
            reply.status = "connection_closed"
            reply.done_at = arrived
            return
        reply.lines.append(raw)
        kind = RECORD_TYPE.search(raw)
        if kind is not None and kind.group(1) == b"batch":
            reply.batch_at.append(arrived)
        else:
            # Terminal (summary, error) or unrecognisable: decode() says which.
            reply.status = "unchecked"
            reply.done_at = arrived
            return


def _connection(port: int, requests: list[Request], cursor: _Cursor,
                replies: list[Optional[Reply]], tag: str) -> None:
    sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with sock.makefile("rb") as reader:
            while True:
                index = cursor.take()
                if index is None:
                    return
                reply = Reply(requests[index], f"{tag}{index}")
                replies[index] = reply
                try:
                    _exchange(sock, reader, reply)
                except (OSError, ValueError) as exc:
                    # A failed request is a counted failure, never a
                    # dead benchmark; the connection is unusable after.
                    reply.status = f"transport_{type(exc).__name__}"
                    reply.done_at = time.perf_counter()
                    return
    finally:
        sock.close()


def drive(port: int, requests: list[Request], connections: int, *,
          budget_s: Optional[float] = None, tag: str = "r") -> tuple[list[Reply], float]:
    """Send *requests* closed-loop; returns (replies sent, wall seconds).

    With a budget no request *starts* after ``budget_s``; the one in
    flight finishes, so every reply is whole.
    """
    started = time.perf_counter()
    cursor = _Cursor(
        len(requests), None if budget_s is None else started + budget_s
    )
    replies: list[Optional[Reply]] = [None] * len(requests)
    errors: list[BaseException] = []

    def connection() -> None:
        try:
            _connection(port, requests, cursor, replies, tag)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=connection, name=f"e2e-client-{i}")
        for i in range(connections - 1)
    ]
    for thread in threads:
        thread.start()
    connection()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    sent = [reply for reply in replies if reply is not None]
    for reply in sent:
        reply.decode()
    return sent, wall
