"""Hostile and sloppy frames against both servers, through the one loop.

The worker front end and the cluster router read their connections
with the same ``JsonLinesHandler``; every case here runs against both
(the router in-process, relaying to the worker beside it) and ends the
same way: the server is still serving the next connection.
"""

import ast
import socket
from pathlib import Path

import pytest

import repro
from repro.cluster.router import start_router
from repro.cluster.spec import ClusterConfig, WorkerSpec
from repro.cluster.supervisor import ClusterSupervisor
from repro.service import protocol
from repro.service.frontend import connect, start_server
from repro.service.server import QueryService
from repro.utility.cost import LinearCost
from tests.service.helpers import read_replies, roundtrip


@pytest.fixture(params=["worker", "router"])
def port(request, movies):
    """The port of a worker front end, or of a router in front of it."""
    service = QueryService(
        movies.catalog, movies.source_facts, measures={"linear": LinearCost}
    )
    servers = [start_server(service, port=0)[0]]
    if request.param == "router":
        # A supervisor that was told where its one worker listens
        # instead of spawning it: routing, relay and breaker are real.
        supervisor = ClusterSupervisor(
            [WorkerSpec(shard=0)], ClusterConfig(workers=1)
        )
        supervisor._handles[0].port = servers[0].port
        servers.append(start_router(supervisor)[0])
    try:
        yield servers[-1].port
    finally:
        for server in reversed(servers):
            server.shutdown()
            server.server_close()
        service.shutdown()


def assert_serves_a_query(port, movies, stream=None):
    """On *stream* if given, else on a fresh connection."""
    record = protocol.request_record(str(movies.query))
    if stream is not None:
        assert roundtrip(stream, record)[-1]["status"] == "ok"
        return
    with connect("127.0.0.1", port) as sock:
        assert roundtrip(sock.makefile("rwb"), record)[-1]["status"] == "ok"


def bad_request(stream):
    reply = protocol.decode_line(stream.readline())
    assert (reply["type"], reply["code"]) == ("error", "bad_request")
    return reply


class TestFrames:
    def test_oversized_frame_is_refused_and_the_connection_closed(
        self, port, movies
    ):
        with connect("127.0.0.1", port) as sock:
            stream = sock.makefile("rwb")
            # One byte over the bound and no newline yet: the server
            # must answer without waiting for (or buffering) the rest.
            stream.write(b"x" * (protocol.MAX_REQUEST_LINE_BYTES + 1))
            stream.flush()
            reply = bad_request(stream)
            assert str(protocol.MAX_REQUEST_LINE_BYTES) in reply["message"]
            assert stream.readline() == b""  # hung up, exactly one record
        assert_serves_a_query(port, movies)

    def test_a_frame_of_exactly_the_bound_is_read(self, port, movies):
        record = protocol.encode_line(protocol.request_record(str(movies.query)))
        padding = protocol.MAX_REQUEST_LINE_BYTES - len(record)
        with connect("127.0.0.1", port) as sock:
            stream = sock.makefile("rwb")
            stream.write(record[:-1] + b" " * padding + b"\n")
            stream.flush()
            summary = read_replies(stream)[-1]
            assert (summary["type"], summary["status"]) == ("summary", "ok")

    def test_frame_truncated_by_eof(self, port, movies):
        with connect("127.0.0.1", port) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"type": "query", "id": "cut", "que')
            stream.flush()
            sock.shutdown(socket.SHUT_WR)
            bad_request(stream)
            assert stream.readline() == b""
        assert_serves_a_query(port, movies)

    def test_blank_lines_are_skipped(self, port, movies):
        with connect("127.0.0.1", port) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"\n   \n\r\n\t\n")
            stream.flush()
            assert_serves_a_query(port, movies, stream)
        assert_serves_a_query(port, movies)

    @pytest.mark.parametrize(
        "frame, complaint",
        [
            (b"[1, 2, 3]\n", "expected a JSON object"),
            (b'"query"\n', "expected a JSON object"),
            (b"{broken\n", "invalid JSON"),
            (b"\xff\xfe\x00\n", "invalid JSON"),
            (b'{"type": "subscribe", "id": "s1"}\n', "unsupported record type"),
            (b'{"type": 7}\n', "unsupported record type"),
            (b'{"type": "query"}\n', "missing 'query' text"),
        ],
    )
    def test_malformed_record_is_one_bad_request(
        self, port, movies, frame, complaint
    ):
        with connect("127.0.0.1", port) as sock:
            stream = sock.makefile("rwb")
            stream.write(frame)
            stream.flush()
            assert complaint in bad_request(stream)["message"]
            assert_serves_a_query(port, movies, stream)  # same connection
        assert_serves_a_query(port, movies)

    def test_control_record_between_two_queries(self, port, movies):
        with connect("127.0.0.1", port) as sock:
            stream = sock.makefile("rwb")
            assert_serves_a_query(port, movies, stream)
            for kind in protocol.CONTROL_TYPES:
                stream.write(protocol.encode_line({"type": kind, "id": "c"}))
                stream.flush()
                reply = protocol.decode_line(stream.readline())
                assert (reply["type"], reply["id"]) == (kind, "c")
            assert_serves_a_query(port, movies, stream)


def test_one_connection_loop_in_the_source():
    """``_serve_lines`` — bytes to records — exists once under ``src/``."""
    owners = [
        (path.name, node.name)
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "_serve_lines"
            for item in node.body
        )
    ]
    assert owners == [("frontend.py", "JsonLinesHandler")]
