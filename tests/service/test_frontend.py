"""End-to-end tests of the JSON-lines TCP front end."""

import contextlib
import gc
import io
import json
import socket
import threading
import time
import weakref
from functools import partial
from types import SimpleNamespace

import pytest

from repro.errors import ProtocolError
from repro.execution.mediator import AnswerBatch, Mediator
from repro.observability.journal import EventJournal
from repro.ordering.bruteforce import PIOrderer
from repro.resilience.chaos import ChaosBackend, ChaosProfile, FaultProfile
from repro.service import protocol
from repro.service.frontend import connect, start_server
from repro.service.loadgen import run_load
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import QueryService, ServiceConfig
from repro.service.workloads import service_workload
from repro.utility.cost import LinearCost
from tests.journal_reader import events
from tests.service.helpers import (
    join_threads_since,
    read_replies,
    reset,
    roundtrip,
    wait_until,
    wedge,
)


@pytest.fixture
def served(movies):
    service = QueryService(
        movies.catalog,
        movies.source_facts,
        measures={"linear": LinearCost},
        config=ServiceConfig(trace_requests=True),
    )
    server, _thread = start_server(service, port=0)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


class TestQueryOverTCP:
    def test_batches_then_summary(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            replies = roundtrip(
                stream, protocol.request_record(str(movies.query), request_id="t1")
            )
        batches, summary = replies[:-1], replies[-1]
        assert summary["type"] == "summary"
        assert summary["status"] == "ok"
        assert summary["id"] == "t1"
        assert summary["batches"] == len(batches)
        assert batches, "expected at least one batch record"
        assert [b["rank"] for b in batches] == list(
            range(1, len(batches) + 1)
        )
        assert all(b["id"] == "t1" for b in batches)
        assert any(b["new_answers"] for b in batches)
        assert summary["spans"]  # trace_requests=True

    def test_a_request_without_an_id_gets_one_for_every_line(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            replies = roundtrip(
                sock.makefile("rwb"), protocol.request_record(str(movies.query))
            )
        ids = {reply["id"] for reply in replies}
        assert len(replies) > 1 and len(ids) == 1
        assert ids.pop().startswith("req-")

    def test_idle_connection_does_not_pin_its_last_result(self, served, movies):
        service = served.service
        seen = []
        original = service.execute

        def remember(request, on_batch=None):
            result = original(request, on_batch=on_batch)
            seen.append(weakref.ref(result.batches[0]))
            return result

        service.execute = remember
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            replies = roundtrip(stream, protocol.request_record(str(movies.query)))
            assert replies[-1]["status"] == "ok"
            # The summary is written before the handler lets go; a
            # health probe on the same connection is answered only
            # after it has, with the handler back on its read.
            stream.write(protocol.encode_line({"type": "health"}))
            stream.flush()
            assert protocol.decode_line(stream.readline())["status"] == "ok"
            gc.collect()
            assert len(seen) == 1 and seen[0]() is None

    def test_overlapping_plans_are_served_as_one_shot_lines(
        self, served, movies, monkeypatch
    ):
        utility = LinearCost()
        batches = list(
            Mediator(movies.catalog, movies.source_facts).answer(
                movies.query, utility, orderer=PIOrderer(utility)
            )
        )
        # The plans overlap: some rows of `answers` were new earlier.
        assert sum(len(b.answers) for b in batches) > sum(
            len(b.new_answers) for b in batches
        )
        tables = []

        class Recorded(protocol.BatchLines):
            def __init__(self, request_id):
                super().__init__(request_id)
                tables.append(weakref.ref(self))

        monkeypatch.setattr(protocol, "BatchLines", Recorded)
        query = protocol.request_record(
            str(movies.query), request_id="ov", measure="linear", orderer="pi"
        )
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            stream.write(protocol.encode_line(query))
            stream.flush()
            lines = [stream.readline() for _ in batches]
            assert protocol.decode_line(stream.readline())["type"] == "summary"
            assert lines == [
                protocol.encode_line(protocol.batch_record("ov", b)) for b in batches
            ]
            # Answered only once the handler is back on its read, with
            # the request's row table dropped.
            stream.write(protocol.encode_line({"type": "health"}))
            stream.flush()
            assert protocol.decode_line(stream.readline())["status"] == "ok"
            gc.collect()
            assert len(tables) == 1 and tables[0]() is None

    def test_a_served_batch_line_has_exactly_the_record_type_keys(
        self, served, movies
    ):
        # CON005 holds dict literals to RECORD_TYPES; a line spliced
        # from strings is held to it here.
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            replies = roundtrip(stream, protocol.request_record(str(movies.query)))
        batches = [reply for reply in replies if reply["type"] == "batch"]
        assert batches
        for batch in batches:
            assert set(batch) == protocol.RECORD_TYPES["batch"] | {"type"}

    def test_persistent_connection_multiple_queries(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            first = roundtrip(
                stream, protocol.request_record(str(movies.query))
            )
            second = roundtrip(
                stream, protocol.request_record(str(movies.query))
            )
        # Server assigns distinct ids when the client sends none.
        assert first[-1]["id"] != second[-1]["id"]
        assert first[-1]["answers"] == second[-1]["answers"]

    def test_answers_are_deterministic_rows(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            a = roundtrip(stream, protocol.request_record(str(movies.query)))
            b = roundtrip(stream, protocol.request_record(str(movies.query)))
        strip = lambda reply: {  # noqa: E731
            k: v for k, v in reply.items() if k not in ("id", "spans")
        }
        a_batches = [strip(r) for r in a if r["type"] == "batch"]
        b_batches = [strip(r) for r in b if r["type"] == "batch"]
        assert a_batches == b_batches

    def test_policy_knobs_travel_over_the_wire(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            replies = roundtrip(
                stream,
                protocol.request_record(
                    str(movies.query), max_plans=2, first_k_answers=1
                ),
            )
        summary = replies[-1]
        assert summary["plans_processed"] <= 2

    def test_zero_deadline_reports_deadline_exceeded(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            replies = roundtrip(
                stream,
                protocol.request_record(str(movies.query), deadline_s=0.0),
            )
        summary = replies[-1]
        assert summary["type"] == "summary"
        assert summary["status"] == "deadline_exceeded"
        assert summary["deadline_exceeded"] is True


class TestProtocolErrors:
    def test_bad_json_gets_error_record_and_connection_survives(
        self, served, movies
    ):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            reply = protocol.decode_line(stream.readline())
            assert reply["type"] == "error"
            assert reply["code"] == "bad_request"
            # Same connection still serves real queries.
            replies = roundtrip(
                stream, protocol.request_record(str(movies.query))
            )
            assert replies[-1]["status"] == "ok"

    def test_unparsable_query_reports_bad_request(self, served):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            replies = roundtrip(
                stream,
                protocol.request_record(
                    "not a datalog query !!!", request_id="q7"
                ),
            )
        assert replies[-1]["type"] == "error"
        assert replies[-1]["code"] == "bad_request"
        assert replies[-1]["id"] == "q7"  # the client can tell which one

    def test_blank_lines_are_ignored(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"\n\n")
            stream.flush()
            replies = roundtrip(
                stream, protocol.request_record(str(movies.query))
            )
        assert replies[-1]["status"] == "ok"

    def test_a_client_that_resets_its_connection_ends_quietly(
        self, served, capsys
    ):
        # The handler is blocked reading half a line when the reset
        # arrives; socketserver would print the error's traceback.
        before = set(threading.enumerate())
        sock = connect("127.0.0.1", served.port)
        sock.sendall(b'{"type": ')
        wait_until(lambda: len(set(threading.enumerate()) - before) == 1)
        reset(sock)
        join_threads_since(before)
        assert capsys.readouterr().err == ""


@contextlib.contextmanager
def serving(service):
    server, _thread = start_server(service, port=0)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


class TestOneRoadOverTCP:
    """The wire reaches every outcome of ``execute``, on the handler thread."""

    def test_thread_census(self, movies):
        # At the parent commit start_server also parked max_concurrent
        # repro-service-dispatch-* threads for the life of the service.
        before = {thread.name for thread in threading.enumerate()}
        service = QueryService(
            movies.catalog, movies.source_facts, measures={"linear": LinearCost}
        )
        with serving(service) as server:
            idle = {thread.name for thread in threading.enumerate()}
            assert idle - before == {"repro-serve"}
            with connect("127.0.0.1", server.port) as sock:
                stream = sock.makefile("rwb")
                replies = roundtrip(stream, protocol.request_record(str(movies.query)))
                assert replies[-1]["status"] == "ok"
                # The summary is the last thing the session's threads
                # allow: they are joined before execute() returns.
                assert not [
                    thread.name
                    for thread in threading.enumerate()
                    if thread.name.startswith("repro-service-")
                ]

    def test_any_exception_is_one_error_record(self, movies):
        # Fails at the parent commit: a non-ReproError got an error
        # record from the dispatcher's catch-all but no service.errors
        # and no request.admitted / request.completed.
        sink = io.StringIO()

        def broken_factory():
            raise RuntimeError("factory exploded")

        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost, "broken": broken_factory},
            journal=EventJournal(stream=sink),
        )
        with serving(service) as server, connect("127.0.0.1", server.port) as sock:
            stream = sock.makefile("rwb")
            replies = roundtrip(
                stream,
                protocol.request_record(
                    str(movies.query), request_id="boom", measure="broken"
                ),
            )
            assert replies == [
                protocol.error_record(
                    "boom", "error", "RuntimeError: factory exploded"
                )
            ]
            # Same connection, next query.
            assert roundtrip(stream, protocol.request_record(str(movies.query)))[
                -1
            ]["status"] == "ok"
        assert service.registry.counter("service.errors").value == 1
        assert service.registry.gauge("service.active").value == 0
        assert [
            event["event"] for event in events(sink, request_id="boom")
        ] == ["request.received", "request.admitted", "request.completed"]
        assert events(sink, request_id="boom")[-1]["status"] == "error"

    def test_an_inapplicable_orderer_is_one_error_record(self):
        catalog, facts, measures, query = service_workload("random-lav", 0)
        service = QueryService(catalog, facts, measures=measures)
        with serving(service) as server, connect("127.0.0.1", server.port) as sock:
            stream = sock.makefile("rwb")
            replies = roundtrip(
                stream,
                protocol.request_record(
                    str(query), request_id="na", measure="coverage", orderer="anyk"
                ),
            )
            assert replies == [
                protocol.error_record(
                    "na",
                    "error",
                    "AnyK requires a fully monotonic measure, which "
                    "'coverage' does not provide; 'auto' picks "
                    "'streamer' for it",
                )
            ]
            # Same connection, same measure, orderer left to the server.
            assert roundtrip(
                stream, protocol.request_record(str(query), measure="coverage")
            )[-1]["status"] == "ok"

    def test_overload_and_admission_timeout(self, movies, monkeypatch):
        # Both unreachable on the wire at the parent commit: the pool
        # was as large as the semaphore, and only the queue could shed.
        monkeypatch.setattr("repro.service.server.ADMISSION_TIMEOUT_S", 0.5)
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            config=ServiceConfig(max_concurrent=1, backlog=1),
        )
        release, holding = wedge(service)
        query = protocol.request_record(str(movies.query))
        with serving(service) as server, contextlib.ExitStack() as sockets:
            streams = [
                sockets.enter_context(
                    connect("127.0.0.1", server.port)
                ).makefile("rwb")
                for _ in range(3)
            ]
            running, waiting, shed = streams
            running.write(protocol.encode_line(query))
            running.flush()
            assert holding.wait(timeout=10.0)
            waiting.write(protocol.encode_line(query))
            waiting.flush()
            wait_until(lambda: service._places._value == 0)
            started = time.monotonic()
            (reply,) = roundtrip(shed, {**query, "id": "third"})
            assert time.monotonic() - started < 0.4  # shed at once
            assert (reply["type"], reply["code"]) == ("error", "overloaded")
            assert reply["id"] == "third"
            # The waiter runs out of patience: rejected, not errored.
            (summary,) = read_replies(waiting)
            assert (summary["type"], summary["status"]) == ("summary", "rejected")
            release.set()
            assert read_replies(running)[-1]["status"] == "ok"
            # Everything came back: the shed connection is served now.
            assert roundtrip(shed, query)[-1]["status"] == "ok"
        assert service.registry.counter("service.rejected").value == 2
        assert service.registry.gauge("service.active").value == 0

    def test_a_client_that_hangs_up_cancels_its_request(self, medium_domain):
        # At the parent commit every plan of the space was ordered,
        # executed and encoded for nobody, and the status was ok.
        sink = io.StringIO()
        slow = ChaosBackend(
            ChaosProfile("slow", {}, default=FaultProfile(latency_s=0.01))
        )
        service = QueryService(
            medium_domain.catalog,
            {},
            measures={"linear": partial(medium_domain.measure, "linear")},
            backend=slow,
            journal=EventJournal(stream=sink),
        )
        space = medium_domain.space.size
        assert space >= 200
        with serving(service) as server:
            sock = connect("127.0.0.1", server.port)
            stream = sock.makefile("rwb")
            stream.write(
                protocol.encode_line(
                    protocol.request_record(
                        str(medium_domain.query), request_id="gone"
                    )
                )
            )
            stream.flush()
            assert protocol.decode_line(stream.readline())["rank"] == 1
            stream.close()
            sock.close()
            wait_until(
                lambda: events(sink, event="request.completed"), timeout_s=30.0
            )
            slow.interrupt()
        (completed,) = events(sink, event="request.completed")
        assert completed["status"] == "cancelled"
        registry = service.registry
        assert registry.counter("service.cancelled").value == 1
        assert registry.gauge("service.active").value == 0
        assert registry.counter("mediator.plans_processed").value < space // 4


class TestProtocolUnits:
    def test_encode_decode_roundtrip(self):
        record = {"type": "query", "query": "q(X) :- r(X)", "deadline_s": 1.5}
        assert protocol.decode_line(protocol.encode_line(record)) == record

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"{broken\n")

    def test_request_from_record_validates_fields(self):
        base = {"type": "query", "query": "q(X) :- r(X)"}
        for bad in (
            {**base, "deadline_s": "soon"},
            {**base, "max_plans": 0},
            {**base, "first_k_answers": True},
            {**base, "retry_attempts": -2},
            {"type": "query"},
            {"type": "subscribe", "query": "q(X) :- r(X)"},
        ):
            with pytest.raises(ProtocolError):
                protocol.request_from_record(bad)

    def test_request_defaults_merge(self):
        defaults = RequestPolicy(deadline_s=9.0, retry=RetryPolicy(max_attempts=4))
        request = protocol.request_from_record(
            {"type": "query", "query": "q(X) :- r(X)", "retry_attempts": 2},
            default_policy=defaults,
        )
        assert request.policy.deadline_s == 9.0
        assert request.policy.retry.max_attempts == 2

    def test_rows_are_sorted_and_json_safe(self):
        sock_free = protocol.encode_line({"rows": [["b", 2], ["a", 1]]})
        assert json.loads(sock_free)  # encodable
        answers = frozenset({("b", 2), ("a", 1), ("c", None)})
        batch = AnswerBatch(1, SimpleNamespace(key=("v1",)), 0.0, True, answers, answers)
        rows = protocol.batch_record("r", batch)["answers"]
        assert rows == sorted(rows, key=repr) and len(rows) == 3


class TestLifecycle:
    def test_clean_shutdown_closes_listener(self, movies):
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
        )
        server, thread = start_server(service, port=0)
        port = server.port
        server.shutdown()
        server.server_close()
        service.shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.2)


class _MisbehavingServer(threading.Thread):
    """A fake server that reads one request line, then misbehaves.

    ``payload`` is written verbatim before the connection is closed:
    half a JSON frame models a server dying mid-write; an empty payload
    models an immediate hangup after the request.
    """

    def __init__(self, payload: bytes) -> None:
        super().__init__(daemon=True)
        self.payload = payload
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            # The reader holds the socket open too: both are closed here,
            # or the client waits out its timeout instead of seeing EOF.
            with conn, conn.makefile("rb") as reader:
                reader.readline()  # consume the client's request
                if self.payload:
                    conn.sendall(self.payload)

    def close(self) -> None:
        self._halt.set()
        self._listener.close()
        self.join(timeout=5.0)


class TestClientHardening:
    """Transport failures become per-request errors, never crashes."""

    #: The client's socket timeout.  Every failure here is seen at once,
    #: so a run that waits out this timeout tests the wrong path.
    TIMEOUT_S = 2.0

    def drive(self, port, requests=4, concurrency=2):
        started = time.monotonic()
        report = run_load(
            "127.0.0.1",
            port,
            ["q(T, R) :- play_in(A, T), review_of(R, T)"],
            requests=requests,
            concurrency=concurrency,
            timeout_s=self.TIMEOUT_S,
        )
        assert time.monotonic() - started < self.TIMEOUT_S / 2
        return report

    def test_half_written_frame_counts_as_request_error(self):
        server = _MisbehavingServer(b'{"type": "summary", "status"')
        server.start()
        try:
            report = self.drive(server.port)
        finally:
            server.close()
        assert report.sent == 4
        assert report.completed == 0
        assert report.errors == 4
        assert report.degradation_reported == 0

    def test_immediate_hangup_counts_as_request_error(self):
        server = _MisbehavingServer(b"")
        server.start()
        try:
            report = self.drive(server.port)
        finally:
            server.close()
        assert report.sent == 4
        assert report.completed == 0
        assert report.errors == 4

    def test_refused_connection_counts_per_request(self):
        # Bind-then-close guarantees a port nobody is listening on.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()
        report = self.drive(dead_port, requests=3, concurrency=2)
        assert report.sent == 3
        assert report.completed == 0
        assert report.errors == 3


class TestControlRecords:
    """Health probes and metric scrapes over the same connection."""

    def test_health_reply_echoes_identity(self, movies):
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
        )
        server, _thread = start_server(
            service, port=0, identity={"shard": 3, "role": "worker"}
        )
        try:
            with connect("127.0.0.1", server.port) as sock:
                stream = sock.makefile("rwb")
                stream.write(protocol.encode_line({"type": "health", "id": "h1"}))
                stream.flush()
                reply = protocol.decode_line(stream.readline())
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()
        assert reply == {
            "type": "health",
            "id": "h1",
            "status": "ok",
            "shard": 3,
            "role": "worker",
        }

    def test_metrics_scrape_matches_registry_export(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            roundtrip(
                stream, protocol.request_record(str(movies.query), request_id="m0")
            )
            stream.write(protocol.encode_line({"type": "metrics", "id": "m1"}))
            stream.flush()
            reply = protocol.decode_line(stream.readline())
        assert reply["type"] == "metrics"
        assert reply["id"] == "m1"
        assert reply["metrics"] == served.service.registry_export()
        assert reply["metrics"]["service.accepted"]["value"] == 1

    def test_control_records_do_not_touch_request_counters(self, served):
        before = served.service.registry_export()
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            for record in ({"type": "health"}, {"type": "metrics"}):
                stream.write(protocol.encode_line(record))
                stream.flush()
                protocol.decode_line(stream.readline())
        assert served.service.registry_export() == before

    def test_queries_still_served_after_control_records(self, served, movies):
        with connect("127.0.0.1", served.port) as sock:
            stream = sock.makefile("rwb")
            stream.write(protocol.encode_line({"type": "health"}))
            stream.flush()
            assert protocol.decode_line(stream.readline())["status"] == "ok"
            replies = roundtrip(
                stream, protocol.request_record(str(movies.query), request_id="c1")
            )
        assert replies[-1]["type"] == "summary"
        assert replies[-1]["status"] == "ok"
