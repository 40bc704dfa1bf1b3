"""The router's failure paths against scripted shards, no worker processes.

As in ``tests/service/test_wire_frames.py``, a ``ClusterSupervisor`` is
told where its shards listen instead of spawning them; here each shard
is a tiny in-process server that answers every request with a fixed
script of reply lines and then hangs up unless the script ended in a
``summary``.  Routing, failover, relays, backlogs and breakers are the
real ones.
"""

import socketserver
import sys
import threading

import pytest

from repro.cluster.hashing import ConsistentHashRing
from repro.cluster.router import start_router
from repro.cluster.spec import WorkerSpec
from repro.cluster.supervisor import FAILURE_THRESHOLD, ClusterSupervisor
from repro.service import protocol
from repro.service.frontend import connect
from tests.service.helpers import roundtrip

QUERY = "q(X) :- r(X)"
#: The shard a two-shard ring routes QUERY to first, and its neighbour.
PRIMARY = next(ConsistentHashRing(range(2)).candidates(QUERY))
OTHER = 1 - PRIMARY


def summary(record):
    return protocol.encode_line(
        {"type": "summary", "id": record["id"], "status": "ok"}
    )


def batch(record):
    return protocol.encode_line({"type": "batch", "id": record["id"]})


def health(record):
    return protocol.encode_line(
        {"type": "health", "id": record.get("id"), "status": "ok", "shard": 0}
    )


#: Each script maps one request record to the lines the shard sends.
SCRIPTS = {
    "summary": lambda record: [summary(record)],
    "hang-up": lambda record: [],
    "batch, hang-up": lambda record: [batch(record)],
    "batch, garbage": lambda record: [batch(record), b"not json\n"],
    "health": lambda record: [health(record)],
}


class _ScriptedHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            record = protocol.decode_line(line)
            replies = self.server.script(record)
            self.wfile.writelines(replies)
            self.wfile.flush()
            if self.server.hangs_up:
                return


class ScriptedShard(socketserver.ThreadingTCPServer):
    daemon_threads = True

    def __init__(self, script):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.script = SCRIPTS[script]
        #: Only a script that ends in a summary keeps the connection.
        self.hangs_up = script != "summary"
        #: What a handler raised, kept for the fixture to report.
        self.errors = []
        threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.01},
            daemon=True,
        ).start()

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])


@pytest.fixture
def cluster():
    """``cluster(*scripts)``: a router whose shard k runs scripts[k]."""
    servers = []
    shards = []

    def build(*scripts, backlog_per_shard=32):
        supervisor = ClusterSupervisor(
            [WorkerSpec(shard=shard) for shard in range(len(scripts))]
        )
        for shard, script in enumerate(scripts):
            shards.append(ScriptedShard(script))
            servers.append(shards[-1])
            supervisor._handles[shard].port = shards[-1].server_address[1]
        router = start_router(supervisor, backlog_per_shard)[0]
        servers.append(router)
        return router

    yield build
    for server in reversed(servers):
        server.shutdown()
        server.server_close()
    assert [error for shard in shards for error in shard.errors] == []


def two_shards(primary, other):
    scripts = [None, None]
    scripts[PRIMARY], scripts[OTHER] = primary, other
    return scripts


class Client:
    """One connection to the router."""

    def __init__(self, router):
        self.router = router
        self.sock = connect("127.0.0.1", router.port)
        self.stream = self.sock.makefile("rwb")
        self.sent = 0

    def query(self):
        self.sent += 1
        record = protocol.request_record(QUERY, request_id=f"r{self.sent}")
        return roundtrip(self.stream, record)

    def counter(self, name):
        # The router handles one connection's records in order, so once
        # this health reply is back the previous request's bookkeeping
        # is done.
        self.stream.write(protocol.encode_line({"type": "health", "id": "h"}))
        self.stream.flush()
        assert protocol.decode_line(self.stream.readline())["type"] == "health"
        return self.router.supervisor.registry.as_dict()[name]["value"]

    def close(self):
        self.stream.close()
        self.sock.close()


@pytest.fixture
def client():
    clients = []

    def open_(router):
        clients.append(Client(router))
        return clients[-1]

    yield open_
    for each in clients:
        each.close()


def kinds(replies):
    return [
        (reply["type"], reply.get("code"), reply.get("shard"))
        for reply in replies
    ]


class TestRelayFailures:
    def test_hang_up_before_any_line_fails_over(self, cluster, client):
        me = client(cluster(*two_shards("hang-up", "summary")))
        assert kinds(me.query()) == [("summary", None, OTHER)]
        assert me.counter("cluster.failovers") == 1

    def test_an_unparsable_reply_ends_the_request_shard_failed(
        self, cluster, client
    ):
        me = client(cluster(*two_shards("batch, garbage", "summary")))
        assert kinds(me.query()) == [
            ("batch", None, PRIMARY), ("error", "shard_failed", None)
        ]
        assert me.counter("cluster.shard_failed") == 1

    def test_a_relay_that_dies_mid_stream_counts_against_the_breaker(
        self, cluster, client
    ):
        router = cluster("batch, hang-up")
        me = client(router)
        for _ in range(FAILURE_THRESHOLD):
            assert kinds(me.query())[-1] == ("error", "shard_failed", None)
        assert me.counter("cluster.shard_failed") == FAILURE_THRESHOLD
        assert router.supervisor.breaker_states() == {"shard-0": "open"}
        assert kinds(me.query()) == [("error", "unavailable", None)]


class TestShedding:
    def test_a_full_backlog_is_overloaded(self, cluster, client):
        router = cluster(
            *two_shards("summary", "summary"),
            backlog_per_shard=1,
        )
        me = client(router)
        router.backlogs[PRIMARY].acquire()
        try:
            assert kinds(me.query()) == [("error", "overloaded", None)]
        finally:
            router.backlogs[PRIMARY].release()
        assert kinds(me.query()) == [("summary", None, PRIMARY)]
        assert me.counter("cluster.overloaded") == 1

    def test_every_breaker_open_is_unavailable(self, cluster, client):
        router = cluster("summary", "summary")
        for shard in (0, 1):
            router.supervisor._handles[shard].breaker.force_open()
        me = client(router)
        assert kinds(me.query()) == [("error", "unavailable", None)]
        assert me.counter("cluster.unavailable") == 1


class TestProbe:
    def test_failed_probes_open_the_breaker(self, cluster):
        supervisor = cluster("hang-up").supervisor
        for _ in range(FAILURE_THRESHOLD):
            assert supervisor.routable(0)
            assert not supervisor.probe(0)
        assert not supervisor.routable(0)
        assert supervisor.breaker_states() == {"shard-0": "open"}

    def test_a_healthy_probe_keeps_the_shard(self, cluster):
        supervisor = cluster("health").supervisor
        assert supervisor.probe(0)
        assert supervisor.routable(0)
