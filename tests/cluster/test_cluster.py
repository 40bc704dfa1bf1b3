"""End-to-end tests of the router/worker cluster.

Real processes, real sockets: a module-scoped two-worker cluster
serves most tests (worker spawn is the expensive part), and the
crash/restart tests get their own short-lived clusters.
"""

import io
import threading
from dataclasses import replace
import time
import urllib.request

import pytest

from repro.cluster.runtime import Cluster, worker_specs
from repro.cluster.router import RouterTCPServer, tag_line
from repro.cluster.spec import WorkerSpec
from repro.cluster.supervisor import ClusterSupervisor
from repro.cluster.worker import build_worker_service
from repro.errors import ServiceError
from repro.observability.journal import EventJournal
from repro.observability.metrics import MetricRegistry
from repro.observability.prometheus import render_registry
from repro.service import protocol
from repro.service.frontend import connect
from repro.service.metricsd import start_metrics_server
from repro.service.policy import RequestPolicy
from repro.service.server import ServiceConfig
from repro.service.workloads import service_workload
from tests.journal_reader import events

pytestmark = pytest.mark.slow

QUERY = str(service_workload("movies", 0)[3])


def send_request(stream, text, request_id, **kwargs):
    """One request round trip; returns all reply records."""
    stream.write(
        protocol.encode_line(
            protocol.request_record(text, request_id=request_id, **kwargs)
        )
    )
    stream.flush()
    replies = []
    while True:
        line = stream.readline()
        assert line, "router closed the connection mid-request"
        reply = protocol.decode_line(line)
        replies.append(reply)
        if reply["type"] in ("summary", "error"):
            return replies


def wait_router_idle(cluster, timeout_s=10.0):
    """Until every admitted request has finished its router bookkeeping.

    ``cluster.requests`` is incremented at admission, the outcome
    counters a hair *after* the client already saw the terminal record
    — so a scrape racing the router thread can be one increment short.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        snapshot = cluster.supervisor.registry.as_dict()
        settled = sum(
            snapshot[name]["value"]
            for name in (
                "cluster.routed",
                "cluster.overloaded",
                "cluster.shard_failed",
                "cluster.unavailable",
            )
        )
        if settled >= snapshot["cluster.requests"]["value"]:
            return
        time.sleep(0.01)
    raise AssertionError("router never settled")


@pytest.fixture(scope="module")
def cluster():
    sink = io.StringIO()
    instance = Cluster(worker_specs(2), journal=EventJournal(stream=sink))
    instance.sink = sink
    instance.start()
    try:
        yield instance
    finally:
        instance.stop()


class TestRouting:
    def test_query_round_trip_is_shard_tagged(self, cluster):
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            replies = send_request(stream, QUERY, "r1")
        summary = replies[-1]
        assert summary["type"] == "summary"
        assert summary["status"] == "ok"
        shard = summary["shard"]
        assert shard in (0, 1)
        # Every line of the stream carries the same shard tag.
        assert all(reply["shard"] == shard for reply in replies)
        assert summary["answers"] > 0

    def test_same_query_sticks_to_one_shard(self, cluster):
        shards = set()
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            for i in range(5):
                replies = send_request(stream, QUERY, f"sticky-{i}")
                shards.add(replies[-1]["shard"])
        assert len(shards) == 1  # cache affinity: one owner per query

    def test_routing_matches_the_ring(self, cluster):
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            replies = send_request(stream, QUERY, "ring-1")
        owner = next(cluster.router.ring.candidates(QUERY))
        assert replies[-1]["shard"] == owner

    def test_bad_request_answered_by_router(self, cluster):
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"type": "query"}\n')
            stream.flush()
            reply = protocol.decode_line(stream.readline())
        assert reply["type"] == "error"
        assert reply["code"] == "bad_request"

    def test_router_health_identifies_itself(self, cluster):
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            stream.write(protocol.encode_line({"type": "health", "id": "h"}))
            stream.flush()
            reply = protocol.decode_line(stream.readline())
        assert reply["status"] == "ok"
        assert reply["role"] == "router"
        assert reply["workers"] == 2
        assert set(reply["breakers"]) == {"shard-0", "shard-1"}

    def test_routed_events_are_journalled(self, cluster):
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            send_request(stream, QUERY, "journal-1")
        # The emit happens a hair after the client sees the summary
        # (the router thread finishes its bookkeeping); poll briefly.
        deadline = time.monotonic() + 5.0
        routed = []
        while time.monotonic() < deadline and not routed:
            routed = events(
                cluster.sink, request_id="journal-1", event="cluster.routed"
            )
            if not routed:
                time.sleep(0.01)
        assert len(routed) == 1
        assert routed[0]["shard"] in (0, 1)


class TestAggregation:
    def test_cluster_metrics_equal_merged_shard_scrapes(self, cluster):
        # Drive some traffic first so the merge is not vacuous.
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            for i in range(3):
                send_request(stream, QUERY, f"agg-{i}")
        wait_router_idle(cluster)
        # Quiesced now: control scrapes do not move any counters, so
        # the independent client-side merge must match the cluster's
        # own byte for byte.
        expected = MetricRegistry().merge(cluster.supervisor.registry)
        for shard in cluster.supervisor.shards:
            expected.merge(cluster.supervisor.scrape(shard))
        assert cluster.prometheus_text() == render_registry(expected)

    def test_counters_sum_across_shards(self, cluster):
        wait_router_idle(cluster)
        merged = cluster.supervisor.merged_registry().as_dict()
        requests_at_shards = sum(
            cluster.supervisor.scrape(shard)["service.requests"]["value"]
            for shard in cluster.supervisor.shards
        )
        assert merged["service.requests"]["value"] == requests_at_shards
        assert merged["cluster.routed"]["value"] >= 1

    def test_metrics_http_endpoint_serves_the_merge(self, cluster):
        server, _thread = start_metrics_server(cluster.prometheus_text)
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics", timeout=10
            ) as response:
                body = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
        assert "cluster_routed" in body or "cluster.routed" in body
        assert "service_requests" in body or "service.requests" in body

    def test_metrics_control_record_returns_the_merge(self, cluster):
        wait_router_idle(cluster)
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            stream.write(protocol.encode_line({"type": "metrics", "id": "m"}))
            stream.flush()
            reply = protocol.decode_line(stream.readline())
        assert reply["type"] == "metrics"
        # Same instant, quiesced: must equal an independent merge.
        assert reply["metrics"] == (
            cluster.supervisor.merged_registry().as_dict()
        )


class TestTagLine:
    def test_tag_splices_into_object_lines(self):
        line = protocol.encode_line({"type": "summary", "id": "x"})
        tagged = tag_line(line, 3)
        record = protocol.decode_line(tagged)
        assert record["shard"] == 3
        assert record["id"] == "x"

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b""])
    def test_tag_is_pure_splice(self, end):
        # Everything the worker wrote survives byte-for-byte; only the
        # tag is inserted before the closing brace, whatever ends the
        # line (a worker that dies mid-write leaves no newline).
        line = protocol.encode_line({"a": 1, "b": [1, 2]})[:-1]
        tagged = tag_line(line + end, 7)
        assert tagged == line[:-1] + b', "shard": 7}\n'


class TestCrashRecovery:
    @pytest.fixture()
    def crashy_cluster(self):
        sink = io.StringIO()
        instance = Cluster(worker_specs(2), journal=EventJournal(stream=sink))
        instance.sink = sink
        instance.start()
        try:
            yield instance
        finally:
            instance.stop()

    def _wait_restarted(self, cluster, shard, old_port, timeout_s=30.0):
        """Until the shard is routable on a *new* incarnation's port."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            port = cluster.supervisor.port_of(shard)
            if (
                port is not None
                and port != old_port
                and cluster.supervisor.routable(shard)
            ):
                return
            time.sleep(0.05)
        raise AssertionError(f"shard {shard} never became routable again")

    def test_killed_worker_is_restarted_and_serves_again(self, crashy_cluster):
        cluster = crashy_cluster
        shard = next(cluster.router.ring.candidates(QUERY))
        old_port = cluster.supervisor.port_of(shard)
        handle = cluster.supervisor._handles[shard]
        handle.process.kill()
        handle.process.join(timeout=10.0)
        self._wait_restarted(cluster, shard, old_port)
        assert handle.restarts == 1
        assert cluster.supervisor.port_of(shard) != old_port
        with connect("127.0.0.1", cluster.router.port) as sock:
            stream = sock.makefile("rwb")
            replies = send_request(stream, QUERY, "after-restart")
        assert replies[-1]["type"] == "summary"
        assert replies[-1]["status"] == "ok"
        states = [
            event["state"]
            for event in events(cluster.sink, event="cluster.worker")
            if event["shard"] == shard
        ]
        assert "died" in states
        assert "restarted" in states

    def test_no_request_is_lost_during_a_crash(self, crashy_cluster):
        # Clients hammer the cluster while one worker is killed; every
        # single request must get a terminal record (summary or error),
        # never a hang or a dropped stream.
        cluster = crashy_cluster
        shard = next(cluster.router.ring.candidates(QUERY))
        outcomes: list[str] = []
        lock = threading.Lock()

        def client(worker_id):
            for i in range(10):
                try:
                    with connect("127.0.0.1", cluster.router.port, timeout=60) as s:
                        stream = s.makefile("rwb")
                        replies = send_request(
                            stream, QUERY, f"crash-{worker_id}-{i}"
                        )
                    outcome = replies[-1]["type"]
                except (OSError, ValueError, AssertionError):
                    outcome = "transport_error"
                with lock:
                    outcomes.append(outcome)

        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        cluster.supervisor._handles[shard].process.kill()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 30
        # Terminal records for everyone; failover/shard_failed errors
        # are acceptable outcomes, hangs and dropped streams are not.
        assert all(
            outcome in ("summary", "error") for outcome in outcomes
        ), outcomes
        assert outcomes.count("summary") >= 1


class TestSpecValidation:
    def test_worker_spec_validates(self):
        with pytest.raises(ServiceError):
            WorkerSpec(shard=-1)
        with pytest.raises(ServiceError):
            WorkerSpec(shard=0, workload="nope")

    def test_cluster_config_validates(self):
        with pytest.raises(ServiceError):
            worker_specs(0)
        supervisor = ClusterSupervisor([WorkerSpec(shard=0)])
        with pytest.raises(ServiceError, match="backlog_per_shard must be"):
            RouterTCPServer(("127.0.0.1", 0), supervisor, 0)

    @pytest.mark.parametrize(
        "template",
        [
            WorkerSpec(shard=0, chaos={"faults": {}}),
            WorkerSpec(
                shard=0,
                config=ServiceConfig(
                    max_concurrent=3,
                    queue_depth=1,
                    default_measure="failure",
                    default_policy=RequestPolicy(deadline_s=2.5),
                    trace_requests=True,
                    adaptivity="on",
                ),
                breaker_cooldown_s=0.05,
                min_observations=1,
            ),
        ],
        ids=["chaos", "service-config"],
    )
    def test_worker_specs_are_picklable(self, template):
        import pickle

        specs = worker_specs(3, template)
        assert pickle.loads(pickle.dumps(specs)) == specs
        assert all(spec.config == template.config for spec in specs)

    def test_journal_dir_names_per_shard_files(self, tmp_path):
        specs = worker_specs(2, journal_dir=str(tmp_path))
        assert specs[0].journal_path.endswith("journal-shard0.jsonl")
        assert specs[1].journal_path.endswith("journal-shard1.jsonl")

    def test_duplicate_shards_rejected(self):
        from repro.cluster.supervisor import ClusterSupervisor

        with pytest.raises(ServiceError, match="duplicate"):
            ClusterSupervisor(
                [WorkerSpec(shard=0), WorkerSpec(shard=0)]
            )


#: A non-default value for each spec field the built service reads,
#: and where the service keeps it.
SPEC_FIELDS = [
    ("config", ServiceConfig(max_concurrent=3, trace_requests=True),
     lambda service: service.config),
    ("breaker_cooldown_s", 0.05,
     lambda service: service.resilience.board.cooldown_s),
    ("min_observations", 1,
     lambda service: service.resilience.min_observations),
    ("chaos_seed", 7, lambda service: service.backend.seed),
    ("breakers", False, lambda service: service.resilience.breakers),
]


class TestBuildWorkerService:
    @staticmethod
    def read(spec, reader):
        service = build_worker_service(spec)
        try:
            return reader(service)
        finally:
            service.shutdown()

    @pytest.mark.parametrize(
        "name, value, reader", SPEC_FIELDS,
        ids=[name for name, _value, _reader in SPEC_FIELDS],
    )
    def test_the_service_honours_every_spec_field(self, name, value, reader):
        from repro.resilience.chaos import bundled_profile

        base = WorkerSpec(shard=0, chaos=bundled_profile("smoke").as_dict())
        assert self.read(base, reader) != value
        spec = replace(base, **{name: value})
        got = self.read(spec, reader)
        assert got == value
        if name == "config":
            assert got is spec.config

    def test_breaker_gauges_reach_the_service_metrics(self):
        # A spec'd cooldown must not move the board off the manager's
        # registry, or its breaker series vanish from /metrics.
        from repro.resilience.chaos import bundled_profile

        service = build_worker_service(
            WorkerSpec(
                shard=0,
                chaos=bundled_profile("smoke").as_dict(),
                breaker_cooldown_s=0.05,
            )
        )
        try:
            assert (
                service.resilience.board.registry
                is service.resilience.registry
            )
        finally:
            service.shutdown()


def peak_in_flight(events):
    """Most requests between ``request.admitted`` and ``.completed`` at once."""
    live = peak = 0
    for event in events:
        live += 1 if event["event"] == "request.admitted" else -1
        peak = max(peak, live)
    return peak


MAX_CONCURRENT = 4
QUERIES_PER_SHARD = 4
CAPACITY_REQUESTS = 64
LIFECYCLE = ("request.admitted", "request.completed")


def capacity_mix():
    """Four distinct movie queries per shard of a 2-ring, owners alternating.

    ``run_load`` replays the mix round-robin, so alternating owners keep
    both shards busy and each gets exactly half of the requests.
    """
    from repro.cluster.hashing import ConsistentHashRing
    from repro.service.loadgen import build_query_mix

    catalog = service_workload("movies", 0)[0]
    ring = ConsistentHashRing(range(2))
    owned = {0: [], 1: []}
    for text in build_query_mix(catalog, 64, seed=0):
        queries = owned[next(ring.candidates(text))]
        if len(queries) < QUERIES_PER_SHARD:
            queries.append(text)
    return [text for pair in zip(owned[0], owned[1]) for text in pair]


class TestCapacity:
    """What scale-out buys: admission slots, counted from the journals.

    With sleep-bound sources (a chaos profile adding 100 ms to every
    access) a worker overlaps ``max_concurrent`` requests' source waits,
    and N workers overlap N times as many.  Each shard's journal holds
    its admitted -> completed intervals, so the capacity is read as an
    exact count, not inferred from a throughput ratio.  One short-lived
    cluster serves the whole class.
    """

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """(mix, load report, {shard: its lifecycle events in seq order})."""
        from repro.observability.journal import read_jsonl
        from repro.resilience.chaos import ChaosProfile, FaultProfile
        from repro.service.loadgen import run_load

        mix = capacity_mix()
        template = WorkerSpec(
            shard=0,
            config=ServiceConfig(max_concurrent=MAX_CONCURRENT),
            chaos=ChaosProfile(
                "slow", {}, default=FaultProfile(latency_s=0.1)
            ).as_dict(),
        )
        specs = worker_specs(
            2,
            template,
            journal_dir=str(tmp_path_factory.mktemp("capacity")),
        )
        # Sixteen connections at once overflow the router's listen
        # backlog, and the late ones get in about a second later (a TCP
        # retransmit); the budget keeps both shards full after that.
        cluster = Cluster(specs)
        port = cluster.start()
        try:
            report = run_load(
                "127.0.0.1", port, mix,
                requests=CAPACITY_REQUESTS, concurrency=16, timeout_s=60.0,
            )
        finally:
            cluster.stop()
        journals = {}
        for spec in specs:
            # One process writes the file in ``seq`` order, its exact
            # order of events.
            with open(spec.journal_path, encoding="utf-8") as handle:
                journals[spec.shard] = [
                    event
                    for event in read_jsonl(handle)
                    if event["event"] in LIFECYCLE
                ]
        return mix, report, journals

    def test_mix_gives_each_shard_its_own_distinct_queries(self):
        from repro.cluster.hashing import ConsistentHashRing

        mix = capacity_mix()
        ring = ConsistentHashRing(range(2))
        assert len(set(mix)) == len(mix) == 2 * QUERIES_PER_SHARD
        assert [next(ring.candidates(text)) for text in mix] == [0, 1] * 4

    def test_every_request_completes_without_error(self, run):
        _mix, report, _journals = run
        assert report.errors == 0
        assert report.rejected == 0
        assert report.completed == report.sent == CAPACITY_REQUESTS

    def test_each_query_is_served_by_its_ring_shard(self, run):
        _mix, report, _journals = run
        half = CAPACITY_REQUESTS // 2
        assert report.shard_requests == {0: half, 1: half}

    @pytest.mark.parametrize("shard", [0, 1])
    def test_each_shard_journals_exactly_its_requests(self, run, shard):
        from repro.cluster.hashing import ConsistentHashRing

        mix, _report, journals = run
        ring = ConsistentHashRing(range(2))
        expected = {
            f"load-{index}"
            for index in range(CAPACITY_REQUESTS)
            if next(ring.candidates(mix[index % len(mix)])) == shard
        }
        for kind in LIFECYCLE:
            ids = [
                event["request_id"]
                for event in journals[shard]
                if event["event"] == kind
            ]
            assert sorted(ids) == sorted(expected)

    @pytest.mark.parametrize("shard", [0, 1])
    def test_each_shard_completes_every_request_ok(self, run, shard):
        _mix, _report, journals = run
        statuses = {
            event["status"]
            for event in journals[shard]
            if event["event"] == "request.completed"
        }
        assert statuses == {"ok"}

    @pytest.mark.parametrize("shard", [0, 1])
    def test_each_shard_fills_exactly_its_slots(self, run, shard):
        _mix, _report, journals = run
        assert peak_in_flight(journals[shard]) == MAX_CONCURRENT

    def test_the_cluster_fills_the_sum_of_its_shards_slots(self, run):
        _mix, _report, journals = run
        everywhere = journals[0] + journals[1]
        # Across processes only the wall clock orders events; at equal
        # stamps a completion goes first, so the count never overstates.
        everywhere.sort(
            key=lambda e: (e["ts"], e["event"] == "request.admitted")
        )
        assert peak_in_flight(everywhere) == 2 * MAX_CONCURRENT


class TestLoadgenAgainstRouter:
    def test_run_load_collects_per_shard_stats(self, cluster):
        from repro.service.loadgen import run_load

        report = run_load(
            "127.0.0.1", cluster.router.port, [QUERY], requests=8, concurrency=2
        )
        assert report.completed == 8
        assert report.errors == 0
        # One query -> one ring owner: every request lands on a single
        # shard, and a lone shard is by definition perfectly balanced.
        assert sum(report.shard_requests.values()) == 8
        assert len(report.shard_requests) == 1
        assert report.shard_imbalance == 1.0
        (summary,) = report.shard_latency.values()
        assert summary.count == 8
        assert "shard imbalance" in report.format_table()
