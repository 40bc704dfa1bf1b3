"""docs/cluster.md's audit table against the code.

Each row of the table names one mechanism and ends in its verdict:
"kept" (the mechanism is there) or anything else (deleted, or turned
into a constant, so the knob is gone).  One probe per row checks the
verdict against the tree, so a mechanism re-added without its row, or
a row left behind by a deletion, fails here.
"""

import dataclasses
import inspect
from pathlib import Path

import pytest

import repro.cluster
from repro.cluster import hashing, router, spec, supervisor
from repro.cluster.hashing import ConsistentHashRing
from repro.cluster.router import RouterTCPServer, tag_line
from repro.cluster.runtime import Cluster
from repro.cluster.spec import WorkerSpec
from repro.cluster.supervisor import ClusterSupervisor, WorkerHandle
from repro.cluster.worker import worker_main
from repro.errors import ServiceError
from repro.resilience.breaker import CircuitBreaker

DOC = Path(__file__).resolve().parents[2] / "docs" / "cluster.md"
HEADING = "## Which mechanisms exist, and why: the audit"


def audit_rows():
    """``(mechanism, verdict)`` for each row of the audit table."""
    section = DOC.read_text(encoding="utf-8").split(HEADING, 1)[1]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = []
    for line in lines[2:]:  # past the header and its rule
        cells = [cell.strip() for cell in line.strip().strip("|").split(" | ")]
        rows.append((cells[0], cells[-1]))
    return rows


def params(callable_):
    return set(inspect.signature(callable_).parameters)


def fields(cls):
    return {field.name for field in dataclasses.fields(cls)}


def cluster_config_fields():
    """``ClusterConfig``'s fields, should the class come back."""
    config = getattr(spec, "ClusterConfig", None)
    return set() if config is None else fields(config)


def knobs():
    """What a caller can set on a cluster, its supervisor or its router."""
    return (
        cluster_config_fields()
        | params(Cluster)
        | params(ClusterSupervisor)
        | params(RouterTCPServer)
    )


def source(function):
    return inspect.getsource(function)


def handle():
    return WorkerHandle(WorkerSpec(shard=0), CircuitBreaker("shard-0"))


def refuses_an_empty_ring():
    try:
        ConsistentHashRing([])
    except ServiceError:
        return True
    return False


def router_falls_back():
    parameters = inspect.signature(RouterTCPServer).parameters
    return bool({"registry", "merged_export", "config"} & set(parameters)) or (
        parameters["backlog_per_shard"].default is not inspect.Parameter.empty
    )


#: Does the row's mechanism exist in the tree?
PRESENT = {
    "`ConsistentHashRing.add` / `remove`":
        lambda: hasattr(ConsistentHashRing, "add")
        or hasattr(ConsistentHashRing, "remove"),
    "the ring's `__len__`, `__contains__`, `__repr__` and `shards`":
        lambda: bool(
            {"__len__", "__contains__", "__repr__", "shards"}
            & set(vars(ConsistentHashRing))
        ),
    "`ConsistentHashRing.shard_for`":
        lambda: hasattr(ConsistentHashRing, "shard_for"),
    "`ConsistentHashRing(replicas=)`":
        lambda: "replicas" in params(ConsistentHashRing)
        or hashing.REPLICAS != 64,
    "the ring's empty-ring refusal": refuses_an_empty_ring,
    "`_Backlog`, `RouterTCPServer.backlog()` / `shard_counter()`":
        lambda: hasattr(router, "_Backlog")
        or hasattr(RouterTCPServer, "backlog")
        or hasattr(RouterTCPServer, "shard_counter"),
    "the router's `config` / `registry` / `merged_export` fallbacks":
        router_falls_back,
    "`ClusterConfig`": lambda: hasattr(spec, "ClusterConfig"),
    "`ClusterConfig.host`": lambda: "host" in cluster_config_fields(),
    "`WorkerSpec.host`, `supervisor.host_of`":
        lambda: "host" in fields(WorkerSpec)
        or hasattr(ClusterSupervisor, "host_of"),
    "`ClusterConfig.workers`": lambda: "workers" in cluster_config_fields(),
    "`probe_interval_s`":
        lambda: "probe_interval_s" in knobs()
        or supervisor.PROBE_INTERVAL_S != 0.25,
    "`failure_threshold`":
        lambda: "failure_threshold" in knobs()
        or supervisor.FAILURE_THRESHOLD != 3,
    "`cooldown_s`":
        lambda: "cooldown_s" in knobs()
        or supervisor.COOLDOWN_S != 1.0,
    "`max_restarts_per_shard`":
        lambda: "max_restarts_per_shard" in knobs()
        or supervisor.MAX_RESTARTS_PER_SHARD != 5,
    "`WorkerHandle.pid`": lambda: "pid" in vars(handle()),
    "the second `breaker.reset()` in `_handle_death`":
        lambda: "reset()" in source(ClusterSupervisor._handle_death),
    "`ClusterSupervisor.__enter__` / `__exit__`":
        lambda: hasattr(ClusterSupervisor, "__enter__"),
    "`Cluster.__enter__` / `__exit__`": lambda: hasattr(Cluster, "__enter__"),
    "`Cluster.port`": lambda: hasattr(Cluster, "port"),
    "the double-start refusals":
        lambda: "already started" in source(Cluster.start)
        + source(ClusterSupervisor.start),
    "`tag_line`'s pass-through branch":
        lambda: tag_line(b"garbage\n", 1) == b"garbage\n",
    "the `repro.cluster` re-exports":
        lambda: hasattr(repro.cluster, "Cluster")
        or hasattr(repro.cluster, "ConsistentHashRing"),
    "`Cluster.merged_registry` / `merged_export`":
        lambda: hasattr(Cluster, "merged_registry")
        or hasattr(Cluster, "merged_export"),
    "`Cluster.prometheus_text`": lambda: callable(Cluster.prometheus_text),
    "the cross-shard merge (`ClusterSupervisor.merged_registry`)":
        lambda: callable(getattr(ClusterSupervisor, "merged_registry", None)),
    "64 virtual replicas per shard":
        lambda: len(ConsistentHashRing(range(2))._points) == 128,
    "ring-order failover (`candidates`)":
        lambda: sorted(ConsistentHashRing(range(3)).candidates("q")) == [0, 1, 2],
    "the per-shard relay backlog (`backlog_per_shard`)":
        lambda: "backlog_per_shard" in params(RouterTCPServer),
    "relay outcomes on the shard breaker":
        lambda: "record_relay_outcome" in source(router._RouterHandler),
    "the `shard_failed` record":
        lambda: "shard_failed" in source(router._RouterHandler._relay),
    "the `unavailable` record":
        lambda: "unavailable" in source(router._RouterHandler.serve_query),
    "health probes on the shard breaker":
        lambda: "record_failure" in source(ClusterSupervisor.probe),
    "crash restarts": lambda: "_spawn" in source(ClusterSupervisor._handle_death),
    "abandon once (`WorkerHandle.abandoned`)":
        lambda: "abandoned" in vars(handle()),
    "the `shard` tag (`tag_line`)":
        lambda: tag_line(b'{"a": 1}\n', 3) == b'{"a": 1, "shard": 3}\n',
    "the `cluster.routed` journal event":
        lambda: "cluster.routed" in source(router._RouterHandler.serve_query),
    "the per-incarnation ready pipe":
        lambda: "ready_conn" in vars(handle()),
    "`Cluster.start(host=)`": lambda: "host" in params(Cluster.start),
    "`worker_main`'s not-main-thread fallback":
        lambda: "ValueError" in source(worker_main),
    "`worker_main`'s `KeyboardInterrupt` catch":
        lambda: "KeyboardInterrupt" in source(worker_main),
}


def test_every_row_has_a_probe():
    assert sorted(mechanism for mechanism, _ in audit_rows()) == sorted(PRESENT)


@pytest.mark.parametrize(
    "mechanism, verdict", audit_rows(), ids=[row[0] for row in audit_rows()]
)
def test_the_verdict_matches_the_tree(mechanism, verdict):
    assert PRESENT[mechanism]() == verdict.startswith("kept")
