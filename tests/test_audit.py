"""The seven audit tables against the tree.

``docs/analysis.md``, ``cluster.md``, ``observability.md``,
``algorithms.md``, ``resilience.md``, ``service.md`` and ``workloads.md``
each end in an audit table: one row per mechanism, ending in a verdict.  A row whose
verdict starts with "kept" names, as ``path::[Class::]test``, the tier-1
test that failed under the mechanism's seeded no-op, and its probe checks
that tier-1 still collects that test.  Any other row was deleted, and
its entry in ``PROBES`` checks that what it deleted stays absent: an
attribute, parameter, field, module or CLI flag, or a behaviour seen
through a call.  A few rows have a ``None`` entry instead, and the row
says why nothing can probe it ("no probe: ...").  No probe reads source
text, so a refactor that keeps every mechanism keeps every probe.
"""

import contextlib
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import io
import itertools
import os
import re
import socket
import tempfile
import textwrap
from pathlib import Path

import pytest

import repro.cluster
import repro.execution
import repro.observability
import repro.resilience
import repro.service as service_package
import repro.service.backends
from repro import cli
from repro.analysis import code_rules
from repro.analysis import diagnostics as analysis_diagnostics
from repro.analysis import runner as analysis_runner
from repro.analysis.astutils import CodeModule
from repro.analysis.concurrency import build_model
from repro.analysis.concurrency import contracts as concurrency_contracts
from repro.analysis.concurrency import facts as concurrency_facts
from repro.analysis.concurrency import model as concurrency_model
from repro.analysis.concurrency import rules as concurrency_rules
from repro.cli import main
from repro.cluster import hashing, router, spec, supervisor
from repro.cluster.hashing import ConsistentHashRing
from repro.cluster.router import RouterTCPServer, tag_line
from repro.cluster.runtime import Cluster
from repro.cluster.spec import WorkerSpec
from repro.cluster.supervisor import ClusterSupervisor, WorkerHandle
from repro.datalog import containment, engine, program, query, terms, unification
from repro.datalog.parser import parse_query
from repro.errors import ReproError
from repro.execution import mediator, simulator
from repro.experiments import counts, figure6, harness
from repro.observability import caching, journal, metrics, prometheus, tracing
from repro.observability.metrics import MetricRegistry
from repro.ordering import adaptive, base
from repro.ordering.abstraction import AbstractPlan, AbstractSource
from repro.ordering.dominance import DominanceGraph
from repro.reformulation import inverse_rules, minicon
from repro.resilience import health
from repro.resilience.breaker import BreakerBoard, CircuitBreaker
from repro.resilience.chaos import BUNDLED_PROFILES, ChaosBackend, ChaosProfile
from repro.resilience.chaos import FaultProfile
from repro.resilience.health import SourceHealthTracker
from repro.resilience.manager import ResilienceManager
from repro.resilience.measure import HealthAwareMeasure
from repro.service import frontend, metricsd
from repro.service.backends import InMemoryBackend
from repro.service.policy import CancellationToken, Deadline, RetryPolicy
from repro.service.server import QueryService, RequestResult, ServiceConfig
from repro.service.session import PipelinedSession
from repro.sources.catalog import Catalog, SourceDescription
from repro.sources.overlap import OverlapModel
from repro.sources.statistics import SourceStats
from repro.utility import boxes, cost, monetary
from repro.utility.base import ExecutionContext, UtilityMeasure
from repro.utility.boxes import DisjointBoxUnion
from repro.utility.coverage import CoverageUtility
from repro.utility.cost import LinearCost
from repro.utility.intervals import Interval
from repro.workloads import random_lav
from repro.workloads.domain import Domain
from repro.workloads.movies import movie_domain
from repro.workloads.synthetic import SyntheticParams

DOCS = Path(__file__).resolve().parents[1] / "docs"
TABLES = {
    "analysis": "analysis.md",
    "cluster": "cluster.md",
    "observability": "observability.md",
    "ordering": "algorithms.md",
    "resilience": "resilience.md",
    "service": "service.md",
    "workloads": "workloads.md",
}
HEADING = "## Which mechanisms exist, and why: the audit"
TEST_ID = re.compile(r"`((?:\w+/)*test_\w+\.py)::(\w+(?:::\w+)?)(?:\[([^\]`]+)\])?`")


class AuditTableError(ValueError):
    """A table the reader cannot take as an audit table."""


@dataclasses.dataclass(frozen=True)
class Row:
    mechanism: str
    text: str
    kept: bool

    @property
    def test_id(self):
        """``(path, [Class::]test, case)`` of the first test the row names."""
        match = TEST_ID.search(self.text)
        return match.groups() if match else None


def read_table(text):
    """The rows of the audit table that ends *text*.

    Refuses a table whose last header cell is not ``verdict``, and a
    row with another cell count than the header.
    """
    if HEADING not in text:
        raise AuditTableError(f"no {HEADING!r} section")
    lines = [
        line for line in text.split(HEADING, 1)[1].splitlines()
        if line.startswith("|")
    ]
    header = cells(lines[0])
    if header[-1] != "verdict":
        raise AuditTableError(f"the last header cell is {header[-1]!r}, not 'verdict'")
    rows = []
    for line in lines[2:]:  # past the header and its rule
        row = cells(line)
        if len(row) != len(header):
            raise AuditTableError(f"{len(row)} cells, the header has {len(header)}: {line}")
        rows.append(Row(row[0], line, row[-1].startswith("kept")))
    return rows


def cells(line):
    return [cell.strip() for cell in line.strip().strip("|").split(" | ")]


def probes_for(rows, entries):
    """``(row, probe)`` for each row: *probe* is ``None`` or a callable
    answering "is the mechanism in the tree?".

    A kept row that names a test is probed by that test's collection and
    must have no entry; every other row must have exactly one entry, and
    every entry must belong to such a row.
    """
    entries = dict(entries)
    paired = []
    for row in rows:
        if row.kept and row.test_id:
            if row.mechanism in entries:
                raise AuditTableError(f"{row.mechanism!r} names a test and has an entry")
            paired.append((row, functools.partial(collected, *row.test_id)))
            continue
        if row.mechanism not in entries:
            raise AuditTableError(f"{row.mechanism!r} has no probe entry")
        probe = entries.pop(row.mechanism)
        if probe is None and "no probe:" not in row.text:
            raise AuditTableError(f"{row.mechanism!r} has no probe and says not why")
        paired.append((row, probe))
    if entries:
        raise AuditTableError(f"entries without a row: {sorted(entries)}")
    return paired


def collected(path, name, case=None):
    """Does tier-1 collect ``path::name[case]`` (path under ``tests/``)?"""
    try:
        module = importlib.import_module("tests." + path[:-3].replace("/", "."))
    except ImportError:
        return False
    *owner_names, function = name.split("::")
    owner = getattr(module, owner_names[0], None) if owner_names else module
    if owner_names and not (inspect.isclass(owner) and owner.__name__.startswith("Test")):
        return False
    test = getattr(owner, function, None)
    if not (function.startswith("test") and inspect.isfunction(test)):
        return False
    return case is None or case in case_ids(module, owner, test)


def case_ids(module, owner, test):
    """The ``[case]`` ids pytest gives *test*: its ``parametrize`` marks
    (on the function, then its class) and its parametrized fixtures."""
    sources = [
        mark_ids(mark)
        for holder in (test, owner)
        for mark in getattr(holder, "pytestmark", [])
        if mark.name == "parametrize"
    ]
    for argument in inspect.signature(test).parameters:
        marker = getattr(getattr(module, argument, None), "_fixture_function_marker", None)
        if marker is not None and marker.params is not None:
            sources.append([str(param) for param in marker.params])
    return {
        "-".join(parts)
        for order in itertools.permutations(sources)
        for parts in itertools.product(*order)
    }


def mark_ids(mark):
    names, values = mark.args[0], mark.args[1]
    names = [n.strip() for n in names.split(",")] if isinstance(names, str) else list(names)
    ids = mark.kwargs.get("ids")
    result = []
    for index, value in enumerate(values):
        if getattr(value, "id", None) is not None:  # pytest.param(..., id=)
            result.append(value.id)
            continue
        if hasattr(value, "marks"):
            value = value.values if len(names) > 1 else value.values[0]
        if ids is not None and not callable(ids):
            result.append(str(ids[index]))
            continue
        parts = value if len(names) > 1 else (value,)
        result.append("-".join(
            idval(part, argument, index, ids) for part, argument in zip(parts, names)
        ))
    return result


def idval(value, argument, index, ids):
    named = ids(value) if callable(ids) else None
    if named is not None:
        return str(named)
    if isinstance(value, (str, int, float, bool, type(None))):
        return str(value)
    if inspect.isclass(value) or inspect.isfunction(value):
        return value.__name__
    return f"{argument}{index}"


# -- the vocabulary of name and call probes ------------------------------------


def has(obj, *names):
    return any(hasattr(obj, name) for name in names)


def own(obj, *names):
    """Does *obj* define one of *names* itself (not by inheritance)?"""
    return any(name in vars(obj) for name in names)


def params(callable_):
    return set(inspect.signature(callable_).parameters)


def fields(cls):
    return {field.name for field in dataclasses.fields(cls)}


def raises(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except ReproError:
        return True
    return False


@functools.lru_cache(maxsize=None)
def help_text(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main([*argv, "--help"])
    return out.getvalue()


@functools.lru_cache(maxsize=None)
def movies():
    return movie_domain()


def knobs():
    """What a caller can set on a cluster, its supervisor or its router."""
    config = getattr(spec, "ClusterConfig", None)
    return (
        (fields(config) if config else set())
        | params(Cluster) | params(ClusterSupervisor) | params(RouterTCPServer)
    )


def handle():
    return WorkerHandle(WorkerSpec(shard=0), CircuitBreaker("shard-0"))


def router_falls_back():
    parameters = inspect.signature(RouterTCPServer).parameters
    return bool({"registry", "merged_export", "config"} & set(parameters)) or (
        parameters["backlog_per_shard"].default is not inspect.Parameter.empty
    )


def latency_is_tracked():
    registry = MetricRegistry()
    tracker = SourceHealthTracker(registry=registry)
    tracker.record_success("v1")
    return (
        hasattr(tracker, "latency")
        or "latency_s" in params(tracker.record_success) | params(tracker.record_failure)
        or "resilience.health.v1.latency_s" in registry.as_dict()
    )


def zero_call_payload_skipped():
    stats = tracing.SpanStats("p")
    stats.absorb({"calls": 0, "total_s": 0.0, "min_s": 5.0, "max_s": 5.0})
    return stats.min_s == float("inf")


def negative_first_bucket_edge():
    histogram = metrics.Histogram("h", bounds=(1.0,))
    histogram.observe(-4.0)
    histogram.observe(0.5)
    return histogram.quantile(0.5) == -1.5


def mediator_copies_facts():
    facts = {name: set(rows) for name, rows in movies().source_facts.items()}
    built = mediator.Mediator(movies().catalog, facts)
    return any(built.source_facts[name] is not rows for name, rows in facts.items())


def report_copies_lists():
    report = mediator.SessionReport()
    return report.as_dict()["sources_skipped"] is not report.sources_skipped


def run_lends_its_tracer():
    domain = movies()
    run_mediator = mediator.Mediator(domain.catalog, domain.source_facts)
    utility = LinearCost()
    orderer = run_mediator.make_orderer(utility)
    tracer = tracing.Tracer()
    run = mediator.AnytimeRun(
        run_mediator, domain.query, utility, orderer=orderer, tracer=tracer
    )
    lent = orderer.tracer is tracer or "_adopted_tracer" in vars(run)
    run.close()
    return lent


@functools.lru_cache(maxsize=None)
def pipelined_run():
    """Metric names and span paths of one traced pipelined request."""
    domain = movies()
    registry = MetricRegistry()
    run_mediator = mediator.Mediator(domain.catalog, domain.source_facts, registry=registry)
    tracer = tracing.Tracer()
    session = PipelinedSession(
        run_mediator, backend=ChaosBackend(ChaosProfile("calm", {})), tracer=tracer
    )
    list(session.stream(domain.query, LinearCost()))
    return set(registry.as_dict()), set(tracer.as_dict())


def cache_registers(*names):
    registry = MetricRegistry()
    caching.CachingUtilityMeasure(LinearCost(), registry=registry)
    return bool(set(names) & set(registry.as_dict()))


def leaf(name):
    view = parse_query(f"{name}(X) :- r(X)")
    return AbstractPlan((AbstractSource(0, (SourceDescription(name, view),)),))


def duplicate_link_returns_early():
    graph = DominanceGraph()
    first, second = graph.add_plan(leaf("a")), graph.add_plan(leaf("b"))
    graph.add_link(first, second)
    graph.add_link(first, second)
    return bool(graph.remove_node(first))


def session_refuses(**kwargs):
    domain = movies()
    built = mediator.Mediator(domain.catalog, domain.source_facts)
    try:
        PipelinedSession(built, **kwargs)
    except (ReproError, ValueError):
        return True
    return False


def measure_names_sorted():
    domain = movies()
    names = QueryService(
        domain.catalog, domain.source_facts, measures={"z": LinearCost, "linear": LinearCost}
    ).measure_names
    return names == sorted(names)


def connect_disables_nagle():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with frontend.connect("127.0.0.1", listener.getsockname()[1]) as sock:
            return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


#: The entry of every row that does not name a killing test, by table.
def code_module(name):
    return CodeModule.from_source(textwrap.dedent(ANALYSIS_SOURCES[name]), f"{name}.py")


def lint_model(*names):
    return build_model(code_module(name) for name in names)


def module_facts(name):
    return concurrency_facts.extract_module(code_module(name))


def method_facts(name):
    """The facts of ``C.m`` in one of the sources below."""
    return module_facts(name).classes["C"].methods["m"]


def accessed(name):
    """``C.m``'s accessed attributes, each mapped to whether it was written."""
    return {access.attr: access.is_write for access in method_facts(name).accesses}


def findings(check, name):
    """The messages *check* reports on one source: a module, or its model."""
    subject = code_module(name) if check.__module__ == code_rules.__name__ else lint_model(name)
    return [diagnostic.message for diagnostic in check(subject)]


def resolves(name, caller, callee):
    model = lint_model(name)
    method = model.methods[caller]
    return any(model.resolve_call(method, call.callee) == callee for call in method.calls)


def skips_pycache():
    with tempfile.TemporaryDirectory() as root:
        os.mkdir(os.path.join(root, "__pycache__"))
        for path in ("a.py", os.path.join("__pycache__", "b.py")):
            open(os.path.join(root, path), "w").close()
        return len(analysis_runner.discover_python_files([root])) == 1


#: What the analyzer's probes lint: each source shows one mechanism's shape.
ANALYSIS_SOURCES = {
    "unknown_origin": """\
class C:
    def __init__(self, lock):
        self._lock = lock
""",
    "param_or": """\
class C:
    def __init__(self, a, b):
        self.x = a or b
""",
    "class_in_function": """\
class C:
    def m(self):
        class Inner:
            seen = self.count
""",
    "if_acquire": """\
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def m(self):
        if not self._lock.acquire(timeout=1):
            return
""",
    "stmt_acquire": """\
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def m(self):
        self._lock.acquire()
        self._lock.release()
""",
    "typed_local": """\
class C:
    def m(self):
        pass

def f():
    c = C()
    c.m()
""",
    "typed_local_lock": """\
import threading

class R:
    def __init__(self):
        self.cond = threading.Condition()

def f():
    run = R()
    with run.cond:
        pass
""",
    "subscript_store": """\
class C:
    def m(self, k):
        self._d[k] = 1
""",
    "method_lookup": """\
class C:
    def m(self):
        self.n()

    def n(self):
        pass
""",
    "lock_read": """\
class C:
    def m(self):
        return self._lock
""",
    "submit": """\
class C:
    def m(self):
        self.executor.submit(self.work)

    def work(self):
        pass
""",
    "func_target": """\
import threading

def helper():
    pass

class C:
    def m(self):
        threading.Thread(target=helper).start()
""",
    "subprocess_call": """\
import subprocess

def f():
    subprocess.run(["true"])
""",
    "lock_connect": """\
class C:
    def m(self):
        self._lock.connect()
""",
    "string_join": """\
class C:
    def m(self):
        self.names.join()
""",
    "bare_wait": """\
class C:
    def m(self):
        self._done.wait()
""",
    "bus_emit": """\
def f(bus):
    bus.emit("request.admitted")
""",
    "dup_class_a": """\
class D:
    pass
""",
    "dup_class_b": """\
class D:
    pass
""",
    "dup_function_a": """\
def g():
    pass
""",
    "dup_function_b": """\
def g():
    pass
""",
    "two_hop_types": """\
class W:
    pass

class M:
    def __init__(self, x):
        self.x = x

class A:
    def __init__(self, n):
        self.n = n
        self.m = M(self.n)

class Z:
    def __init__(self):
        self.w = W()
        self.a = A(self.w)
""",
    "untyped_middle": """\
class C:
    def __init__(self, dep):
        self.dep = dep

    def m(self):
        with self.dep.lock:
            pass
""",
    "bare_root": """\
def f(other):
    with other.lock:
        pass
""",
    "nested_qualname": """\
class C:
    def outer(self):
        def inner():
            pass

    def m(self):
        self.outer.inner()
""",
    "sibling_def": """\
class C:
    def m(self):
        def helper():
            pass

        def run():
            helper()
""",
    "module_function": """\
def g():
    pass

def f():
    g()
""",
    "nested_withs": """\
import threading

class C:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def m(self):
        with self._a_lock:
            with self._b_lock:
                pass
""",
    "three_lock_cycle": """\
import threading

class C:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()
        self._c_lock = threading.Lock()

    def take_a(self):
        with self._a_lock:
            pass

    def take_b(self):
        with self._b_lock:
            pass

    def take_c(self):
        with self._c_lock:
            pass

    def one(self):
        with self._a_lock:
            self.take_b()

    def two(self):
        with self._b_lock:
            self.take_c()

    def three(self):
        with self._c_lock:
            self.take_a()
""",
    "spawn_through_attribute": """\
import threading

class W:
    def run(self):
        pass

class S:
    def __init__(self):
        self.w = W()

    def start(self):
        threading.Thread(target=self.w.run).start()
""",
    "guarded_counter": """\
import threading

class Worker:
    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    def start(self):
        threading.Thread(target=self._run).start()

    def _run(self):
        with self._lock:
            self.count += 1

    def snapshot(self):
        with self._lock:
            return self.count
""",
    "reentry": """\
import threading

class Board:
    def __init__(self):
        self._lock = threading.Lock()

    def states(self):
        with self._lock:
            return 1

    def describe(self):
        with self._lock:
            return self.states()
""",
    "semaphore_io": """\
import threading

class Sender:
    def __init__(self, sock):
        self._semaphore = threading.Semaphore(4)
        self.sock = sock

    def send(self, data):
        with self._semaphore:
            self.sock.sendall(data)
""",
    "blocking_callee": """\
import threading

class Relay:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self.sock = sock

    def _push(self, data):
        self.sock.sendall(data)

    def send(self, data):
        with self._lock:
            self._push(data)
""",
    "unknown_event": """\
class S:
    def go(self):
        self.journal.emit("no.such.event")
""",
    "kwargs_emit": """\
class S:
    def go(self, extra):
        self.journal.emit("request.admitted", **extra)
""",
    "nested_class": """\
import threading

class Outer:
    def __init__(self):
        self._lock = threading.Lock()

    def m(self):
        with self._lock:
            self.x = 1

    class Inner:
        def peek(self):
            return self.x
""",
    "method_swap": """\
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def m(self):
        with self._lock:
            self.helper()

    def swap(self, fn):
        self.helper = fn
""",
    "receiver_call": """\
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def add(self, x):
        with self._lock:
            self._items.append(x)

    def peek(self):
        return self._items
""",
    "subscript_write": """\
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def put(self, k):
        with self._lock:
            self._d[k] = 1

    def peek(self):
        return self._d
""",
    "plan_parameter": """\
class O(PlanOrderer):
    def order(self, space):
        everything = list(space)
        yield from everything
""",
    "after_yield": """\
class O(PlanOrderer):
    def order(self, space):
        yield None
        rest = list(space.plans())
""",
    "delegating_materialiser": """\
class O(PlanOrderer):
    def order(self, space):
        ranked = list(space.plans())
        return self.order_spaces([ranked])
""",
    "eager_return": """\
class O(PlanOrderer):
    def order(self, space):
        return [max(space.plans())]
""",
    "bare_except": """\
def f(task):
    try:
        task()
    except:
        pass
""",
    "reraise": """\
def f(task, cleanup):
    try:
        task()
    except Exception:
        cleanup()
        raise
""",
    "sleep_in_function": """\
import time

def backoff():
    time.sleep(1)
""",
    "lock_swap": """\
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def reset(self):
        with self._lock:
            self._cond = threading.Condition()

    def peek(self):
        return self._cond
""",
    "plan_cache": """\
class PlanCache:
    def order(self, space):
        return list(space.plans())
""",
}


PROBES = {
    "analysis": {
        "a lock-named attribute of unknown origin gets kind `unknown`":
            lambda: bool(lint_model("unknown_origin").kinds),
        "queue, event and lock attributes are exempt from CON002 (`THREADSAFE_CTORS`, `threadsafe_attrs`)":
            lambda: "threadsafe_attrs" in fields(concurrency_facts.ClassFacts),
        "their `or`/ternary alternatives (`self.x = x or y`)":
            lambda: bool(module_facts("param_or").classes["C"].param_attrs),
        "a class defined in a function is skipped":
            lambda: "count" not in accessed("class_in_function"),
        "`if not lock.acquire(...)` acquisitions":
            lambda: bool(lint_model("if_acquire").may_acquire[("C", "m")]),
        "statement-level `acquire()` / `release()`":
            lambda: bool(lint_model("stmt_acquire").may_acquire[("C", "m")]),
        "local constructor types (`c = C(...)`)":
            lambda: resolves("typed_local", ("", "f"), ("C", "m")),
        "locks through a typed local (`run.cond` → `_SessionRun.cond`)":
            lambda: "R.cond" in lint_model("typed_local_lock").may_acquire[("", "f")],
        "a subscript store through `self` is a write (`self._d[k] = v`)":
            lambda: accessed("subscript_store").get("_d") is True,
        "a method lookup (`self.m()`) is not an access":
            lambda: "n" not in accessed("method_lookup"),
        "a lock-named attribute is not an access": lambda: "_lock" not in accessed("lock_read"),
        "`executor.submit(fn)` spawns": lambda: bool(method_facts("submit").spawns),
        'a module-function spawn target (`("func", name)`)':
            lambda: bool(method_facts("func_target").spawns),
        "call arguments that are constructor calls (`arg_ctors`) and the attribute types they taught":
            lambda: "arg_ctors" in fields(concurrency_facts.CallSite),
        "callee: a typed local (`c.m()`)": lambda: resolves("typed_local", ("", "f"), ("C", "m")),
        "`subprocess` blockers":
            lambda: bool(module_facts("subprocess_call").functions["f"].blocking),
        "`connect` on a lock-named receiver is not I/O":
            lambda: not method_facts("lock_connect").blocking,
        "a join receiver must look like a thread handle (name fragment, or a local `Thread`/`Process`)":
            lambda: not method_facts("string_join").blocking,
        "timeout-less `wait()` blockers, exempt under their own condition":
            lambda: bool(method_facts("bare_wait").blocking),
        "only a receiver named like a journal emits": lambda: not module_facts("bus_emit").emits,
        "an emit with `**kwargs` is dynamic (`EmitSite.has_dynamic`)":
            lambda: "has_dynamic" in fields(concurrency_facts.EmitSite),
        "`EmitSite.receiver`": lambda: "receiver" in fields(concurrency_facts.EmitSite),
        "`ModuleFacts.module`": lambda: "module" in fields(concurrency_facts.ModuleFacts),
        "the locks held at an acquisition (`Acquisition.held`)":
            lambda: "held" in fields(concurrency_facts.Acquisition),
        "the locks held at an access (`Access.held`)":
            lambda: "held" in fields(concurrency_facts.Access),
        "a blocker's receiver, exempt from CON003 when it is a held lock (`BlockingCall.receiver`)":
            lambda: "receiver" in fields(concurrency_facts.BlockingCall),
        "an ambiguous class name is dropped":
            lambda: lint_model("dup_class_a", "dup_class_b").class_of("D") is None,
        "an ambiguous function name is dropped":
            lambda: "g" not in lint_model("dup_function_a", "dup_function_b").functions,
        "type inference runs to a fixpoint (five rounds)":
            lambda: lint_model("two_hop_types").classes["M"].attr_types.get("x") == "W",
        "constructor-site lock aliasing (`C(lock=self._lock)`) and `_UnionFind`":
            lambda: has(concurrency_model, "_UnionFind"),
        "a known kind overrides `unknown` for one node": None,
        "a lock chain through an untyped attribute is an opaque class-local node":
            lambda: bool(lint_model("untyped_middle").may_acquire[("C", "m")]),
        "a lock chain rooted at a local or module name is an opaque node":
            lambda: bool(lint_model("bare_root").may_acquire[("", "f")]),
        "`node_kind`'s fallback from a node's name (`semaphore`, `cond`)":
            lambda: has(concurrency_model.ProgramModel, "node_kind"),
        "call resolution: `self.a.b()` naming a nested def":
            lambda: resolves("nested_qualname", ("C", "m"), ("C", "outer.inner")),
        "call resolution: a typed local (`c.m()`)":
            lambda: resolves("typed_local", ("", "f"), ("C", "m")),
        "call resolution: a sibling or enclosing nested def by bare name":
            lambda: resolves("sibling_def", ("C", "m.run"), ("C", "m.helper")),
        "call resolution: a module-level function by bare name":
            lambda: resolves("module_function", ("", "f"), ("", "g")),
        "may-block summaries (`ProgramModel.may_block`)":
            lambda: hasattr(lint_model("module_function"), "may_block"),
        "lock-order edges from direct nesting (`with A: with B:`)":
            lambda: bool(lint_model("nested_withs").edges),
        "up to three witnesses per edge":
            lambda: "witnesses" in fields(concurrency_model.LockOrderEdge),
        "cycles through three to six locks":
            lambda: bool(lint_model("three_lock_cycle").lock_cycles()),
        "cycle canonicalisation and de-duplication": None,
        "a spawn through an attribute makes another class's method an entry":
            lambda: "W" in concurrency_rules._thread_entries(lint_model("spawn_through_attribute")),
        "a common lock on both sides clears a CON002 conflict":
            lambda: not findings(concurrency_rules.check_unguarded_shared_state, "guarded_counter"),
        "CON001's own message for a self-deadlock":
            lambda: "non-reentrant" in " ".join(findings(concurrency_rules.check_potential_deadlock, "reentry")),
        "CON003: semaphores are not mutexes (`MUTEX_KINDS`)":
            lambda: not findings(concurrency_rules.check_blocking_under_lock, "semaphore_io"),
        "CON003: blocking reached through a call made under a lock, de-duplicated per line":
            lambda: bool(findings(concurrency_rules.check_blocking_under_lock, "blocking_callee")),
        "CON004: an event missing from `EVENT_SCHEMA`":
            lambda: bool(findings(concurrency_contracts.check_journal_contract, "unknown_event")),
        "CON004: an emit with `**kwargs` is skipped":
            lambda: not findings(concurrency_contracts.check_journal_contract, "kwargs_emit"),
        "CON004: `request_id` never counts as missing": None,
        "COD001: a nested class is skipped":
            lambda: not findings(code_rules.check_lock_discipline, "nested_class"),
        "COD001: a method lookup (`self.m()`) is not state":
            lambda: not findings(code_rules.check_lock_discipline, "method_swap"),
        "COD001: a call on an attribute (`self._d.get(k)`) writes it":
            lambda: bool(findings(code_rules.check_lock_discipline, "receiver_call")),
        "COD001: a subscript store (`self._d[k] = v`) writes the attribute":
            lambda: bool(findings(code_rules.check_lock_discipline, "subscript_write")),
        "COD001: lock-named attributes are not state":
            lambda: not findings(code_rules.check_lock_discipline, "lock_swap"),
        "COD002: only classes whose base ends in `Orderer`":
            lambda: not findings(code_rules.check_lazy_orderer_contract, "plan_cache"),
        "COD002: over a plan-space parameter (`list(space)`)":
            lambda: bool(findings(code_rules.check_lazy_orderer_contract, "plan_parameter")),
        "COD002: only before the first `yield` (`first_yield_line`)":
            lambda: not findings(code_rules.check_lazy_orderer_contract, "after_yield"),
        "COD002: only generators are checked (`has_yield`)":
            lambda: not findings(code_rules.check_lazy_orderer_contract, "delegating_materialiser"),
        "COD002: a non-generator must delegate to another `order*()` (`_delegates`)":
            lambda: bool(findings(code_rules.check_lazy_orderer_contract, "eager_return")),
        "COD004: a bare `except:`":
            lambda: bool(findings(code_rules.check_broad_except, "bare_except")),
        "COD004: a handler that re-raises is exempt":
            lambda: not findings(code_rules.check_broad_except, "reraise"),
        "COD006 and COD007 messages name the enclosing function (`_enclosing_function`)":
            lambda: "backoff()" in " ".join(findings(code_rules.check_bare_sleep, "sleep_in_function")),
        "COD007: Windows path separators in the allow-list":
            lambda: not list(code_rules.check_library_print(CodeModule.from_source('print("x")\n', "src\\repro\\cli.py"))),
        "`Severity` (two levels, counted in the summary line)":
            lambda: has(analysis_diagnostics, "Severity"),
        "`Diagnostic.fix_hint`": lambda: "fix_hint" in fields(analysis_diagnostics.Diagnostic),
        "`Diagnostic.data`": lambda: "data" in fields(analysis_diagnostics.Diagnostic),
        "the rule registry: `Rule`, `RULES`, the `@rule` decorator, slugs, summaries":
            lambda: importlib.util.find_spec("repro.analysis.registry") is not None,
        "rule selection: `select_rules`, `Rule.matches`, `run_lint(select=, ignore=)`":
            lambda: bool({"select", "ignore"} & params(analysis_runner.run_lint)),
        "inline `# lint: allow[...]` suppressions (`CodeModule.allowed`, `_collect_allows`)":
            lambda: has(CodeModule, "allowed", "allows"),
        "`CodeModule.source`": lambda: "source" in fields(CodeModule),
        "scenario names: `builtin_scenarios(names)`, `run_lint(scenario_names=)`":
            lambda: "scenario_names" in params(analysis_runner.run_lint),
        "discovery skips `__pycache__` and `.git`": lambda: skips_pycache(),
    },
    "cluster": {
        "`ConsistentHashRing.add` / `remove`": lambda: has(ConsistentHashRing, "add", "remove"),
        "the ring's `__len__`, `__contains__`, `__repr__` and `shards`":
            lambda: own(ConsistentHashRing, "__len__", "__contains__", "__repr__", "shards"),
        "`ConsistentHashRing.shard_for`": lambda: has(ConsistentHashRing, "shard_for"),
        "`ConsistentHashRing(replicas=)`":
            lambda: "replicas" in params(ConsistentHashRing) or hashing.REPLICAS != 64,
        "the ring's empty-ring refusal": lambda: raises(ConsistentHashRing, []),
        "`_Backlog`, `RouterTCPServer.backlog()` / `shard_counter()`":
            lambda: has(router, "_Backlog") or has(RouterTCPServer, "backlog", "shard_counter"),
        "the router's `config` / `registry` / `merged_export` fallbacks": router_falls_back,
        "`ClusterConfig`": lambda: has(spec, "ClusterConfig"),
        "`ClusterConfig.host`": lambda: "host" in knobs(),
        "`WorkerSpec.host`, `supervisor.host_of`":
            lambda: "host" in fields(WorkerSpec) or has(ClusterSupervisor, "host_of"),
        "`ClusterConfig.workers`": lambda: "workers" in knobs(),
        "`probe_interval_s`":
            lambda: "probe_interval_s" in knobs() or supervisor.PROBE_INTERVAL_S != 0.25,
        "`failure_threshold`":
            lambda: "failure_threshold" in knobs() or supervisor.FAILURE_THRESHOLD != 3,
        "`cooldown_s`": lambda: "cooldown_s" in knobs() or supervisor.COOLDOWN_S != 1.0,
        "`max_restarts_per_shard`":
            lambda: "max_restarts_per_shard" in knobs()
            or supervisor.MAX_RESTARTS_PER_SHARD != 5,
        "`WorkerHandle.pid`": lambda: "pid" in vars(handle()),
        "the second `breaker.reset()` in `_handle_death`": None,
        "`ClusterSupervisor.__enter__` / `__exit__`": lambda: has(ClusterSupervisor, "__enter__"),
        "`Cluster.__enter__` / `__exit__`": lambda: has(Cluster, "__enter__"),
        "`Cluster.port`": lambda: has(Cluster, "port"),
        "the double-start refusals": None,
        "`tag_line`'s pass-through branch": lambda: tag_line(b"garbage\n", 1) == b"garbage\n",
        "the `repro.cluster` re-exports":
            lambda: has(repro.cluster, "Cluster", "ConsistentHashRing"),
        "`Cluster.merged_registry` / `merged_export`":
            lambda: has(Cluster, "merged_registry", "merged_export"),
        "`worker_main`'s not-main-thread fallback": None,
        "`worker_main`'s `KeyboardInterrupt` catch": None,
        "`Cluster.start(host=)`": lambda: "host" in params(Cluster.start),
    },
    "observability": {
        "`SpanStats.absorb` skips a zero-call payload": zero_call_payload_skipped,
        "the first bucket's lower edge (0, or a negative min)": negative_first_bucket_edge,
        "`QueryService.prometheus_text`'s own merge of a separate resilience registry": None,
        "`run_plan` turns an abstract plan into a `QueryPlan`": None,
        "`on_emit`'s unprocessed-plan refusal": None,
        "`record_batch` under the registry lock": None,
        "the mediator copies the source facts": mediator_copies_facts,
        "`SessionReport.as_dict` copies its lists": report_copies_lists,
        "the journal's in-memory event list":
            lambda: has(journal.EventJournal, "events")
            or own(journal.EventJournal(stream=io.StringIO()), "_events"),
        "`EventJournal(capacity=)` and `dropped`":
            lambda: "capacity" in params(journal.EventJournal)
            or has(journal.EventJournal, "dropped"),
        "`EventJournal.events()`": lambda: has(journal.EventJournal, "events"),
        "`EventJournal.request_ids()`": lambda: has(journal.EventJournal, "request_ids"),
        "`EventJournal.validate()`": lambda: has(journal.EventJournal, "validate"),
        "`EventJournal.to_jsonl()` / `write()`":
            lambda: has(journal.EventJournal, "to_jsonl", "write"),
        "`EventJournal.reset()`": lambda: has(journal.EventJournal, "reset"),
        "`EventJournal(clock=)`": lambda: "clock" in params(journal.EventJournal),
        "the journals' `__repr__`":
            lambda: own(journal.EventJournal, "__repr__") or own(journal.BoundJournal, "__repr__"),
        "`Mediator(tracer=)`, `Mediator.tracer` and the `mediator.*` spans":
            lambda: "tracer" in params(mediator.Mediator) or has(mediator.Mediator, "tracer"),
        "the run lends its tracer to an orderer without one": run_lends_its_tracer,
        "the lent tracer is taken back in `close`": run_lends_its_tracer,
        "`Mediator.answer_all`": lambda: has(mediator.Mediator, "answer_all"),
        "`service.plans_pipelined`": lambda: "service.plans_pipelined" in pipelined_run()[0],
        "the `service.reformulate` span":
            lambda: any("service.reformulate" in path for path in pipelined_run()[1]),
        "the `service.worker.execute` span":
            lambda: any("service.worker.execute" in path for path in pipelined_run()[1]),
        "`MetricRegistry.to_csv()` / `write_csv()`":
            lambda: has(metrics.MetricRegistry, "to_csv", "write_csv"),
        "`MetricRegistry.reset()`": lambda: has(metrics.MetricRegistry, "reset"),
        "`MetricRegistry.names()` / `__len__` / `__contains__`":
            lambda: has(metrics.MetricRegistry, "names", "__len__", "__contains__"),
        "`Histogram.time()` and `_HistogramTimer`":
            lambda: has(metrics.Histogram, "time") or has(metrics, "_HistogramTimer"),
        "`Tracer.paths()` / `reset()`": lambda: has(tracing.Tracer, "paths", "reset"),
        "`Tracer.get()` / `__contains__`": lambda: has(tracing.Tracer, "get", "__contains__"),
        "`Span.set_attribute`": lambda: has(tracing.Span, "set_attribute"),
        "span attributes (`span(name, **attributes)`)":
            lambda: "attributes" in params(tracing.Tracer.span),
        "`namespace=` on `sanitize_metric_name`, `render_export`, `render_registry`":
            lambda: any("namespace" in params(f) for f in (
                prometheus.sanitize_metric_name, prometheus.render_export,
                prometheus.render_registry,
            )),
        "the leading-digit guard in `sanitize_metric_name`":
            lambda: prometheus.sanitize_metric_name("9a") != "repro_9a",
        "`render_registry(extra_gauges=)`":
            lambda: "extra_gauges" in params(prometheus.render_registry),
        "context-free measures use token 0 and build no table":
            lambda: has(caching.CachingUtilityMeasure, "_context_token"),
        "a context folded by another cache starts over":
            lambda: has(ExecutionContext(), "prefix_cursor"),
        "a context remembers how far it was folded":
            lambda: has(ExecutionContext(), "prefix_cursor"),
        "tokens interned under the lock":
            lambda: has(caching.CachingUtilityMeasure(LinearCost()), "_prefixes"),
        "`CachingUtilityMeasure.clear()`": lambda: has(caching.CachingUtilityMeasure, "clear"),
        "`utility_cache.concrete_hits` / `abstract_hits`":
            lambda: cache_registers("utility_cache.concrete_hits", "utility_cache.abstract_hits"),
        "`CachingUtilityMeasure.__repr__`": lambda: own(caching.CachingUtilityMeasure, "__repr__"),
        "`SimulationReport.completion_times()`":
            lambda: has(simulator.SimulationReport, "completion_times"),
        "`ExecutionSimulator.expected_plan_cost()`":
            lambda: has(simulator.ExecutionSimulator, "expected_plan_cost"),
        "`PlanRun.output_estimate` / `cache_hits`":
            lambda: bool({"output_estimate", "cache_hits"} & fields(simulator.PlanRun)),
        "`Mediator(orderer_factory=)`": lambda: "orderer_factory" in params(mediator.Mediator),
        "the `repro.observability` / `repro.execution` re-exports beyond what `repro`, "
        "`src/`, `examples/` and the docs import":
            lambda: has(repro.observability, "EventJournal", "render_export")
            or has(repro.execution, "ExecutionSimulator", "materialize_instances"),
    },
    "ordering": {
        "the version bump in `_invalidate_intervals`": None,
        "the champion's tie-break (`>` on `(lo, key)`)": None,
        "the `nil_nondominated` rescan and `if pending: continue`": None,
        "step 2.a's dominated-node skip": None,
        "step 2.a's unknown-interval check": None,
        "the champion's validity check": None,
        "step 2.b's dominated-target skip": None,
        "`add_link`'s duplicate-link early return": duplicate_link_returns_early,
        "`DominanceGraph.has_link` / `link_count` / `__contains__`":
            lambda: has(DominanceGraph, "has_link", "link_count", "__contains__"),
        "`PlanOrderer.order_spaces_list`, `timed_ordering`":
            lambda: has(base.PlanOrderer, "order_spaces_list") or has(base, "timed_ordering"),
        "`AdaptiveOrderer(epoch=None)` pass-through and `cache=`":
            lambda: "cache" in params(adaptive.AdaptiveOrderer)
            or inspect.signature(adaptive.AdaptiveOrderer).parameters["epoch"].default
            is not inspect.Parameter.empty,
        "`Interval.contains_interval` / `intersect` / `strictly_dominates` / `overlaps` "
        "/ `hull` / `widen`":
            lambda: has(Interval, "contains_interval", "intersect", "strictly_dominates",
                        "overlaps", "hull", "widen"),
        "`UtilityMeasure.slots_of`": lambda: has(UtilityMeasure, "slots_of"),
        "`add`'s early stop when nothing is fresh": None,
        "`box_union_sides` / `box_contains` / `box_intersect`, "
        "`DisjointBoxUnion.intersects` / `pieces` / `dimensions` / `copy`":
            lambda: has(boxes, "box_union_sides", "box_contains", "box_intersect")
            or has(DisjointBoxUnion, "intersects", "pieces", "dimensions", "copy"),
        "`_covered`'s bare-context fallback": lambda: has(CoverageUtility, "_covered"),
        "the caching measures' link witnesses":
            lambda: any(
                own(cls, "has_independent_witness", "all_members_independent")
                for cls in (cost.BindJoinCost, monetary.MonetaryCostPerTuple)
            ),
        "`_search`'s empty-slot shortcut": None,
        "`exported_position_map`": lambda: has(inverse_rules, "exported_position_map"),
        "unsafe rewritings are discarded": None,
        "`combine_mcds`' unused `by_min` index": None,
        "`MCD.phi_dict`": lambda: has(minicon.MCD, "phi_dict"),
        "semi-naive: skip a rule with no delta predicate": None,
        "`evaluate_program(max_rounds=)`, `answer_query(drop_skolems=)`":
            lambda: "max_rounds" in params(engine.evaluate_program)
            or "drop_skolems" in params(engine.answer_query),
        "`Program.idb_predicates` / `edb_predicates` / `rules_for` / `is_recursive` / "
        "`extended`, `Rule.head_has_function_terms`":
            lambda: has(program.Program, "idb_predicates", "edb_predicates", "rules_for",
                        "is_recursive", "extended")
            or has(program.Rule, "head_has_function_terms"),
        "`ConjunctiveQuery.distinguished_variables` / `existential_variables` / "
        "`freeze`, `make_query`":
            lambda: has(query.ConjunctiveQuery, "distinguished_variables",
                        "existential_variables", "freeze")
            or has(query, "make_query"),
        "`Atom.rename` / `constants` / `is_ground`, `is_ground`, `fresh_variables`":
            lambda: has(terms.Atom, "rename", "constants", "is_ground")
            or has(terms, "is_ground", "fresh_variables"),
        "`are_equivalent`": lambda: has(containment, "are_equivalent"),
        "`match_atom`": lambda: has(unification, "match_atom"),
        "the sub-package re-exports beyond what `repro`, `src/` and `examples/` import":
            lambda: any(
                name in importlib.import_module(f"repro.{package}").__all__
                for package, name in (
                    ("ordering", "AnyKOrderer"), ("ordering", "drips_search"),
                    ("utility", "DisjointBoxUnion"), ("reformulation", "generate_mcds"),
                    ("datalog", "evaluate_program"),
                )
            ),
    },
    "resilience": {
        "`FlakyBackend` (`service/backends.py`)":
            lambda: has(repro.service.backends, "FlakyBackend"),
        "PEP 562 lazy chaos names in `resilience/__init__.py`":
            lambda: own(repro.resilience, "__getattr__") or has(repro.resilience, "ChaosBackend"),
        "`FaultProfile.truncate_to`": lambda: "truncate_to" in fields(FaultProfile),
        "`truncating` bundled profile": lambda: "truncating" in BUNDLED_PROFILES,
        "`slow` bundled profile": lambda: "slow" in BUNDLED_PROFILES,
        "`FaultProfile.compose`, `ChaosProfile.compose`":
            lambda: has(FaultProfile, "compose") or has(ChaosProfile, "compose"),
        "`ChaosProfile.with_scaled_latency`": lambda: has(ChaosProfile, "with_scaled_latency"),
        "`ChaosProfile.faulted_sources`": lambda: has(ChaosProfile, "faulted_sources"),
        "`ChaosBackend.attempts_for`": lambda: has(ChaosBackend, "attempts_for"),
        "`probe_budget` (breaker and board)":
            lambda: "probe_budget" in params(CircuitBreaker) | params(BreakerBoard),
        "`BreakerBoard.open_sources`": lambda: has(BreakerBoard, "open_sources"),
        "`BreakerBoard.reset`": lambda: has(BreakerBoard, "reset"),
        "`SourceHealthTracker(alpha=)`":
            lambda: "alpha" in params(SourceHealthTracker) or health.ALPHA != 0.2,
        "latency EWMA and `resilience.health.<source>.latency_s`": latency_is_tracked,
        "`SourceHealthTracker.reset`": lambda: has(SourceHealthTracker, "reset"),
        "`HealthAwareMeasure(overrides=)`": lambda: "overrides" in params(HealthAwareMeasure),
        "`HealthAwareMeasure.frozen`, `health_measure(frozen=)`":
            lambda: has(HealthAwareMeasure, "frozen")
            or "frozen" in params(ResilienceManager.health_measure),
        "`ResilienceManager(health_aware=)`":
            lambda: "health_aware" in params(ResilienceManager),
        "`ResilienceManager(graceful=)`": lambda: "graceful" in params(ResilienceManager),
    },
    "service": {
        "`CancellationToken.__repr__`": lambda: own(CancellationToken, "__repr__"),
        "`Deadline.__repr__`": lambda: own(Deadline, "__repr__"),
        "`RetryPolicy.base_s`": lambda: "base_s" in fields(RetryPolicy),
        "`RetryPolicy.factor`": lambda: "factor" in fields(RetryPolicy),
        "`RetryPolicy.cap_s`": lambda: "cap_s" in fields(RetryPolicy),
        "`RetryPolicy.jitter` (decorrelated jitter)": lambda: "jitter" in fields(RetryPolicy),
        "`RetryPolicy.jitter_seed`": lambda: "jitter_seed" in fields(RetryPolicy),
        "`delay(salt=)`, the request id as jitter salt":
            lambda: "salt" in params(RetryPolicy.delay),
        "the backoff-parameter refusal": None,
        "the jitter-range refusal": None,
        "`delay(0)`'s refusal": lambda: raises(RetryPolicy().delay, 0),
        "`InMemoryBackend.__repr__`": lambda: own(InMemoryBackend, "__repr__"),
        "the producer's put gives up once the session stops (`put_abortable`)": None,
        "the producer leaves `_DONE` for the workers": None,
        "a worker polling an empty queue leaves once stopped": None,
        "`PipelinedSession.run`": lambda: has(PipelinedSession, "run"),
        "`PipelinedSession(policy=)`": lambda: "policy" in params(PipelinedSession),
        "`PipelinedSession`'s own `executor_workers` check":
            lambda: session_refuses(executor_workers=0),
        "`PipelinedSession`'s own `queue_depth` check": lambda: session_refuses(queue_depth=0),
        "`ServiceConfig.admission_timeout_s`":
            lambda: "admission_timeout_s" in fields(ServiceConfig),
        "`RequestResult.ok`": lambda: has(RequestResult, "ok"),
        "`RequestResult.deadline_exceeded`": lambda: has(RequestResult, "deadline_exceeded"),
        "`measure_names` is sorted": measure_names_sorted,
        "the missing-report check after the stream": None,
        "the handler disables Nagle": None,
        "`ServiceTCPServer` reuses its address":
            lambda: vars(frontend.ServiceTCPServer).get("allow_reuse_address") is True,
        "`start_server` polls every 50 ms": None,
        "`connect` disables Nagle": connect_disables_nagle,
        "`connect`'s reads time out": None,
        "`MetricsHTTPServer` reuses its address":
            lambda: vars(metricsd.MetricsHTTPServer).get("allow_reuse_address") is True,
        "`MetricsHTTPServer`'s daemon handler threads":
            lambda: vars(metricsd.MetricsHTTPServer).get("daemon_threads") is True,
        "`start_metrics_server` polls every 50 ms": None,
        "the `repro.service` re-exports": lambda: has(service_package, "QueryService"),
    },
    "workloads": {
        "`random_scenario` redraws a refused view": None,
        "one drawn `SourceStats` per source name": None,
        "`OverlapModel.full_mask`": lambda: has(OverlapModel, "full_mask"),
        "`OverlapModel.has_extension`": lambda: has(OverlapModel, "has_extension"),
        "`OverlapModel.set_extension`": lambda: has(OverlapModel, "set_extension"),
        "`OverlapModel.coverage_fraction`": lambda: has(OverlapModel, "coverage_fraction"),
        "`OverlapModel.overlap_count`": lambda: has(OverlapModel, "overlap_count"),
        "`OverlapModel.overlap_fraction`": lambda: has(OverlapModel, "overlap_fraction"),
        "`OverlapModel.jaccard`": lambda: has(OverlapModel, "jaccard"),
        "`OverlapModel.disjoint`": lambda: has(OverlapModel, "disjoint"),
        "`SourceStats.with_tuples`": lambda: has(SourceStats, "with_tuples"),
        "`Catalog.has_relation`": lambda: has(Catalog, "has_relation"),
        "`SourceDescription.covers_predicate`":
            lambda: has(SourceDescription, "covers_predicate"),
        "`SourceDescription.head_variables`": lambda: has(SourceDescription, "head_variables"),
        "`empty_bucket_space()`": lambda: has(random_lav, "empty_bucket_space"),
        "`SyntheticParams.tuples_per_element`":
            lambda: "tuples_per_element" in fields(SyntheticParams),
        "`SyntheticParams.mutation_rate`": lambda: "mutation_rate" in fields(SyntheticParams),
        "`SyntheticDomain.params`": lambda: "params" in fields(Domain),
        "`random_scenario(facts_per_relation=)`":
            lambda: "facts_per_relation" in params(random_lav.random_scenario),
        "`random_scenario(source_completeness=)`":
            lambda: "source_completeness" in params(random_lav.random_scenario),
        "`random_scenario(domain_size=)`":
            lambda: "domain_size" in params(random_lav.random_scenario),
        "`ordering_scenario(min_plans=)`":
            lambda: "min_plans" in params(random_lav.ordering_scenario),
        "`ordering_scenario(universe_bits=)`":
            lambda: "universe_bits" in params(random_lav.ordering_scenario),
        "`ordering_scenario(**scenario_kwargs)`":
            lambda: params(random_lav.ordering_scenario) != {"seed"},
        "`fuzz_ordering_space(universe_bits=)`":
            lambda: "universe_bits" in params(random_lav.fuzz_ordering_space),
        "`FuzzSpace.describe()`": lambda: has(Domain, "describe"),
        "`FuzzSpace.fee_profile` / `seed`": lambda: bool({"fee_profile", "seed"} & fields(Domain)),
        "`CameraDomain.groups`": lambda: "groups" in fields(Domain),
        "`PanelResult.series`": lambda: has(harness.PanelResult, "series"),
        "`PanelResult.format_breakdown`": lambda: has(harness.PanelResult, "format_breakdown"),
        "`experiments --breakdown` and `breakdown_spec`":
            lambda: has(figure6, "breakdown_spec") or "--breakdown" in help_text("experiments"),
        "`experiments --metrics-out` and `PanelResult.as_dict`":
            lambda: "--metrics-out" in help_text("experiments")
            or has(harness.PanelResult, "as_dict"),
        "`PanelRow.concrete_evaluations` / `abstract_evaluations`":
            lambda: bool({"concrete_evaluations", "abstract_evaluations"}
                         & fields(harness.PanelRow)),
        "`PanelRow.cache_hits` / `cache_misses`":
            lambda: bool({"cache_hits", "cache_misses"} & fields(harness.PanelRow)),
        "`PanelRow.plans_returned`": lambda: "plans_returned" in fields(harness.PanelRow),
        "`counts._stats` / `_counts`' own seeds × algorithms loop (now `run_panel`'s)":
            lambda: has(counts, "_stats"),
        "`cli._make_measure` (now `Domain.measure`)": lambda: has(cli, "_make_measure"),
        "`_cmd_lint`'s own closed-pipe handler (now `main`'s)": None,
        "`lint --list-rules`": lambda: "--list-rules" in help_text("lint"),
        "`--select` / `--ignore` split on commas":
            lambda: "--select" in help_text("lint") or "--ignore" in help_text("lint"),
        "`lint --workload`": lambda: "--workload" in help_text("lint"),
        "`builtin_scenarios`' unknown-scenario refusal":
            lambda: "names" in params(analysis_runner.builtin_scenarios),
    },
}

ROWS = [
    (table, row, probe)
    for table, doc in TABLES.items()
    for row, probe in probes_for(
        read_table((DOCS / doc).read_text(encoding="utf-8")), PROBES[table]
    )
]


@pytest.mark.parametrize(
    "row, probe",
    [(row, probe) for _, row, probe in ROWS],
    ids=[f"{table}: {row.mechanism}" for table, row, _ in ROWS],
)
def test_the_verdict_matches_the_tree(row, probe):
    if probe is not None:  # the row says why nothing can probe it
        assert probe() == row.kept


# -- the reader's own test -------------------------------------------------------

TABLE = """
{heading}

| mechanism | seeded no-op | tier-1 with the no-op | verdict |
|---|---|---|---|
{rows}
"""


def table(*rows):
    return read_table(TABLE.format(heading=HEADING, rows="\n".join(rows)))


class TestTheReader:
    def test_a_kept_row_is_probed_by_its_test(self):
        [(row, probe)] = probes_for(table(
            "| a | removed | fails, first `service/test_policy.py::TestDeadline"
            "::test_negative_budget_rejected` | kept |"
        ), {})
        assert row.kept and probe()

    @pytest.mark.parametrize("test_id", [
        "service/test_polcy.py::TestDeadline::test_negative_budget_rejected",
        "service/test_policy.py::TestDeadline::test_negative_budget_refused",
        "service/test_policy.py::TestDeadline",
        "service/test_session.py::TestBudgets::test_first_k_answers_stops_early[threaded]",
    ])
    def test_a_test_id_tier1_does_not_collect_fails(self, test_id):
        [(row, probe)] = probes_for(table(f"| a | removed | fails, first `{test_id}` | kept |"), {})
        assert not probe()

    def test_cases_come_from_marks_and_fixture_params(self):
        for test_id in (
            "service/test_session.py::TestBudgets::test_first_k_answers_stops_early[inline]",
            "service/test_wire_frames.py::TestFrames::"
            "test_oversized_frame_is_refused_and_the_connection_closed[worker]",
        ):
            assert collected(*TEST_ID.search(f"`{test_id}`").groups())

    def test_a_row_with_no_probe_entry_is_refused(self):
        for row in ("| a | removed | passes | deleted |", "| a | removed | passes | kept |"):
            with pytest.raises(AuditTableError, match="no probe entry"):
                probes_for(table(row), {})

    def test_a_probe_entry_with_no_row_is_refused(self):
        with pytest.raises(AuditTableError, match="without a row"):
            probes_for(table("| a | removed | passes | deleted |"),
                       {"a": lambda: False, "b": lambda: False})

    def test_a_none_entry_must_say_why(self):
        with pytest.raises(AuditTableError, match="says not why"):
            probes_for(table("| a | removed | passes | deleted |"), {"a": None})
        probes_for(table("| a | removed | passes | deleted; no probe: unnamed |"), {"a": None})

    def test_a_deleted_row_whose_name_is_present_fails(self):
        [(row, probe)] = probes_for(
            table("| `Deadline.expired` | removed | passes | deleted |"),
            {"`Deadline.expired`": lambda: has(Deadline, "expired")},
        )
        assert probe() != row.kept

    def test_a_table_of_another_shape_is_refused(self):
        with pytest.raises(AuditTableError, match="cells"):
            table("| a | removed | passes |")
        with pytest.raises(AuditTableError, match="verdict"):
            read_table(TABLE.replace("| verdict |", "| |").format(heading=HEADING, rows=""))
