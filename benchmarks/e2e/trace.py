"""The traced run: per-layer numbers, measured from outside.

Nothing under ``src/`` knows about this benchmark, so layers are timed
by benchmark-owned proxies on public seams: a :class:`Mediator`
subclass around ``reformulate`` / ``check_soundness`` /
``execute_query``, an orderer proxy around every resumption of
``order(...)``, a delegating utility measure around ``evaluate`` /
``evaluate_slots``, and timed calls to the protocol's decode and encode
functions.  Every timed call is a span ``{name, start, end, parent,
request}`` kept in memory; a layer's self time is its spans' duration
minus the part their child spans cover.

The traced pass is sequential (``Mediator.answer``).  Beside it, request
by request so that machine drift hits all alike, run the same request
through plain ``Mediator.answer`` (tracing overhead), through
``QueryService.execute`` (what pipelining adds or saves), and through
``QueryService.execute`` with one operator channel on at a time (what
each channel costs).  Short wire rounds give the client-side and
server-process numbers.
"""

from __future__ import annotations

import json
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Optional, Sequence

from repro.datalog.parser import parse_query
from repro.errors import ReproError
from repro.execution.mediator import AnswerBatch, Mediator
from repro.observability.journal import EventJournal
from repro.ordering.adaptive import AdaptiveOrderer
from repro.ordering.base import PlanOrderer
from repro.reformulation.buckets import build_buckets
from repro.service import protocol
from repro.service.loadgen import percentile
from repro.service.server import ORDERER_TABLE, QueryRequest, resolve_orderer_name
from repro.utility.base import ExecutionContext, PlanLike, Slots, UtilityMeasure
from repro.utility.intervals import Interval

from benchmarks.e2e.measure import median, run_round
from benchmarks.e2e.oracle import Checker
from benchmarks.e2e.server import out_dir
from benchmarks.e2e.workloads import Request, Workload, make_service

#: Span names: the module a layer lives in.  ``request`` is the root of
#: one request's tree; ``datalog.parser`` stands alone (``decode``
#: already parses, so timing it inside the tree would count it twice).
REQUEST = "request"
DECODE = "service.protocol.decode"
RESOLVE = "service.server"  # shared measure + orderer, as QueryService resolves them
PARSE = "datalog.parser"
MEDIATOR = "execution.mediator"
BUCKETS = "reformulation.buckets"
ORDERING = "ordering"
UTILITY = "utility"
SOUNDNESS = "reformulation.soundness"
ENGINE = "execution.engine"
ENCODE = "service.protocol.encode"

#: The orderers compared on the workload's own space, beside the served one.
COMPARED_ORDERERS = ("streamer", "idrips", "pi", "anyk", "greedy")

#: Largest space the exhaustive-style orderers (all but any-k and greedy)
#: are run on; beyond it their single number would cost seconds per run.
COMPARE_SPACE_LIMIT = 10_000

#: Every per-layer metric and its unit (the BENCHMARK.json contract).
#: A value of 0 on a workload means the layer does not run there (for
#: example ``ordering.greedy.*`` under the non-monotonic coverage measure).
PER_LAYER_UNITS = {
    "ordering.busy_ms": "ms",
    "ordering.self_ms": "ms",
    "ordering.per_plan_ms": "ms",
    "ordering.first_plan_ms": "ms",
    "ordering.first_plan_evaluations": "count",
    "ordering.plans_evaluated": "count",
    "ordering.evals_per_plan": "ratio",
    "ordering.refinements": "count",
    **{
        f"ordering.{name}.{field}": unit
        for name in COMPARED_ORDERERS
        for field, unit in (("ttk_ms", "ms"), ("evals", "count"))
    },
    "utility.eval_ms": "ms",
    "utility.evals": "count",
    "utility.cache_hit_share": "ratio",
    "utility.cache_entries": "count",
    "reformulation.buckets.build_ms": "ms",
    "reformulation.buckets.sources_scanned": "count",
    "reformulation.buckets.space_size": "count",
    "reformulation.soundness.check_ms": "ms",
    "reformulation.soundness.checks": "count",
    "reformulation.soundness.unsound_share": "ratio",
    "execution.engine.execute_ms": "ms",
    "execution.engine.calls": "count",
    "execution.engine.tuples_out": "count",
    "execution.engine.us_per_tuple": "us",
    "execution.mediator.answer_wall_ms": "ms",
    "execution.mediator.self_ms": "ms",
    "execution.mediator.duplicate_share": "ratio",
    "service.protocol.request_decode_ms": "ms",
    "datalog.parser.parse_ms": "ms",
    "service.protocol.batch_encode_ms": "ms",
    "service.protocol.wire_bytes": "B",
    "service.protocol.bytes_per_new_answer": "B",
    "service.server.resolve_ms": "ms",
    "service.session.execute_wall_ms": "ms",
    "service.session.overhead_ms": "ms",
    "service.frontend.overhead_ms": "ms",
    "service.server.cpu_ms_per_request": "ms",
    "service.unattributed_share": "ratio",
    "service.placement.unpinned_ttl_p50_ms": "ms",
    "service.placement.unpinned_ttl_p95_ms": "ms",
    "service.concurrency.two_connection_ttl_p50_ms": "ms",
    "service.concurrency.two_connection_requests_per_s": "1/s",
    "observability.journal.events_per_request": "count",
    "observability.journal.overhead_share": "ratio",
    "observability.tracing.overhead_share": "ratio",
    "resilience.manager.overhead_share": "ratio",
    "workloads.generate_s": "s",
    "execution.instances.materialize_s": "s",
    "service.boot_s": "s",
    "setup.import_s": "s",
    "client.ttl_p50_ms": "ms",
    "client.ttl_p90_ms": "ms",
    "client.ttl_p95_ms": "ms",
    "bench.untraced_wall_ms": "ms",
    "bench.traced_wall_ms": "ms",
    "bench.layer_self_sum_ms": "ms",
    "bench.tracing_overhead_share": "ratio",
    "bench.client_decode_ms": "ms",
    "bench.calibration_ms": "ms",
}


class Spans:
    """Spans ``{name, start, end, parent, request}`` of one thread.

    Kept as parallel columns of scalars: thousands of spans per request
    would otherwise be thousands of tracked containers, and the garbage
    collector's work on them would be billed to the layers.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # -1 for a root
        self.requests: list[str] = []
        self.request = ""
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> None:
        self.parents.append(self._open[-1] if self._open else -1)
        self._open.append(len(self.names))
        self.names.append(name)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        now = time.perf_counter()
        self.ends[self._open.pop()] = now

    def clear(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents, self.requests):
            column.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def write(self, path, **header: object) -> None:
        spans = [
            {"name": name, "start": start, "end": end,
             "parent": parent if parent >= 0 else None, "request": request}
            for name, start, end, parent, request in zip(
                self.names, self.starts, self.ends, self.parents, self.requests
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": spans}, handle)


class TimedMeasure(UtilityMeasure):
    """Delegates like ``CachingUtilityMeasure``; times both evaluations."""

    def __init__(self, inner: UtilityMeasure, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.name = inner.name
        self.is_fully_monotonic = inner.is_fully_monotonic
        self.has_diminishing_returns = inner.has_diminishing_returns
        self.context_free = inner.context_free

    def evaluate(self, plan: PlanLike, context: ExecutionContext) -> float:
        self.spans.begin(UTILITY)
        try:
            return self.inner.evaluate(plan, context)
        finally:
            self.spans.end()

    def evaluate_slots(self, slots: Slots, context: ExecutionContext) -> Interval:
        self.spans.begin(UTILITY)
        try:
            return self.inner.evaluate_slots(slots, context)
        finally:
            self.spans.end()

    def new_context(self) -> ExecutionContext:
        return self.inner.new_context()

    def independent(self, first: PlanLike, second: PlanLike) -> bool:
        return self.inner.independent(first, second)

    def has_independent_witness(
        self, slots: Slots, executed: Sequence[PlanLike]
    ) -> bool:
        return self.inner.has_independent_witness(slots, executed)

    def all_members_independent(self, slots: Slots, plan: PlanLike) -> bool:
        return self.inner.all_members_independent(slots, plan)

    def source_preference_key(self, bucket: int, source) -> float:
        return self.inner.source_preference_key(bucket, source)


class TimedOrderer:
    """Times every resumption of the wrapped orderer's ``order(...)``."""

    def __init__(self, inner: PlanOrderer, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def order(self, space, k, on_emit=None) -> Iterator:
        plans = self.inner.order(space, k, on_emit)
        while True:
            self.spans.begin(ORDERING)
            try:
                ordered = next(plans, None)
            finally:
                self.spans.end()
            if ordered is None:
                return
            yield ordered


class TracedMediator(Mediator):
    """``Mediator`` with its three public stages wrapped in spans."""

    spans: Spans

    def reformulate(self, query):
        self.spans.begin(BUCKETS)
        try:
            return super().reformulate(query)
        finally:
            self.spans.end()

    def check_soundness(self, query, plan):
        self.spans.begin(SOUNDNESS)
        try:
            return super().check_soundness(query, plan)
        finally:
            self.spans.end()

    def execute_query(self, executable):
        self.spans.begin(ENGINE)
        try:
            return super().execute_query(executable)
        finally:
            self.spans.end()


def wire_form(request_id: str, batches: Sequence[AnswerBatch]) -> list[dict]:
    """In-process batches as the wire's decoded ``batch`` records."""
    return [
        json.loads(protocol.encode_line(protocol.batch_record(request_id, batch)))
        for batch in batches
    ]


class Sequential:
    """One mediator fed as the server feeds its own, for a whole pass.

    Measures and orderers are resolved exactly as ``QueryService`` does
    (one shared measure per name, ``auto`` resolved per measure, the
    adaptive wrapper when a resilience manager asks for it), so the
    sequential stream is the served stream.
    """

    def __init__(self, workload: Workload, spans: Optional[Spans] = None) -> None:
        observed = workload.spec.observed
        self.spans = spans
        self.journal = EventJournal() if observed else None
        self.service = make_service(
            workload, journal=self.journal, resilience=observed
        )
        self.mediator = (TracedMediator if spans is not None else Mediator)(
            workload.catalog,
            workload.facts,
            registry=self.service.registry,
            journal=self.journal,
            resilience=self.service.resilience,
        )
        if spans is not None:
            self.mediator.spans = spans
        self._orderer: Optional[PlanOrderer] = None
        self._refinements_before = 0

    def orderer(self, request: QueryRequest) -> tuple[UtilityMeasure, object]:
        config = self.service.config
        utility = self.service.shared_measure(request.measure or config.default_measure)
        if self.spans is not None:
            utility = TimedMeasure(utility, self.spans)
        requested = request.orderer or config.default_orderer
        factory = ORDERER_TABLE[resolve_orderer_name(requested, utility)]
        if self.service.resolve_adaptivity(request.policy, requested):
            orderer = AdaptiveOrderer(
                utility,
                inner_factory=factory,
                epoch=self.service.resilience.epoch,
                registry=self.service.registry,
            )
        else:
            orderer = factory(utility)
        # The adaptive wrapper counts into the service's registry, which
        # outlives the request; a plain orderer starts from zero.
        self._orderer = orderer
        self._refinements_before = orderer.stats.refinements
        if self.spans is not None:
            orderer = TimedOrderer(orderer, self.spans)
        return utility, orderer

    def answer(self, request: QueryRequest, request_id: str) -> Iterator[AnswerBatch]:
        utility, orderer = self.orderer(request)
        return self.mediator.answer(
            request.query,
            utility,
            max_plans=request.policy.max_plans,
            orderer=orderer,
            request_id=request_id,
        )

    def refinements(self) -> int:
        """Interval refinements of the last request (``orderer.stats``)."""
        return self._orderer.stats.refinements - self._refinements_before


def traced_request(sequential: Sequential, line: bytes, request_id: str
                   ) -> tuple[list[AnswerBatch], int]:
    """One request through every timed seam; returns (batches, wire bytes)."""
    spans = sequential.spans
    policy = sequential.service.config.default_policy
    spans.request = request_id
    spans.begin(PARSE)
    parse_query(json.loads(line)["query"])
    spans.end()
    spans.begin(REQUEST)
    spans.begin(DECODE)
    request = protocol.request_from_record(
        protocol.decode_line(line), default_policy=policy
    )
    spans.end()
    spans.begin(RESOLVE)
    stream = sequential.answer(request, request_id)
    spans.end()
    batches: list[AnswerBatch] = []
    wire_bytes = 0
    while True:
        spans.begin(MEDIATOR)
        try:
            batch = next(stream, None)
        finally:
            spans.end()
        if batch is None:
            break
        spans.begin(ENCODE)
        wire_bytes += len(protocol.encode_line(protocol.batch_record(request_id, batch)))
        spans.end()
        batches.append(batch)
    spans.end()
    return batches, wire_bytes


def plain_request(sequential: Sequential, line: bytes, request_id: str
                  ) -> tuple[list[AnswerBatch], float]:
    """The work of :func:`traced_request` with no proxy and no span.

    Returns (batches, ms inside ``Mediator.answer``): the whole call is
    what tracing overhead is measured against, the inner figure is the
    sequential wall ``QueryService.execute`` is compared with.
    """
    request = protocol.request_from_record(
        protocol.decode_line(line),
        default_policy=sequential.service.config.default_policy,
    )
    started = time.perf_counter()
    batches = list(sequential.answer(request, request_id))
    answer_ms = (time.perf_counter() - started) * 1000.0
    for batch in batches:
        protocol.encode_line(protocol.batch_record(request_id, batch))
    return batches, answer_ms


def _timed(call: Callable[[], object]) -> tuple[object, float]:
    started = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - started) * 1000.0


def compare_orderers(workload: Workload, request: Request) -> dict[str, float]:
    """Time-to-k and evaluation count of each orderer, ordering only."""
    space = build_buckets(parse_query(request.text), workload.catalog)
    k = min(request.max_plans or space.size, space.size)
    out: dict[str, float] = {}
    for name in COMPARED_ORDERERS:
        elapsed = evaluations = 0.0
        scalable = name in ("anyk", "greedy")
        if scalable or space.size <= COMPARE_SPACE_LIMIT:
            try:
                orderer = ORDERER_TABLE[name](workload.fresh_measure(request.measure))
                _, elapsed = _timed(lambda: orderer.order_list(space, k))
                evaluations = float(orderer.stats.plans_evaluated)
            except ReproError:
                pass  # not applicable to this measure: reported as 0
        out[f"ordering.{name}.ttk_ms"] = elapsed
        out[f"ordering.{name}.evals"] = evaluations
    return out


def trace_workload(workload: Workload, checker: Checker, scale: float
                   ) -> tuple[dict[str, float], int, int]:
    """Every per-layer metric of *workload*; (metrics, attempted, failed)."""
    spec = workload.spec
    count = max(2, round(spec.trace_requests * scale))
    # The journal channel is priced as the server pays for it: one
    # flushed line per event into a file.
    with tempfile.TemporaryFile("w+", dir=out_dir(), encoding="utf-8") as sink:
        replay = _replay(workload, checker, count, sink)
    metrics = replay.metrics
    metrics.update(compare_orderers(workload, workload.requests[spec.warmup]))
    wire_attempted, wire_failed = _wire_rounds(workload, checker, count, metrics)
    if PER_LAYER_UNITS.keys() != metrics.keys():
        raise RuntimeError(
            "per-layer metrics out of step with their table: "
            f"{PER_LAYER_UNITS.keys() ^ metrics.keys()}"
        )
    replay.spans.write(
        out_dir() / f"trace-{spec.name}.json",
        workload=spec.name, seed=workload.seed, requests=count,
    )
    return (
        metrics,
        replay.attempted + wire_attempted,
        replay.failed + wire_failed,
    )


@dataclass
class _Replay:
    """What the in-process replay of the request list produced."""

    spans: Spans
    metrics: dict[str, float]
    attempted: int
    failed: int


def _replay(workload: Workload, checker: Checker, count: int,
            journal_sink: IO[str]) -> _Replay:
    """Run the first *count* requests through every in-process variant."""
    spec = workload.spec
    requests = workload.requests[spec.warmup: spec.warmup + count]
    spans = Spans()
    traced = Sequential(workload, spans)
    plain = Sequential(workload)
    journal = EventJournal(stream=journal_sink)
    services = {
        "bare": make_service(workload),
        "journal": make_service(workload, journal=journal),
        "tracing": make_service(workload, trace_requests=True),
        "resilience": make_service(workload, resilience=True),
    }

    # Hot-cache workloads reach steady state before anything is timed.
    for i, request in enumerate(workload.requests[: spec.warmup]):
        line = protocol.encode_line(request.record(f"w{i}"))
        traced_request(traced, line, f"w{i}")
        plain_request(plain, line, f"w{i}")
        for service in services.values():
            service.execute(protocol.request_from_record(protocol.decode_line(line)))
    spans.clear()

    attempted = failed = 0
    walls: dict[str, list[float]] = defaultdict(list)
    per_request: dict[str, list[float]] = defaultdict(list)
    for i, request in enumerate(requests):
        request_id = f"t{i}"
        line = protocol.encode_line(request.record(request_id))
        parsed = protocol.request_from_record(protocol.decode_line(line))
        variants: dict[str, Callable[[], object]] = {
            "traced": lambda: traced_request(traced, line, request_id),
            "plain": lambda: plain_request(plain, line, request_id),
        }
        for name, service in services.items():
            variants[name] = lambda service=service: service.execute(parsed).batches
        # Whoever runs later finds warmer caches and a bigger heap; the
        # starting variant rotates so that no variant always pays that.
        order = list(variants)
        order = order[i % len(order):] + order[: i % len(order)]
        results = {}
        for name in order:
            results[name], wall = _timed(variants[name])
            walls[name].append(wall)
        batches, wire_bytes = results["traced"]
        plain_batches, answer_ms = results["plain"]
        walls["answer"].append(answer_ms)
        for stream in (batches, plain_batches, results["bare"]):
            attempted += 1
            failed += not checker.check_batches(request, wire_form(request_id, stream))

        produced = sum(len(b.answers) for b in batches)
        new = sum(len(b.new_answers) for b in batches)
        per_request["service.protocol.wire_bytes"].append(wire_bytes)
        per_request["service.protocol.bytes_per_new_answer"].append(
            wire_bytes / new if new else 0.0
        )
        per_request["reformulation.soundness.unsound_share"].append(
            sum(not b.sound for b in batches) / len(batches) if batches else 0.0
        )
        per_request["execution.engine.tuples_out"].append(produced)
        per_request["execution.mediator.duplicate_share"].append(
            1.0 - new / produced if produced else 0.0
        )
        per_request["reformulation.buckets.sources_scanned"].append(
            len(workload.catalog) * len(parsed.query.body)
        )
        per_request["ordering.plans_emitted"].append(len(batches))
        per_request["ordering.refinements"].append(traced.refinements())
    per_request.update(_layer_times(spans))

    metrics = {name: median(values) for name, values in per_request.items()}
    emitted = metrics.pop("ordering.plans_emitted")
    metrics["ordering.per_plan_ms"] = (
        metrics["ordering.busy_ms"] / emitted if emitted else 0.0
    )
    metrics["ordering.evals_per_plan"] = (
        metrics["ordering.plans_evaluated"] / emitted if emitted else 0.0
    )
    tuples = metrics["execution.engine.tuples_out"]
    metrics["execution.engine.us_per_tuple"] = (
        metrics["execution.engine.execute_ms"] * 1000.0 / tuples if tuples else 0.0
    )
    metrics["reformulation.buckets.space_size"] = float(
        build_buckets(parse_query(requests[0].text), workload.catalog).size
    )

    cache = services["bare"].registry_export()
    hits = cache.get("utility_cache.hits", {}).get("value", 0.0)
    misses = cache.get("utility_cache.misses", {}).get("value", 0.0)
    metrics["utility.cache_hit_share"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    metrics["utility.cache_entries"] = float(
        cache.get("utility_cache.entries", {}).get("value", 0.0)
    )

    medians = {name: median(values) for name, values in walls.items()}
    metrics["bench.untraced_wall_ms"] = medians["plain"]
    metrics["bench.tracing_overhead_share"] = medians["traced"] / medians["plain"] - 1.0
    metrics["execution.mediator.answer_wall_ms"] = medians["answer"]
    metrics["service.session.execute_wall_ms"] = medians["bare"]
    metrics["service.session.overhead_ms"] = medians["bare"] - medians["answer"]
    metrics["observability.journal.events_per_request"] = len(journal) / (
        len(requests) + spec.warmup
    )
    for name, channel in (
        ("observability.journal", "journal"),
        ("observability.tracing", "tracing"),
        ("resilience.manager", "resilience"),
    ):
        metrics[f"{name}.overhead_share"] = medians[channel] / medians["bare"] - 1.0
    return _Replay(spans, metrics, attempted, failed)


def _wire_rounds(workload: Workload, checker: Checker, count: int,
                 metrics: dict[str, float]) -> tuple[int, int]:
    """The client-side and server-process numbers; (attempted, failed).

    Three server lives over the replayed requests: one as the
    end-to-end runs have it, one left to the scheduler on every CPU, as
    ``repro serve`` runs when nobody pins it, and one with a second
    closed-loop connection, where requests queue behind each other.
    """
    wire = run_round(workload, checker, None, limit=count)
    unpinned = run_round(workload, checker, None, limit=count, pinned=False)
    paired = run_round(workload, checker, None, limit=count, connections=2)
    ttl_p50 = median(wire.ttl_ms)
    metrics["client.ttl_p50_ms"] = ttl_p50
    metrics["client.ttl_p90_ms"] = percentile(wire.ttl_ms, 0.90)
    metrics["client.ttl_p95_ms"] = percentile(wire.ttl_ms, 0.95)
    metrics["service.placement.unpinned_ttl_p50_ms"] = median(unpinned.ttl_ms)
    metrics["service.placement.unpinned_ttl_p95_ms"] = percentile(unpinned.ttl_ms, 0.95)
    metrics["service.concurrency.two_connection_ttl_p50_ms"] = median(paired.ttl_ms)
    metrics["service.concurrency.two_connection_requests_per_s"] = (
        paired.completed / paired.duration_s
    )
    metrics["bench.client_decode_ms"] = median(wire.decode_ms)
    metrics["bench.calibration_ms"] = wire.calibration_ms
    metrics["service.server.cpu_ms_per_request"] = (
        wire.cpu_s * 1000.0 / wire.sent if wire.sent else 0.0
    )
    metrics["service.frontend.overhead_ms"] = (
        ttl_p50 - metrics["service.session.execute_wall_ms"]
    )
    metrics["service.unattributed_share"] = (
        (ttl_p50 - metrics["bench.layer_self_sum_ms"]) / ttl_p50 if ttl_p50 else 0.0
    )
    metrics["setup.import_s"] = wire.phases["import_s"]
    metrics["workloads.generate_s"] = wire.phases["generate_s"]
    metrics["execution.instances.materialize_s"] = wire.phases["materialize_s"]
    metrics["service.boot_s"] = wire.phases["boot_s"]
    rounds = (wire, unpinned, paired)
    return sum(r.sent for r in rounds), sum(r.failed for r in rounds)


def _layer_times(spans: Spans) -> dict[str, list[float]]:
    """Per-request layer totals in ms, keyed by metric name."""
    own = spans.self_times()
    total: dict[tuple[str, str], float] = defaultdict(float)
    self_time: dict[tuple[str, str], float] = defaultdict(float)
    count: dict[tuple[str, str], int] = defaultdict(int)
    first_ordering: dict[str, int] = {}
    first_evaluations: dict[str, int] = defaultdict(int)
    ordering_evaluations: dict[str, int] = defaultdict(int)
    order: list[str] = []
    for index, (name, start, end, request) in enumerate(
        zip(spans.names, spans.starts, spans.ends, spans.requests)
    ):
        key = (request, name)
        if name == REQUEST:
            order.append(request)
        total[key] += (end - start) * 1000.0
        self_time[key] += own[index] * 1000.0
        count[key] += 1
        if name == ORDERING and request not in first_ordering:
            first_ordering[request] = index
        if name == UTILITY and spans.names[spans.parents[index]] == ORDERING:
            ordering_evaluations[request] += 1
            if spans.parents[index] == first_ordering.get(request):
                first_evaluations[request] += 1

    def column(table, name: str) -> list[float]:
        return [float(table[(request, name)]) for request in order]

    layers = (DECODE, RESOLVE, MEDIATOR, BUCKETS, ORDERING, UTILITY, SOUNDNESS, ENGINE,
              ENCODE)
    return {
        "ordering.busy_ms": column(total, ORDERING),
        "ordering.self_ms": column(self_time, ORDERING),
        "ordering.first_plan_ms": [
            (spans.ends[first_ordering[r]] - spans.starts[first_ordering[r]]) * 1000.0
            for r in order
        ],
        "ordering.first_plan_evaluations": [float(first_evaluations[r]) for r in order],
        "ordering.plans_evaluated": [float(ordering_evaluations[r]) for r in order],
        "utility.eval_ms": column(total, UTILITY),
        "utility.evals": column(count, UTILITY),
        "reformulation.buckets.build_ms": column(total, BUCKETS),
        "reformulation.soundness.check_ms": column(total, SOUNDNESS),
        "reformulation.soundness.checks": column(count, SOUNDNESS),
        "execution.engine.execute_ms": column(total, ENGINE),
        "execution.engine.calls": column(count, ENGINE),
        "execution.mediator.self_ms": column(self_time, MEDIATOR),
        "service.protocol.request_decode_ms": column(total, DECODE),
        "service.server.resolve_ms": column(total, RESOLVE),
        "datalog.parser.parse_ms": column(total, PARSE),
        "service.protocol.batch_encode_ms": column(total, ENCODE),
        "bench.traced_wall_ms": column(total, REQUEST),
        "bench.layer_self_sum_ms": [
            sum(self_time[(request, name)] for name in layers) for request in order
        ],
    }
