"""docs/observability.md's audit table against the code.

Each row of the table names one mechanism of ``repro.observability``,
``repro.execution`` or the telemetry of ``repro.service.session`` and
``repro.service.server``, and ends in its verdict: "kept" (the mechanism
is there) or anything else (it was deleted).  One probe per row checks
the verdict against the tree, so a mechanism re-added without its row,
or a row left behind by a deletion, fails here.
"""

import dataclasses
import inspect
from pathlib import Path

import pytest

import repro.execution
import repro.observability
from repro.execution import engine, instances, mediator, simulator
from repro.observability import caching, journal, metrics, prometheus, tracing
from repro.service import server, session

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
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


def source(obj):
    return inspect.getsource(obj)


def params(callable_):
    return set(inspect.signature(callable_).parameters)


def has(obj, *names):
    return any(hasattr(obj, name) for name in names)


def fields(cls):
    return {field.name for field in dataclasses.fields(cls)}


#: Does the row's mechanism exist in the tree?
PRESENT = {
    "`Stopwatch.stop`'s never-started refusal":
        lambda: "never started" in source(tracing.Stopwatch.stop),
    'span paths nest (`Tracer._push`)':
        lambda: '"/".join(self._stack)' in source(tracing.Tracer._push),
    '`SpanStats` min / max':
        lambda: "self.min_s = min(" in source(tracing.SpanStats.record),
    "`SpanStats.as_dict`'s `mean_s`":
        lambda: "self.total_s / self.calls" in source(tracing.SpanStats.as_dict),
    '`Tracer.merge` adds calls':
        lambda: "self.calls += int(" in source(tracing.SpanStats.absorb),
    '`SpanStats.absorb` skips a zero-call payload':
        lambda: "if calls <= 0:" in source(tracing.SpanStats.absorb),
    'a disabled tracer hands out the shared no-op span':
        lambda: "return _NOOP_SPAN" in source(tracing.Tracer.span),
    '`Tracer.format_table` (`repro order --trace`)':
        lambda: "for path, stats in sorted(" in source(tracing.Tracer.format_table),
    '`Counter.set` (the `OrderingStats` views)':
        lambda: "self.value = value" in source(metrics.Counter.set),
    'merged counters add up':
        lambda: "self.value +=" in source(metrics.Counter.absorb),
    '`Gauge.dec` (`service.active`, `dominance.links`)':
        lambda: "self.value -= amount" in source(metrics.Gauge.dec),
    'merged gauges keep the last write':
        lambda: "self.value = float(" in source(metrics.Gauge.absorb),
    'the unsorted-bounds refusal':
        lambda: "must be sorted" in source(metrics.Histogram.__init__),
    'a value on a bound falls in that bucket (`<=`)':
        lambda: "if value <= bound:" in source(metrics.Histogram.observe),
    'quantiles clamped to the observed min / max':
        lambda: "min(max(estimate, self.min), self.max)" in source(metrics.Histogram.quantile),
    "the first bucket's lower edge (0, or a negative min)":
        lambda: "0.0 if self.min >= 0.0 else self.min" in source(metrics.Histogram.quantile),
    'the quantile-range refusal':
        lambda: "quantile must be in [0, 1]" in source(metrics.Histogram.quantile),
    "an empty histogram's quantile is 0":
        lambda: "if self.count == 0:" in source(metrics.Histogram.quantile),
    'the bucket-layout refusal on merge':
        lambda: "bucket layout mismatch" in source(metrics.Histogram.absorb),
    'merged min / max extend only from a non-empty export':
        lambda: "if added > 0:" in source(metrics.Histogram.absorb),
    "a merged histogram keeps its emitter's buckets (`_bounds_from_export`)":
        lambda: "return tuple(sorted(bounds))" in source(metrics._bounds_from_export),
    'the bad-bucket-key refusal':
        lambda: "bad bucket key" in source(metrics._bounds_from_export),
    'the metric-kind refusal':
        lambda: "already registered as" in source(metrics.MetricRegistry._get_or_create),
    'registration under the registry lock':
        lambda: "with self._lock:" in source(metrics.MetricRegistry._get_or_create),
    '`MetricRegistry.lock` is one lock':
        lambda: "return self._lock" in source(metrics.MetricRegistry),
    'the unknown-kind refusal on merge':
        lambda: "cannot merge metric" in source(metrics.MetricRegistry.merge),
    '`to_json(extra=)` (`--metrics-out` spans)':
        lambda: "payload.update(extra)" in source(metrics.MetricRegistry.to_json),
    '`as_dict` sorted by name':
        lambda: "sorted(self._metrics.items())" in source(metrics.MetricRegistry.as_dict),
    "p50 / p90 / p99 in a histogram's export":
        lambda: "**self.percentiles()" in source(metrics.Histogram.as_dict),
    'metric names flattened to `[a-zA-Z0-9_:]`':
        lambda: "_NAME_RE.sub" in source(prometheus.sanitize_metric_name),
    'the empty-name refusal':
        lambda: "cannot derive a metric name" in source(prometheus.sanitize_metric_name),
    '`+Inf` / `-Inf` values':
        lambda: 'return "+Inf"' in source(prometheus._format_value),
    'integral values without a decimal point':
        lambda: "return str(int(number))" in source(prometheus._format_value),
    'counters suffixed `_total`':
        lambda: "_total" in source(prometheus._render_counter),
    'buckets cumulated in numeric order':
        lambda: "key=numeric_bound" in source(prometheus._render_histogram),
    'cumulative `_bucket` series':
        lambda: "cumulative += " in source(prometheus._render_histogram),
    'the `_quantile` companion gauges':
        lambda: "_quantile" in source(prometheus._render_histogram),
    '`render_export` unwraps a `--metrics-out` file':
        lambda: 'metrics.get("metrics")' in source(prometheus.render_export),
    'the not-an-object refusal':
        lambda: "is not an object" in source(prometheus.render_export),
    'the unknown-kind refusal':
        lambda: "unknown kind" in source(prometheus.render_export),
    "`QueryService.prometheus_text`'s own merge of a separate resilience registry":
        lambda: "render_registry(resilience.registry)" in source(server.QueryService.prometheus_text),
    '`QueryService.registry_export` merges a separate resilience registry':
        lambda: ".merge(resilience.registry)" in source(server.QueryService.registry_export),
    "a disabled journal's `emit` returns at once":
        lambda: "if not self.enabled:" in source(journal.EventJournal.emit),
    "journal tags (a worker's `shard`)":
        lambda: "record.update(self.tags)" in source(journal.EventJournal.emit),
    'event fields win over tags':
        lambda: "record.update(self.tags)\n        record.update(fields)" in source(journal.EventJournal.emit),
    'the envelope-tag refusal':
        lambda: "collides with an envelope field" in source(journal.EventJournal.__init__),
    '`seq` and the write under the journal lock':
        lambda: "with self._lock:" in source(journal.EventJournal.emit),
    'the per-event flush':
        lambda: "stream.flush()" in source(journal.EventJournal.emit),
    '`len(journal)` counts the events emitted':
        lambda: "return self._seq" in source(journal.EventJournal.__len__),
    "`BoundJournal.enabled` reads the journal's flag":
        lambda: "return self._journal.enabled" in source(journal.BoundJournal),
    're-binding a bound journal replaces the id':
        lambda: "BoundJournal(self._journal, request_id)" in source(journal.BoundJournal.bind),
    "`validate_event`'s envelope check":
        lambda: "missing envelope field" in source(journal.validate_event),
    "`validate_event`'s unknown-type refusal":
        lambda: "unknown journal event type" in source(journal.validate_event),
    "`validate_event`'s required-field check":
        lambda: "missing fields" in source(journal.validate_event),
    "`EVENT_SCHEMA`'s required fields (`plan.executed`)":
        lambda: journal.EVENT_SCHEMA["plan.executed"] == {"rank", "answers", "new_answers", "execute_s"},
    '`read_jsonl` skips blank lines':
        lambda: "if not line:" in source(journal.read_jsonl),
    "`read_jsonl`'s not-an-object refusal":
        lambda: "is not an object" in source(journal.read_jsonl),
    '`NOOP_JOURNAL` is disabled':
        lambda: not journal.NOOP_JOURNAL.enabled,
    'the run binds the journal to the request id':
        lambda: "mediator.journal.bind(request_id)" in source(mediator.AnytimeRun.__init__),
    '`AnytimeRun.journaling`, the flag read once per request':
        lambda: "self.journaling = self.journal.enabled" in source(mediator.AnytimeRun.__init__),
    'the service lends its journal to a resilience manager without one':
        lambda: "resilience.journal = self.journal" in source(server.QueryService.__init__),
    'the stacked-cache refusal':
        lambda: "refusing to stack" in source(caching.CachingUtilityMeasure.__init__),
    'the non-cacheable-measure refusal':
        lambda: "refusing to cache" in source(caching.CachingUtilityMeasure.__init__),
    'context-free measures use token 0 and build no table':
        lambda: "if self.inner.context_free:" in source(caching.CachingUtilityMeasure._context_token),
    'a context folded by another cache starts over':
        lambda: "if owner is not self:" in source(caching.CachingUtilityMeasure._context_token),
    'a context remembers how far it was folded':
        lambda: "context.prefix_cursor = (" in source(caching.CachingUtilityMeasure._context_token),
    'tokens interned under the lock':
        lambda: "with self._prefix_lock:" in source(caching.CachingUtilityMeasure._context_token),
    'point evaluations memoized':
        lambda: "value = self._concrete[key]" in source(caching.CachingUtilityMeasure.evaluate),
    'interval evaluations memoized':
        lambda: "interval = self._abstract[key]" in source(caching.CachingUtilityMeasure.evaluate_slots),
    '`utility_cache.hits`':
        lambda: "self._hits.inc()" in source(caching.CachingUtilityMeasure.evaluate),
    '`utility_cache.misses`':
        lambda: "self._misses.inc()" in source(caching.CachingUtilityMeasure.evaluate),
    '`utility_cache.entries`':
        lambda: "self._size.set(" in source(caching.CachingUtilityMeasure.evaluate),
    'the `+memo` name suffix':
        lambda: "+memo" in source(caching.CachingUtilityMeasure.__init__),
    '`execute_plan` returns None for an unsound plan':
        lambda: "return None" in source(engine.execute_plan),
    'the bucket-count refusal':
        lambda: "buckets, " in source(instances.materialize_instances),
    'an extension mask selects its elements':
        lambda: "if mask & 1:" in source(instances._mask_elements),
    "the schema relations' contents":
        lambda: "schema_facts[relation].update(rows)" in source(instances.materialize_instances),
    "the product query's one variable per subgoal":
        lambda: "(variables[i],)" in source(instances.product_query),
    "the simulator's argument refusals":
        lambda: "must be at least 1" in source(simulator.ExecutionSimulator.__init__),
    'per-slot domain sizes':
        lambda: "self._domain_sizes[slot]" in source(simulator.ExecutionSimulator.domain_size),
    '`reset(seed=)` reseeds':
        lambda: "random.Random(seed)" in source(simulator.ExecutionSimulator.reset),
    '`reset` zeroes the clock':
        lambda: "self._clock = 0.0" in source(simulator.ExecutionSimulator.reset),
    'a failed plan retries up to `max_attempts`':
        lambda: "attempts < self.max_attempts" in source(simulator.ExecutionSimulator.run_plan),
    'a failed access pays its overhead':
        lambda: "cost += self.access_overhead\n" in source(simulator.ExecutionSimulator._attempt),
    'simulated failures feed the health tracker (`simulate --adaptive`)':
        lambda: "self.health.record_failure" in source(simulator.ExecutionSimulator._attempt),
    'cached source operations cost nothing':
        lambda: "op in self._cache" in source(simulator.ExecutionSimulator._attempt),
    '`run_plan` turns an abstract plan into a `QueryPlan`':
        lambda: "isinstance(plan, QueryPlan)" in source(simulator.ExecutionSimulator.run_plan),
    '`time_to_first_success` skips failed runs':
        lambda: "if run.succeeded:" in source(simulator.SimulationReport),
    '`total_time`':
        lambda: "self.runs[-1].finished_at" in source(simulator.SimulationReport),
    'the `reformulation.buckets.build` span':
        lambda: 'tracer.span("reformulation.buckets.build")' in source(mediator.AnytimeRun.__init__),
    'the `reformulation.soundness.check` span':
        lambda: 'tracer.span("reformulation.soundness.check")' in source(mediator.AnytimeRun.plans),
    'the `execution.engine.execute` span':
        lambda: 'span("execution.engine.execute")' in source(mediator.AnytimeRun.execute),
    "`AnytimeRun.execute(tracer=)`, the executing thread's tracer":
        lambda: "if tracer is None else tracer" in source(mediator.AnytimeRun.execute),
    'the run binds its journal into an adaptive orderer':
        lambda: "bind(self.journal)" in source(mediator.AnytimeRun.__init__),
    '`max_plans` bounds the plans pulled':
        lambda: "min(max_plans, space.size)" in source(mediator.Mediator.resolve_budget),
    "`on_emit`'s unprocessed-plan refusal":
        lambda: "unprocessed plan" in source(mediator.AnytimeRun._on_emit),
    '`plan.emitted`':
        lambda: '"plan.emitted"' in source(mediator.AnytimeRun.plans),
    'breaker admission skips a plan':
        lambda: "resilience.admit(plan" in source(mediator.AnytimeRun.execute),
    'every failed attempt feeds the health tracker':
        lambda: "resilience.record_failure(" in source(mediator.AnytimeRun.execute),
    "transient failures retry on the driver's backoff":
        lambda: "backoff.delay(attempts)" in source(mediator.AnytimeRun.execute),
    '`plan.retry`':
        lambda: '"plan.retry"' in source(mediator.AnytimeRun.execute),
    'successes feed the health tracker':
        lambda: "resilience.record_success(" in source(mediator.AnytimeRun.execute),
    '`execute_s` (`plan.executed`, `service.execute_s`)':
        lambda: "item.execute_s += perf_counter() - started" in source(mediator.AnytimeRun.execute),
    'a failed plan raises without a resilience manager':
        lambda: "if self.mediator.resilience is None:" in source(mediator.AnytimeRun.settle),
    'new answers are deduplicated':
        lambda: "answers - seen" in source(mediator.AnytimeRun.settle),
    'the `mediator.*` counters':
        lambda: "record_batch(batch)" in source(mediator.AnytimeRun.settle),
    '`record_batch` under the registry lock':
        lambda: "with self.registry.lock:" in source(mediator.Mediator.record_batch),
    '`sources_skipped` lists a source once':
        lambda: "if source not in report.sources_skipped:" in source(mediator.AnytimeRun.settle),
    '`first_answer_s`':
        lambda: "report.first_answer_s = self.watch.stop()" in source(mediator.AnytimeRun.settle),
    '`answer.progress`':
        lambda: '"answer.progress"' in source(mediator.AnytimeRun.settle),
    "the report's `breaker_states`":
        lambda: "resilience.breaker_states()" in source(mediator.AnytimeRun.close),
    "the report's `elapsed_s`":
        lambda: "self.report.elapsed_s = self.watch.stop()" in source(mediator.AnytimeRun.close),
    'the mediator copies the source facts':
        lambda: "set(facts)" in source(mediator.Mediator.__init__),
    '`execution_database` is a read-only view':
        lambda: "MappingProxyType" in source(mediator.Mediator.execution_database),
    '`certain_answers` (the inverse-rule oracle)':
        lambda: "answer_with_inverse_rules" in source(mediator.Mediator.certain_answers),
    '`SessionReport.as_dict` copies its lists':
        lambda: "list(self.sources_skipped)" in source(mediator.SessionReport.as_dict),
    '`service.retries`':
        lambda: "self._retries.inc(" in source(session.PipelinedSession.stream),
    '`service.execute_s`':
        lambda: "self._execute_hist.observe(" in source(session.PipelinedSession.stream),
    'each pipelined worker records into a private tracer':
        lambda: "Tracer(enabled=self.tracer.enabled)" in source(session.PipelinedSession._pipeline),
    "worker tracers merge into the request's after they join":
        lambda: "self.tracer.merge(worker_tracer)" in source(session.PipelinedSession._pipeline),
    '`service.requests`':
        lambda: "self._m_requests.inc()" in source(server.QueryService.execute),
    '`service.accepted`':
        lambda: "self._m_accepted.inc()" in source(server.QueryService.execute),
    '`service.rejected`':
        lambda: "self._m_rejected.inc()" in source(server.QueryService._rejected),
    '`request.rejected`':
        lambda: '"request.rejected"' in source(server.QueryService._rejected),
    '`service.active`':
        lambda: "self._g_active.inc()" in source(server.QueryService.execute),
    '`request.admitted`':
        lambda: '"request.admitted"' in source(server.QueryService._run_admitted),
    '`service.errors`':
        lambda: "self._m_errors.inc()" in source(server.QueryService._run_admitted),
    '`request.completed` for an error':
        lambda: 'status="error"' in source(server.QueryService._run_admitted),
    '`service.completed`':
        lambda: "self._m_completed.inc()" in source(server.QueryService._run_admitted),
    '`service.answers`':
        lambda: "self._m_answers.inc(" in source(server.QueryService._run_admitted),
    '`service.deadline_exceeded`':
        lambda: "self._m_deadline.inc()" in source(server.QueryService._run_admitted),
    '`service.cancelled`':
        lambda: "self._m_cancelled.inc()" in source(server.QueryService._run_admitted),
    '`service.first_answer_s`':
        lambda: "self._h_first.observe(" in source(server.QueryService._run_admitted),
    '`service.total_s`':
        lambda: "self._h_total.observe(" in source(server.QueryService._run_admitted),
    '`request.completed`':
        lambda: "status=report.status" in source(server.QueryService._run_admitted),
    '`trace_requests` gives each request a tracer':
        lambda: "Tracer() if self.config.trace_requests" in source(server.QueryService._run_admitted),
    "the request's orderer is built with its tracer":
        lambda: "factory(utility, tracer=tracer)" in source(server.QueryService._make_orderer),
    "an adaptive orderer gets the request's tracer":
        lambda: "tracer=tracer," in source(server.QueryService._make_orderer),
    '`RequestResult.spans`':
        lambda: "spans=tracer.as_dict()" in source(server.QueryService._run_admitted),
    "the journal's in-memory event list":
        lambda: has(journal.EventJournal, "events") or "_events" in source(journal.EventJournal),
    '`EventJournal(capacity=)` and `dropped`':
        lambda: "capacity" in params(journal.EventJournal) or has(journal.EventJournal, "dropped"),
    '`EventJournal.events()`':
        lambda: has(journal.EventJournal, "events"),
    '`EventJournal.request_ids()`':
        lambda: has(journal.EventJournal, "request_ids"),
    '`EventJournal.validate()`':
        lambda: has(journal.EventJournal, "validate"),
    '`EventJournal.to_jsonl()` / `write()`':
        lambda: has(journal.EventJournal, "to_jsonl", "write"),
    '`EventJournal.reset()`':
        lambda: has(journal.EventJournal, "reset"),
    '`EventJournal(clock=)`':
        lambda: "clock" in params(journal.EventJournal),
    "the journals' `__repr__`":
        lambda: "__repr__" in vars(journal.EventJournal) or "__repr__" in vars(journal.BoundJournal),
    '`Mediator(tracer=)`, `Mediator.tracer` and the `mediator.*` spans':
        lambda: "tracer" in params(mediator.Mediator) or "mediator.soundness" in source(mediator),
    'the run lends its tracer to an orderer without one':
        lambda: "_adopted_tracer" in source(mediator.AnytimeRun),
    'the lent tracer is taken back in `close`':
        lambda: "orderer.tracer = NOOP_TRACER" in source(mediator.AnytimeRun.close),
    '`Mediator.answer_all`':
        lambda: has(mediator.Mediator, "answer_all"),
    '`service.plans_pipelined`':
        lambda: "plans_pipelined" in source(session),
    'the `service.reformulate` span':
        lambda: "service.reformulate" in source(session),
    'the `service.worker.execute` span':
        lambda: "service.worker.execute" in source(session),
    '`MetricRegistry.to_csv()` / `write_csv()`':
        lambda: has(metrics.MetricRegistry, "to_csv", "write_csv"),
    '`MetricRegistry.reset()`':
        lambda: has(metrics.MetricRegistry, "reset"),
    '`MetricRegistry.names()` / `__len__` / `__contains__`':
        lambda: has(metrics.MetricRegistry, "names", "__len__", "__contains__"),
    '`Histogram.time()` and `_HistogramTimer`':
        lambda: has(metrics.Histogram, "time") or has(metrics, "_HistogramTimer"),
    '`Tracer.paths()` / `reset()`':
        lambda: has(tracing.Tracer, "paths", "reset"),
    '`Tracer.get()` / `__contains__`':
        lambda: has(tracing.Tracer, "get", "__contains__"),
    '`Span.set_attribute`':
        lambda: has(tracing.Span, "set_attribute"),
    'span attributes (`span(name, **attributes)`)':
        lambda: "attributes" in params(tracing.Tracer.span),
    '`namespace=` on `sanitize_metric_name`, `render_export`, `render_registry`':
        lambda: any("namespace" in params(f) for f in (prometheus.sanitize_metric_name, prometheus.render_export, prometheus.render_registry)),
    'the leading-digit guard in `sanitize_metric_name`':
        lambda: "isdigit" in source(prometheus.sanitize_metric_name),
    '`render_registry(extra_gauges=)`':
        lambda: "extra_gauges" in params(prometheus.render_registry),
    '`CachingUtilityMeasure.clear()`':
        lambda: has(caching.CachingUtilityMeasure, "clear"),
    '`utility_cache.concrete_hits` / `abstract_hits`':
        lambda: "concrete_hits" in source(caching) or "abstract_hits" in source(caching),
    '`CachingUtilityMeasure.__repr__`':
        lambda: "__repr__" in vars(caching.CachingUtilityMeasure),
    '`SimulationReport.completion_times()`':
        lambda: has(simulator.SimulationReport, "completion_times"),
    '`ExecutionSimulator.expected_plan_cost()`':
        lambda: has(simulator.ExecutionSimulator, "expected_plan_cost"),
    '`PlanRun.output_estimate` / `cache_hits`':
        lambda: any(f in fields(simulator.PlanRun) for f in ("output_estimate", "cache_hits")),
    '`Mediator(orderer_factory=)`':
        lambda: "orderer_factory" in params(mediator.Mediator),
    'the `repro.observability` / `repro.execution` re-exports beyond what `repro`, `src/`, `examples/` and the docs import':
        lambda: any(has(package, name) for package, name in ((repro.observability, "EventJournal"), (repro.observability, "render_export"), (repro.execution, "ExecutionSimulator"), (repro.execution, "materialize_instances"))),
}


def test_every_row_has_a_probe():
    assert sorted(mechanism for mechanism, _ in audit_rows()) == sorted(PRESENT)


@pytest.mark.parametrize(
    "mechanism, verdict", audit_rows(), ids=[row[0] for row in audit_rows()]
)
def test_the_verdict_matches_the_tree(mechanism, verdict):
    assert PRESENT[mechanism]() == verdict.startswith("kept")
