"""docs/service.md's audit table against the code.

Each row of the table names one mechanism of ``repro.service`` outside
``protocol.py`` and ``loadgen.py``, and ends in its verdict: "kept"
(the mechanism is there) or anything else (it was deleted).  One probe
per row checks the verdict against the tree, so a mechanism re-added
without its row, or a row left behind by a deletion, fails here.
"""

import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
import repro.service as service_package
from repro.service.backends import InMemoryBackend
from repro.service.policy import CancellationToken, Deadline, RetryPolicy
from repro.service.server import RequestResult, ServiceConfig
from repro.service.session import PipelinedSession

DOC = Path(__file__).resolve().parents[2] / "docs" / "service.md"
HEADING = "## Which mechanisms exist, and why: the audit"
PACKAGE = Path(repro.__file__).parent


def audit_rows():
    """``(mechanism, verdict)`` for each row of the audit table."""
    section = DOC.read_text(encoding="utf-8").split(HEADING, 1)[1]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = []
    for line in lines[2:]:  # past the header and its rule
        cells = [cell.strip() for cell in line.strip().strip("|").split(" | ")]
        rows.append((cells[0], cells[-1]))
    return rows


def text(path):
    return (PACKAGE / path).read_text(encoding="utf-8")


def params(callable_):
    return set(inspect.signature(callable_).parameters)


def has(obj, name):
    return hasattr(obj, name)


def fields(cls):
    return {field.name for field in dataclasses.fields(cls)}


#: Does the row's mechanism exist in the tree?
PRESENT = {
    '`CancellationToken.cancel`':
        lambda: '    def cancel(self) -> None:\n        self._event.set()' in text('service/policy.py'),
    '`CancellationToken.cancelled`':
        lambda: '        return self._event.is_set()' in text('service/policy.py'),
    '`CancellationToken.wait` (lint rule `COD006` names it as the fix)':
        lambda: '        return self._event.wait(timeout)' in text('service/policy.py'),
    '`CancellationToken.__repr__`':
        lambda: '__repr__' in vars(CancellationToken),
    '`Deadline.after(None)` never expires':
        lambda: '        if seconds is None:\n            return cls(None)' in text('service/policy.py'),
    'the negative-deadline refusal':
        lambda: '        if seconds < 0:' in text('service/policy.py'),
    '`Deadline.expired`':
        lambda: '        return self.at is not None and time.monotonic() >= self.at' in text('service/policy.py'),
    '`Deadline.remaining` clamps at 0':
        lambda: '        return max(0.0, self.at - time.monotonic())' in text('service/policy.py'),
    '`Deadline.clamp` (a backoff ends at the deadline)':
        lambda: '        return timeout if remaining is None else min(timeout, remaining)' in text('service/policy.py'),
    '`Deadline.__repr__`':
        lambda: '__repr__' in vars(Deadline),
    "`RetryPolicy`'s `max_attempts` refusal":
        lambda: '        if self.max_attempts < 1:' in text('service/policy.py'),
    'the backoff doubles (`BACKOFF_FACTOR`)':
        lambda: 'BACKOFF_BASE_S * BACKOFF_FACTOR ** (failed_attempts - 1)' in text('service/policy.py'),
    'the backoff cap (`BACKOFF_CAP_S`)':
        lambda: '            BACKOFF_CAP_S,\n' in text('service/policy.py'),
    '`RetryPolicy.base_s`':
        lambda: 'base_s' in fields(RetryPolicy),
    '`RetryPolicy.factor`':
        lambda: 'factor' in fields(RetryPolicy),
    '`RetryPolicy.cap_s`':
        lambda: 'cap_s' in fields(RetryPolicy),
    '`RetryPolicy.jitter` (decorrelated jitter)':
        lambda: 'jitter' in fields(RetryPolicy),
    '`RetryPolicy.jitter_seed`':
        lambda: 'jitter_seed' in fields(RetryPolicy),
    '`delay(salt=)`, the request id as jitter salt':
        lambda: 'salt' in params(RetryPolicy.delay),
    'the backoff-parameter refusal':
        lambda: 'invalid backoff parameters' in text('service/policy.py'),
    'the jitter-range refusal':
        lambda: 'jitter must be in' in text('service/policy.py'),
    "`delay(0)`'s refusal":
        lambda: 'delay() is asked after at least one failure' in text('service/policy.py'),
    '`RequestPolicy.start_deadline`':
        lambda: '        return Deadline.after(self.deadline_s)' in text('service/policy.py'),
    "`RequestPolicy.token` hands out the caller's token":
        lambda: '        return self.cancellation if self.cancellation is not None else CancellationToken()' in text('service/policy.py'),
    'a backend blocks unless it says otherwise':
        lambda: '    blocking: bool = True' in text('service/backends.py'),
    '`InMemoryBackend` does not block':
        lambda: '    blocking = False' in text('service/backends.py'),
    '`InMemoryBackend.execute`':
        lambda: '        return frozenset(evaluate_conjunctive_query(executable, database))' in text('service/backends.py'),
    '`InMemoryBackend.__repr__`':
        lambda: '__repr__' in vars(InMemoryBackend),
    'retries stop at `max_attempts`':
        lambda: 'failed_attempts >= self.retry.max_attempts' in text('service/session.py'),
    'an aborted request retries nothing':
        lambda: 'or self.aborted():' in text('service/session.py'),
    'a backoff ends when the session stops':
        lambda: '        self.wake.wait(self.deadline.clamp(seconds))' in text('service/session.py'),
    'an inline backoff ends on cancellation (`wake` is the token)':
        lambda: '        self.wake = self.stop if pipelined else self.token' in text('service/session.py'),
    'an inline plan whose retries an abort cut short is not settled':
        lambda: '                    if item.error is not None and run.aborted():\n                        return None' in text('service/session.py'),
    '`publish` wakes the consumer':
        lambda: '            self.results[rank] = result\n            self.cond.notify_all()' in text('service/session.py'),
    '`take` returns None once aborted (hand-off 3)':
        lambda: '            while not self.aborted():\n                if rank in self.results:' in text('service/session.py'),
    '`_leave_done` puts the marker back':
        lambda: '    with suppress(Full):\n        work_q.put_nowait(_DONE)' in text('service/session.py'),
    '`stream` without a policy is unbounded':
        lambda: '        policy = policy if policy is not None else RequestPolicy()' in text('service/session.py'),
    '`last_report`':
        lambda: '        report = self.last_report = core.report' in text('service/session.py'),
    'only a blocking backend gets the pipeline':
        lambda: '        if pipelined:\n            source = self._pipeline' in text('service/session.py'),
    'the inline path stops once aborted':
        lambda: '                if run.aborted():\n                    return None' in text('service/session.py'),
    "the producer's exception is raised on the consumer":
        lambda: '                            raise item' in text('service/session.py'),
    '`report.exhausted`':
        lambda: '                            report.exhausted = True' in text('service/session.py'),
    'an abort is `cancelled` when the token says so':
        lambda: '                        elif run.token.cancelled:\n                            report.cancelled = True' in text('service/session.py'),
    '`first_k_answers` ends the stream':
        lambda: '                        report.satisfied = True\n                        return' in text('service/session.py'),
    "the producer's put gives up once the session stops (`put_abortable`)":
        lambda: '            while not run.stop.is_set():\n                try:\n                    work_q.put(item, timeout=_TICK_S)' in text('service/session.py'),
    'the producer orders no plan once aborted':
        lambda: '                while not run.aborted():\n                    item = next(plans, None)' in text('service/session.py'),
    'the producer hands its exception over':
        lambda: '            except BaseException as exc:  # surfaced on the consumer' in text('service/session.py'),
    'the producer publishes where the stream ends':
        lambda: '                run.publish(produced + 1, end)' in text('service/session.py'),
    'the producer leaves `_DONE` for the workers':
        lambda: '                run.publish(produced + 1, end)\n                put_abortable(_DONE)' in text('service/session.py'),
    'a worker polling an empty queue leaves once stopped':
        lambda: '                except Empty:\n                    if run.stop.is_set():\n                        return' in text('service/session.py'),
    'a worker passes `_DONE` on':
        lambda: '                run.publish(item.ordered.rank, None if abandoned else item)\n            _leave_done(work_q)' in text('service/session.py'),
    'a worker executes no plan once aborted (hand-off 2)':
        lambda: '                abandoned = run.aborted()' in text('service/session.py'),
    'workers start before the producer':
        lambda: '            for worker in workers:\n                worker.start()\n            producer.start()' in text('service/session.py'),
    'the consumer stops the session on its way out':
        lambda: '        finally:\n            run.stop.set()' in text('service/session.py'),
    'the consumer drains the queue for a blocked producer':
        lambda: '            while producer.is_alive():\n                _drain(work_q)' in text('service/session.py'),
    'the queue is emptied before the final marker':
        lambda: '            _drain(work_q)\n            _leave_done(work_q)\n            for worker' in text('service/session.py'),
    'the final `_DONE` for the workers':
        lambda: '            _drain(work_q)\n            _leave_done(work_q)\n            for worker' in text('service/session.py'),
    'the consumer joins its workers':
        lambda: '                worker.join(timeout=5 * _TICK_S)' in text('service/session.py'),
    '`PipelinedSession.run`':
        lambda: has(PipelinedSession, 'run'),
    '`PipelinedSession(policy=)`':
        lambda: 'policy' in params(PipelinedSession),
    "`PipelinedSession`'s own `executor_workers` check":
        lambda: 'executor_workers must be at least 1' in text('service/session.py'),
    "`PipelinedSession`'s own `queue_depth` check":
        lambda: 'queue_depth must be at least 1' in text('service/session.py'),
    "`ServiceConfig`'s at-least-1 refusals":
        lambda: '            if getattr(self, knob) < 1:' in text('service/server.py'),
    "`ServiceConfig`'s adaptivity refusal":
        lambda: '        if self.adaptivity not in ("auto", "on", "off"):' in text('service/server.py'),
    '`ServiceConfig.admission_timeout_s`':
        lambda: 'admission_timeout_s' in fields(ServiceConfig),
    '`RequestResult.ok`':
        lambda: has(RequestResult, 'ok'),
    '`RequestResult.deadline_exceeded`':
        lambda: has(RequestResult, 'deadline_exceeded'),
    'the unknown-default-measure refusal':
        lambda: '        if self.config.default_measure not in self._measure_factories:' in text('service/server.py'),
    '`QueryService` serves `linear` by default':
        lambda: '{"linear": LinearCost}' in text('service/server.py'),
    '`QueryService(backend=)`':
        lambda: '        self.backend = backend\n' in text('service/server.py'),
    '`shutdown` closes the gate':
        lambda: '        self._closed = True' in text('service/server.py'),
    '`shutdown` waits for requests in flight':
        lambda: '                if not self._permits.acquire(timeout=deadline.remaining()):' in text('service/server.py'),
    '`shutdown` gives the permits back':
        lambda: '                held.callback(self._permits.release)\n\n    # -- request' in text('service/server.py'),
    '`measure_names` is sorted':
        lambda: '        return sorted(self._measure_factories)' in text('service/server.py'),
    'one shared measure per name':
        lambda: '                self._shared_measures[name] = measure' in text('service/server.py'),
    'the unknown-measure refusal':
        lambda: '                except KeyError:' in text('service/server.py'),
    'one parsed query per text (`prepared_query`)':
        lambda: '            query = self._prepared.get(text)' in text('service/server.py'),
    'the text table drops its oldest text (`PREPARED_QUERIES`)':
        lambda: '                    del self._prepared[next(iter(self._prepared))]' in text('service/server.py'),
    'a resilience manager wraps each measure':
        lambda: '                    measure = resilience.health_measure(measure)' in text('service/server.py'),
    'a cacheable measure is cached across requests':
        lambda: '                if measure.cacheable:' in text('service/server.py'),
    'an adaptive request gets `AdaptiveOrderer`':
        lambda: '            return AdaptiveOrderer(' in text('service/server.py'),
    'no adaptivity without a resilience manager':
        lambda: '        if self.resilience is None:\n            return False' in text('service/server.py'),
    "the request's `adaptivity` wins":
        lambda: '        if policy.adaptivity is not None:\n            return policy.adaptivity' in text('service/server.py'),
    '`adaptivity="on"`':
        lambda: '        if self.config.adaptivity == "on":' in text('service/server.py'),
    '`adaptivity="off"`':
        lambda: '        if self.config.adaptivity == "off":' in text('service/server.py'),
    '`adaptivity="auto"` follows the orderer choice':
        lambda: '        return requested_orderer == AUTO_ORDERER' in text('service/server.py'),
    'request ids `req-N` count up':
        lambda: '        return f"req-{next(self._ids)}"' in text('service/server.py'),
    '`prometheus_text` (`serve --metrics-port`)':
        lambda: '        return render_export(self.registry_export())' in text('service/server.py'),
    'the export merges a separate resilience registry':
        lambda: '        if resilience is not None and resilience.registry is not registry:' in text('service/server.py'),
    'the gate sheds beyond `max_concurrent + backlog`':
        lambda: '            if not self._places.acquire(blocking=False):' in text('service/server.py'),
    'a place is given back':
        lambda: '            held.callback(self._places.release)' in text('service/server.py'),
    'the deadline shortens the admission wait':
        lambda: '                wait = min(wait, policy.deadline_s)' in text('service/server.py'),
    'the admission wait times out (`ADMISSION_TIMEOUT_S`)':
        lambda: '            if not self._permits.acquire(timeout=wait):' in text('service/server.py'),
    'a permit is given back':
        lambda: '            held.callback(self._permits.release)\n            if self._closed:' in text('service/server.py'),
    'a closed gate rejects':
        lambda: '            if self._closed:\n                return self._rejected(' in text('service/server.py'),
    '`default_policy` applies to a request without one':
        lambda: '        policy = request.policy or config.default_policy' in text('service/server.py'),
    '`default_measure`':
        lambda: '        measure_name = request.measure or self.config.default_measure' in text('service/server.py'),
    '`default_orderer`':
        lambda: '        requested = request.orderer or self.config.default_orderer' in text('service/server.py'),
    '`auto` resolves per measure':
        lambda: '                orderer_name = resolve_orderer_name(requested, utility)' in text('service/server.py'),
    '`executor_workers` / `queue_depth` reach the session':
        lambda: '                executor_workers=self.config.executor_workers,' in text('service/server.py'),
    '`on_batch` sees each batch':
        lambda: '                    on_batch(batch)' in text('service/server.py'),
    'the result collects the answers':
        lambda: '                answers.update(batch.new_answers)' in text('service/server.py'),
    'the result collects the batches':
        lambda: '                batches.append(batch)' in text('service/server.py'),
    'the missing-report check after the stream':
        lambda: '            if report is None:' in text('service/server.py'),
    "an error message names a foreign exception's type":
        lambda: '                if isinstance(exc, ReproError)' in text('service/server.py'),
    "a library error's message is bare":
        lambda: '                if isinstance(exc, ReproError)' in text('service/server.py'),
    'the handler disables Nagle':
        lambda: '    disable_nagle_algorithm = True' in text('service/frontend.py'),
    'a broken connection ends quietly':
        lambda: '        except (OSError, ValueError):' in text('service/frontend.py'),
    'the request-line bound':
        lambda: '            if len(line) > limit:' in text('service/frontend.py'),
    'blank lines are skipped':
        lambda: '            if not line.strip():' in text('service/frontend.py'),
    'control records are answered inline':
        lambda: '                if kind in protocol.CONTROL_TYPES:' in text('service/frontend.py'),
    'an unknown record type is a `bad_request`':
        lambda: 'raise ProtocolError(f"unsupported record type {kind!r}")' in text('service/frontend.py'),
    "a `bad_request` carries the record's id":
        lambda: '                    protocol.error_record(request_id, "bad_request", str(exc))' in text('service/frontend.py'),
    '`_send_raw` reports a hung-up client':
        lambda: '        except (BrokenPipeError, ConnectionResetError):\n            return False' in text('service/frontend.py'),
    'a hang-up cancels the request':
        lambda: '                hung_up.cancel()' in text('service/frontend.py'),
    'the handler names the request before it runs':
        lambda: 'request.request_id or service.next_request_id()' in text('service/frontend.py'),
    "the handler parses through the service's table":
        lambda: '            parse=service.prepared_query,' in text('service/frontend.py'),
    '`request.received`':
        lambda: '"request.received"' in text('service/frontend.py'),
    'a shed request is an `overloaded` record':
        lambda: '"overloaded"' in text('service/frontend.py'),
    'an `error` result is an `error` record':
        lambda: '        if result.status == "error":' in text('service/frontend.py'),
    '`ServiceTCPServer` reuses its address':
        lambda: '    allow_reuse_address = True\n    daemon_threads = True\n\n    def __init__(\n        self,\n        address: tuple[str, int],\n        service' in text('service/frontend.py'),
    "`ServiceTCPServer`'s daemon handler threads":
        lambda: '    allow_reuse_address = True\n    daemon_threads = True\n\n    def __init__(\n        self,\n        address: tuple[str, int],\n        service' in text('service/frontend.py'),
    'health replies echo the identity':
        lambda: 'identity=self.identity)' in text('service/frontend.py'),
    'a `metrics` record carries the export':
        lambda: '            request_id, self.service.registry_export()' in text('service/frontend.py'),
    '`start_server` polls every 50 ms':
        lambda: '        kwargs={"poll_interval": 0.05},\n        name="repro-serve",' in text('service/frontend.py'),
    '`connect` disables Nagle':
        lambda: '    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)' in text('service/frontend.py'),
    "`connect`'s reads time out":
        lambda: '    sock.settimeout(timeout)' in text('service/frontend.py'),
    '`/metrics` logs no request line':
        lambda: '    def log_message(self, format: str, *args: object) -> None:' in text('service/metricsd.py'),
    'a query string is ignored':
        lambda: '        path = self.path.split("?", 1)[0]' in text('service/metricsd.py'),
    'a failed render is a 500':
        lambda: '            except Exception as exc:  # lint: allow[COD004] surface as 500' in text('service/metricsd.py'),
    '`/healthz`':
        lambda: '        elif path == "/healthz":' in text('service/metricsd.py'),
    'other paths are 404':
        lambda: '            self._respond(404, b"not found\\n")' in text('service/metricsd.py'),
    'the exposition content type':
        lambda: '            self._respond(200, body, content_type=CONTENT_TYPE)' in text('service/metricsd.py'),
    '`Content-Length`':
        lambda: '        self.send_header("Content-Length", str(len(body)))' in text('service/metricsd.py'),
    'a scraper that went away ends quietly':
        lambda: '        except (BrokenPipeError, ConnectionResetError):\n            pass  # scraper' in text('service/metricsd.py'),
    '`MetricsHTTPServer` reuses its address':
        lambda: '    allow_reuse_address = True\n    daemon_threads = True\n\n    def __init__(\n        self, address: tuple[str, int], text_fn' in text('service/metricsd.py'),
    "`MetricsHTTPServer`'s daemon handler threads":
        lambda: '    allow_reuse_address = True\n    daemon_threads = True\n\n    def __init__(\n        self, address: tuple[str, int], text_fn' in text('service/metricsd.py'),
    '`start_metrics_server` polls every 50 ms':
        lambda: '        kwargs={"poll_interval": 0.05},\n        name="repro-metricsd",' in text('service/metricsd.py'),
    "`service_workload`'s unknown-workload refusal":
        lambda: '        raise ServiceError(\n            f"unknown workload' in text('service/workloads.py'),
    'the `repro.service` re-exports':
        lambda: has(service_package, 'QueryService'),
}


def test_every_row_has_a_probe():
    assert sorted(mechanism for mechanism, _ in audit_rows()) == sorted(PRESENT)


@pytest.mark.parametrize(
    "mechanism, verdict", audit_rows(), ids=[row[0] for row in audit_rows()]
)
def test_the_verdict_matches_the_tree(mechanism, verdict):
    assert PRESENT[mechanism]() == verdict.startswith("kept")
