"""The JSON-lines wire protocol of the query service.

One request or response per line, UTF-8 JSON, newline-terminated.
Stdlib only — any `nc`/`telnet`/`socket` client can drive the server.

Client → server (one object per query)::

    {"type": "query", "id": "q1", "query": "q(X) :- rel0(X, Y)",
     "measure": "linear", "orderer": "greedy",
     "deadline_s": 2.0, "max_plans": 10, "first_k_answers": 5,
     "retry_attempts": 3, "adaptive": true}

Only ``query`` is required; everything else defaults server-side.
``adaptive`` overrides the server's mid-stream re-ordering default
(see ``ServiceConfig.adaptivity``) for this request only.

Server → client, streamed as plans finish::

    {"type": "batch", "id": "q1", "rank": 1, "plan": ["v3", "v5"],
     "utility": -12.5, "sound": true, "skipped": false, "failed": false,
     "answers": [["a", "b"]], "new_answers": [["a", "b"]]}
    ...
    {"type": "summary", "id": "q1", "status": "ok", "plans": 9,
     "answers": 4, "deadline_exceeded": false,
     "plans_skipped": 0, "sources_skipped": [], "answers_partial": false,
     "breaker_states": {}, ...}

Degradation accounting is always present: ``skipped`` marks a plan a
circuit breaker blocked, ``failed`` one that exhausted its retries,
and every summary carries ``plans_skipped`` / ``plans_failed`` /
``sources_skipped`` / ``answers_partial`` / ``breaker_states`` (see
``docs/resilience.md``).

Errors (bad request, overload) are terminal for that request::

    {"type": "error", "id": "q1", "code": "overloaded", "message": "..."}

A request line longer than :data:`MAX_REQUEST_LINE_BYTES` is answered
with one ``bad_request`` error, and the server closes the connection.

Besides queries, two **control records** are answered immediately (one
reply line each) — the cluster layer's probe-and-scrape primitives,
but any client may send them::

    {"type": "health"}   -> {"type": "health", "status": "ok", ...}
    {"type": "metrics"}  -> {"type": "metrics", "metrics": {...}}

A health reply echoes the server's identity fields (e.g. the worker's
``shard`` number); a metrics reply carries the full
``MetricRegistry.as_dict()`` export, which the router feeds to
:meth:`~repro.observability.metrics.MetricRegistry.merge` for
cross-shard aggregation.

Values inside answer tuples are JSON scalars when possible and
``str()``-ified otherwise; rows are sorted so payloads are stable
across runs and safe to diff in tests.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.errors import ParseError, ProtocolError
from repro.datalog.parser import parse_query
from repro.execution.mediator import AnswerBatch
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, RequestResult

__all__ = [
    "CONTROL_TYPES",
    "MAX_REQUEST_LINE_BYTES",
    "PROTOCOL_VERSION",
    "RECORD_TYPES",
    "batch_record",
    "decode_line",
    "encode_line",
    "error_record",
    "health_record",
    "metrics_record",
    "request_record",
    "request_from_record",
    "summary_record",
]

PROTOCOL_VERSION = 1

#: The longest request line, newline included, a server reads; query
#: lines are under a kilobyte.  A longer one is answered ``bad_request``
#: and its connection closed, so no client can make a server buffer more.
MAX_REQUEST_LINE_BYTES = 1 << 20

#: Record types answered with exactly one reply line, no session.
CONTROL_TYPES = ("health", "metrics")

#: The closed record-type table: every ``type`` value legal on the
#: wire, mapped to the fields *any* instance of it must carry.  The
#: sets are minimal-for-any-instance — a bare ``{"type": "health"}``
#: probe is a complete request even though replies carry more — so the
#: static checker (``CON005``) can hold every record literal in the
#: frontend/router to them without flagging legitimate short forms.
RECORD_TYPES: dict[str, frozenset[str]] = {
    "query": frozenset({"query"}),
    "batch": frozenset(
        {
            "id",
            "rank",
            "plan",
            "utility",
            "sound",
            "skipped",
            "failed",
            "answers",
            "new_answers",
        }
    ),
    "summary": frozenset({"id", "status"}),
    "error": frozenset({"id", "code", "message"}),
    "health": frozenset(),
    "metrics": frozenset(),
}

_SCALARS = (str, int, float, bool, type(None))


def _rows(batch: AnswerBatch) -> tuple[list[list[object]], list[list[object]]]:
    """The ``answers`` and ``new_answers`` rows of *batch*, JSON-ready.

    Each row is converted, and keyed by its ``repr``, once; ``answers``
    is sorted once, and ``new_answers`` -- a subset of ``answers`` by
    construction of a batch -- is read off as the new rows among them:
    a sub-sequence of a sorted list is sorted.
    """
    answers = list(batch.answers)
    rows = [[v if isinstance(v, _SCALARS) else str(v) for v in row] for row in answers]
    order = sorted(range(len(rows)), key=list(map(repr, rows)).__getitem__)
    new = batch.new_answers
    return [rows[i] for i in order], [rows[i] for i in order if answers[i] in new]


def encode_line(record: dict) -> bytes:
    """One wire line (including the terminating newline)."""
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ProtocolError(f"expected a JSON object, got {type(record).__name__}")
    return record


# -- client-side encoding --------------------------------------------------------


def request_record(
    query_text: str,
    *,
    request_id: Optional[str] = None,
    measure: Optional[str] = None,
    orderer: Optional[str] = None,
    deadline_s: Optional[float] = None,
    max_plans: Optional[int] = None,
    first_k_answers: Optional[int] = None,
    retry_attempts: Optional[int] = None,
    adaptive: Optional[bool] = None,
) -> dict:
    record: dict = {"type": "query", "query": query_text}
    if request_id is not None:
        record["id"] = request_id
    for key, value in (
        ("measure", measure),
        ("orderer", orderer),
        ("deadline_s", deadline_s),
        ("max_plans", max_plans),
        ("first_k_answers", first_k_answers),
        ("retry_attempts", retry_attempts),
        ("adaptive", adaptive),
    ):
        if value is not None:
            record[key] = value
    return record


# -- server-side decoding --------------------------------------------------------


def request_from_record(
    record: dict, *, default_policy: Optional[RequestPolicy] = None
) -> QueryRequest:
    """Parse a ``query`` record into a :class:`QueryRequest`.

    Raises :class:`~repro.errors.ProtocolError` on malformed records
    so the front end can answer with an error record instead of
    dropping the connection.
    """
    kind = record.get("type", "query")
    if kind != "query":
        raise ProtocolError(f"unsupported record type {kind!r}")
    text = record.get("query")
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError("missing 'query' text")
    try:
        query = parse_query(text)
    except ParseError as exc:
        raise ProtocolError(f"unparsable query: {exc}") from None

    defaults = default_policy if default_policy is not None else RequestPolicy()

    def _number(key: str, kind_check, minimum) -> Optional[float]:
        value = record.get(key)
        if value is None:
            return None
        if not isinstance(value, kind_check) or isinstance(value, bool):
            raise ProtocolError(f"{key!r} must be a number, got {value!r}")
        if value < minimum:
            raise ProtocolError(f"{key!r} must be >= {minimum}, got {value!r}")
        return value

    deadline_s = _number("deadline_s", (int, float), 0)
    max_plans = _number("max_plans", int, 1)
    first_k = _number("first_k_answers", int, 1)
    retry_attempts = _number("retry_attempts", int, 1)

    adaptive = record.get("adaptive")
    if adaptive is not None and not isinstance(adaptive, bool):
        raise ProtocolError(
            f"'adaptive' must be a boolean, got {adaptive!r}"
        )

    policy = RequestPolicy(
        deadline_s=deadline_s if deadline_s is not None else defaults.deadline_s,
        max_plans=int(max_plans) if max_plans is not None else defaults.max_plans,
        first_k_answers=(
            int(first_k) if first_k is not None else defaults.first_k_answers
        ),
        retry=(
            RetryPolicy(
                max_attempts=int(retry_attempts),
                base_s=defaults.retry.base_s,
                factor=defaults.retry.factor,
                cap_s=defaults.retry.cap_s,
                jitter=defaults.retry.jitter,
                jitter_seed=defaults.retry.jitter_seed,
            )
            if retry_attempts is not None
            else defaults.retry
        ),
        adaptivity=adaptive if adaptive is not None else defaults.adaptivity,
    )
    return QueryRequest(
        query=query,
        request_id=str(record.get("id", "")),
        measure=record.get("measure"),
        orderer=record.get("orderer"),
        policy=policy,
    )


# -- server-side encoding --------------------------------------------------------


def batch_record(request_id: str, batch: AnswerBatch) -> dict:
    answers, new_answers = _rows(batch)
    return {
        "type": "batch",
        "id": request_id,
        "rank": batch.rank,
        "plan": list(batch.plan.key),
        "utility": batch.utility,
        "sound": batch.sound,
        "skipped": batch.skipped,
        "failed": batch.failed,
        "answers": answers,
        "new_answers": new_answers,
    }


def summary_record(result: RequestResult) -> dict:
    record: dict = {
        "type": "summary",
        "id": result.request_id,
        "status": result.status,
        "protocol": PROTOCOL_VERSION,
        "batches": len(result.batches),
        "answers": len(result.answers),
    }
    if result.report is not None:
        record.update(result.report.as_dict())
        record["status"] = result.status
    if result.spans:
        record["spans"] = result.spans
    return record


def error_record(request_id: str, code: str, message: str) -> dict:
    return {
        "type": "error",
        "id": request_id,
        "code": code,
        "message": message,
    }


# -- control records -------------------------------------------------------------


def health_record(
    request_id: str = "", *, identity: Optional[dict] = None
) -> dict:
    """A liveness reply: ``status: ok`` plus the server's identity."""
    record: dict = {"type": "health", "id": request_id, "status": "ok"}
    if identity:
        record.update(identity)
    return record


def metrics_record(request_id: str, metrics: dict) -> dict:
    """A metrics-scrape reply carrying a registry ``as_dict`` export."""
    return {"type": "metrics", "id": request_id, "metrics": metrics}
