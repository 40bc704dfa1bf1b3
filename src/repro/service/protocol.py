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

A served request encodes each distinct answer row once: its
:class:`BatchLines` keeps the rows it has written, as a sort key and a
JSON fragment each, and builds the lines that repeat a row from those
(most rows of a batch's ``answers`` were new in an earlier batch).  The
line bytes are unchanged -- those of ``encode_line(batch_record(id,
batch))``; :func:`batch_record` stays the one-shot, decoded form and the
reference the encoder is tested against.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import ParseError, ProtocolError
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.execution.mediator import AnswerBatch
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, RequestResult

__all__ = [
    "BatchLines",
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

#: The JSON dialect of every line: sorted keys, ASCII only, ``str()``
#: for a value JSON has no type for.
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def _chunk_encoder():
    """``_ENCODER``'s text of one value, in chunks, without its set-up cost.

    ``_ENCODER.encode`` builds a fresh encoder on every call, which is
    most of the price of encoding one short row; the stdlib's C encoder,
    built once with the same settings, writes the same text.  Where the
    C encoder is absent, ``encode`` itself.
    """
    if c_make_encoder is None:
        return lambda value, _indent: (_ENCODER.encode(value),)
    return c_make_encoder(
        None,  # no circular-reference markers: rows and fields are flat
        _ENCODER.default,
        encode_basestring_ascii,
        None,
        _ENCODER.key_separator,
        _ENCODER.item_separator,
        _ENCODER.sort_keys,
        _ENCODER.skipkeys,
        _ENCODER.allow_nan,
    )


#: ``(value, 0)`` -> the chunks of *value*'s JSON text as
#: :func:`encode_line` writes it (the C encoder's calling convention).
_json_chunks = _chunk_encoder()


def _json_text(value: object) -> str:
    return "".join(_json_chunks(value, 0))


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


#: The value types whose equal values share one wire form, and which
#: :func:`_rows` passes through unchanged.  A row with any other value
#: can equal a row the mediator already announced and still be written
#: differently (``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0``), so
#: :class:`BatchLines` keeps no such row.
_PLAIN = frozenset({str, type(None)})


def _row_entries(rows: Iterable[tuple]) -> Iterator[tuple[str, str]]:
    """Each of *rows*, all values plain, as :func:`_rows` keys and writes it.

    That is (``repr`` of the row as a list, its JSON text).
    """
    values = list(map(list, rows))
    return zip(map(repr, values), map("".join, map(_json_chunks, values, repeat(0))))


def _joined(entries: list[tuple[str, str]]) -> str:
    """The JSON texts of *entries*, in key order, as one array's inside."""
    entries.sort(key=itemgetter(0))
    return ", ".join([text for _, text in entries])


def encode_line(record: dict) -> bytes:
    """One wire line (including the terminating newline)."""
    return (_ENCODER.encode(record) + "\n").encode("utf-8")


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
    record: dict, *, default_policy: Optional[RequestPolicy] = None,
    parse: Callable[[str], ConjunctiveQuery] = parse_query,
) -> QueryRequest:
    """Parse a ``query`` record into a :class:`QueryRequest`; a server's
    *parse* is :meth:`QueryService.prepared_query`.

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
        query = parse(text)
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
            RetryPolicy(max_attempts=int(retry_attempts))
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
    return _batch_record(request_id, batch, *_rows(batch))


def _batch_record(
    request_id: str, batch: AnswerBatch, answers: list, new_answers: list
) -> dict:
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


class BatchLines:
    """One request's batch lines, with each distinct answer row encoded once.

    ``line(batch)`` is byte for byte ``encode_line(batch_record(request_id,
    batch))``.  A row is encoded, to its sort key and JSON text, the first
    time a line lists it -- by how ``AnytimeRun.settle`` builds batches,
    when a batch announces it new -- and every later line that repeats it
    reads the table.  ``new_answers`` is chosen by row, never by text:
    distinct rows can share a wire form (a function term and its
    ``str()``).  Once a line lists an untabled row with a value outside
    :data:`_PLAIN`, the table is dropped and that line and every later
    one are encoded whole, as :func:`batch_record` does.  The other
    fields are :func:`batch_record`'s too, encoded with both arrays empty
    and the arrays spliced in.  Create one per request and drop it with
    the request: the table holds every plain row the request listed.
    """

    def __init__(self, request_id: str) -> None:
        self._request_id = request_id
        self._rows: Optional[dict[tuple, tuple[str, str]]] = {}

    def line(self, batch: AnswerBatch) -> bytes:
        rows, answers = self._rows, batch.answers
        if rows is not None:
            fresh = answers.difference(rows)
            # Stops at the first value that is not plain.
            if not _PLAIN.issuperset(map(type, chain.from_iterable(fresh))):
                self._rows = rows = None
        if rows is None:
            return encode_line(batch_record(self._request_id, batch))
        entries = list(_row_entries(fresh))
        rows.update(zip(fresh, entries))
        if len(fresh) < len(answers):
            entries = list(map(rows.__getitem__, answers))
        listed = _joined(entries)
        new = batch.new_answers
        announced = (
            listed
            if new == answers
            else _joined(list(map(rows.__getitem__, new & answers)))
        )
        # Neither key text can occur elsewhere in the record: inside a
        # JSON string every '"' is escaped.
        head, rest = _json_text(_batch_record(self._request_id, batch, [], [])).split(
            '"answers": []', 1
        )
        middle, tail = rest.split('"new_answers": []', 1)
        return (
            f'{head}"answers": [{listed}]{middle}'
            f'"new_answers": [{announced}]{tail}\n'
        ).encode("utf-8")


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
