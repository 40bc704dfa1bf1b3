"""The structured event journal: one correlated stream per request.

The tracer and the metric registry aggregate; they answer "how much"
but not "what happened, in which order, to which request".  The
:class:`EventJournal` is the third leg: a thread-safe JSON-lines
emitter recording discrete lifecycle events — a query arriving at the
TCP front end, the service admitting it, every plan the session
processes (executed / skipped / failed / unsound), each retry, each
breaker transition, and the answer-progress marks the anytime argument
is judged on (time-to-first-answer, time-to-k-th-answer).

Every event carries a **request correlation id** so one ``grep`` of
the journal file reconstructs a request's entire path through
frontend → server → session → mediator → resilience.  Plan events
additionally carry the plan's ``rank``, correlating them with the
wire-protocol batch records.

Journalling is opt-in exactly like tracing: the module-level
:data:`NOOP_JOURNAL` is the default everywhere, its :meth:`emit`
returns after a single attribute check, and hot paths with several
fields to assemble guard on ``journal.enabled`` first.  The journal is
a sink, not a store: each event is written to its stream as it
happens and nothing is kept, so a long-running server's journal costs
no memory; :func:`read_jsonl` reads a stream back.

The event vocabulary is closed: :data:`EVENT_SCHEMA` names every event
type and the fields it must carry, and :func:`validate_event` enforces
it — the schema is a contract with external log tooling, not
documentation that drifts.  See ``docs/observability.md`` for the
rendered table.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO, Iterator, Mapping, Optional

from repro.errors import ObservabilityError

__all__ = [
    "EVENT_SCHEMA",
    "EventJournal",
    "NOOP_JOURNAL",
    "validate_event",
]

#: Required fields per event type, *beyond* the envelope fields
#: (``event``, ``seq``, ``ts``, ``request_id``) every record carries.
#: Extra fields are allowed; missing required ones are a bug.
EVENT_SCHEMA: dict[str, frozenset[str]] = {
    # -- request lifecycle (frontend + server) --------------------------------
    "request.received": frozenset({"query"}),
    "request.admitted": frozenset({"measure", "orderer"}),
    "request.rejected": frozenset({"code", "message"}),
    "request.completed": frozenset(
        {"status", "plans", "answers", "elapsed_s", "first_answer_s"}
    ),
    # -- per-plan lifecycle (session + mediator) ------------------------------
    "plan.emitted": frozenset({"rank", "plan", "utility", "sound"}),
    "plan.executed": frozenset({"rank", "answers", "new_answers", "execute_s"}),
    "plan.unsound": frozenset({"rank"}),
    "plan.skipped": frozenset({"rank", "sources"}),
    "plan.failed": frozenset({"rank", "error"}),
    "plan.retry": frozenset({"rank", "attempt", "delay_s"}),
    # A mid-stream re-sort of the remaining plan space (adaptive
    # orderer).  The shift witness makes the decision auditable:
    # ``old_head`` was about to be emitted at ``rank``, its re-scored
    # utility ``head_utility`` no longer dominated the residual
    # frontier's upper bound ``frontier_hi`` under health epoch
    # ``epoch``.
    "plan.reordered": frozenset(
        {"rank", "epoch", "old_head", "head_utility", "frontier_hi"}
    ),
    # -- answer progress (the anytime quantities) -----------------------------
    "answer.first": frozenset({"rank", "elapsed_s"}),
    "answer.progress": frozenset({"rank", "answers", "elapsed_s"}),
    # -- resilience -----------------------------------------------------------
    "source.failure": frozenset({"sources", "error"}),
    "breaker.transition": frozenset({"source", "from_state", "to_state"}),
    # The monotone health-epoch counter advanced; ``reason`` is one of
    # ``source.failure`` / ``recovery`` / ``breaker.transition``.
    "health.epoch": frozenset({"epoch", "reason"}),
    # -- cluster (router + supervisor) ----------------------------------------
    "cluster.routed": frozenset({"shard"}),
    "cluster.worker": frozenset({"shard", "state"}),
}

#: Envelope fields present on every record.
ENVELOPE_FIELDS = ("event", "seq", "ts", "request_id")


def validate_event(record: dict) -> None:
    """Raise :class:`~repro.errors.ObservabilityError` on a bad record.

    A record is valid when it carries the full envelope, names a known
    event type, and has every field that type requires.
    """
    for field in ENVELOPE_FIELDS:
        if field not in record:
            raise ObservabilityError(
                f"journal record missing envelope field {field!r}: {record!r}"
            )
    event = record["event"]
    required = EVENT_SCHEMA.get(event)
    if required is None:
        raise ObservabilityError(
            f"unknown journal event type {event!r}; "
            f"known: {', '.join(sorted(EVENT_SCHEMA))}"
        )
    missing = sorted(required - record.keys())
    if missing:
        raise ObservabilityError(
            f"journal event {event!r} missing fields {missing}: {record!r}"
        )


class EventJournal:
    """Thread-safe event emitter that keeps nothing per event.

    ``stream`` is any text-file-like object; each event is written to
    it as one JSON line and flushed, so ``tail -f`` works and a crash
    loses nothing already emitted.  ``len(journal)`` counts the events
    emitted; without a stream that count is all that remains.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        stream: Optional[IO[str]] = None,
        tags: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.enabled = enabled
        #: Constant fields stamped on every record — how a cluster
        #: worker marks all its events with its ``shard`` id, so one
        #: request_id reconstructs a request's whole cross-process path
        #: after the per-shard journal files are concatenated.
        self.tags = dict(tags) if tags else {}
        for reserved in ENVELOPE_FIELDS:
            if reserved in self.tags:
                raise ObservabilityError(
                    f"journal tag {reserved!r} collides with an envelope field"
                )
        self._stream = stream
        self._lock = threading.Lock()
        self._seq = 0

    def emit(self, event: str, *, request_id: str = "", **fields: object) -> None:
        """Record one event (no-op when disabled).

        The envelope (``seq``, ``ts``, ``request_id``) is added here;
        ``seq`` is a process-unique monotonically increasing integer,
        so merged journals from several components still sort into one
        coherent timeline.
        """
        if not self.enabled:
            return
        record: dict = {"event": event, "request_id": request_id}
        if self.tags:
            record.update(self.tags)
        record.update(fields)
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            record["ts"] = time.time()
            stream = self._stream
            if stream is not None:
                stream.write(json.dumps(record, sort_keys=True, default=str))
                stream.write("\n")
                stream.flush()

    def bind(self, request_id: str) -> "BoundJournal":
        """A view that stamps *request_id* on every emitted event."""
        return BoundJournal(self, request_id)

    def __len__(self) -> int:
        """The number of events emitted so far."""
        with self._lock:
            return self._seq


class BoundJournal:
    """A journal view with the request correlation id pre-filled.

    Everything a session or mediator needs: ``emit`` (without having
    to thread the id through every call site) and the ``enabled``
    guard for hot paths.  Binding a bound journal re-binds (the new id
    wins), so nesting is harmless.
    """

    __slots__ = ("_journal", "request_id")

    def __init__(self, journal: EventJournal, request_id: str) -> None:
        self._journal = journal
        self.request_id = request_id

    @property
    def enabled(self) -> bool:
        return self._journal.enabled

    def emit(self, event: str, **fields: object) -> None:
        self._journal.emit(event, request_id=self.request_id, **fields)

    def bind(self, request_id: str) -> "BoundJournal":
        return BoundJournal(self._journal, request_id)


def read_jsonl(lines: Iterator[str] | list[str]) -> list[dict]:
    """Parse journal JSON lines back into records (tooling helper)."""
    records = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"bad journal line {line!r}: {exc}") from None
        if not isinstance(record, dict):
            raise ObservabilityError(f"journal line is not an object: {line!r}")
        records.append(record)
    return records


#: The default journal: permanently disabled, shared by everyone.
NOOP_JOURNAL = EventJournal(enabled=False)
