"""Tests for the structured event journal."""

import io
import json
import os
import threading
import tracemalloc
from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.execution.mediator import Mediator
from repro.observability.journal import (
    ENVELOPE_FIELDS,
    EVENT_SCHEMA,
    EventJournal,
    NOOP_JOURNAL,
    read_jsonl,
    validate_event,
)
from repro.service.server import QueryRequest, QueryService
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost
from tests.journal_reader import events
from tests.service.helpers import BACKENDS, run

#: One representative payload per event type, used to prove the whole
#: vocabulary round-trips through emit -> validate -> jsonl -> parse.
SAMPLE_FIELDS: dict[str, dict] = {
    "request.received": {"query": "q(X) :- rel0(X)"},
    "request.admitted": {"measure": "linear", "orderer": "greedy"},
    "request.rejected": {"code": "overloaded", "message": "queue full"},
    "request.completed": {
        "status": "ok", "plans": 4, "answers": 7,
        "elapsed_s": 0.25, "first_answer_s": 0.03,
    },
    "plan.emitted": {
        "rank": 1, "plan": ["v1", "v4"], "utility": 3.5, "sound": True,
    },
    "plan.executed": {
        "rank": 1, "answers": 5, "new_answers": 5, "execute_s": 0.01,
    },
    "plan.unsound": {"rank": 2},
    "plan.skipped": {"rank": 3, "sources": ["v2"]},
    "plan.failed": {"rank": 4, "error": "TransientExecutionError"},
    "plan.retry": {"rank": 4, "attempt": 1, "delay_s": 0.05},
    "plan.reordered": {
        "rank": 3, "epoch": 2, "old_head": ["v1", "v4"],
        "head_utility": -9.5, "frontier_hi": -4.0,
    },
    "answer.first": {"rank": 1, "elapsed_s": 0.03},
    "answer.progress": {"rank": 1, "answers": 5, "elapsed_s": 0.03},
    "source.failure": {"sources": ["v2"], "error": "ChaosError"},
    "breaker.transition": {
        "source": "v2", "from_state": "closed", "to_state": "open",
    },
    "health.epoch": {"epoch": 3, "reason": "source.failure"},
    "cluster.routed": {"shard": 1},
    "cluster.worker": {"shard": 1, "state": "restarted"},
}


class TestSchema:
    def test_every_event_type_has_a_sample(self):
        assert set(SAMPLE_FIELDS) == set(EVENT_SCHEMA)

    @pytest.mark.parametrize("event", sorted(EVENT_SCHEMA))
    def test_schema_round_trip(self, event):
        """Emit -> stream -> read_jsonl -> validate, per event type."""
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        journal.emit(event, request_id="req-1", **SAMPLE_FIELDS[event])
        (record,) = read_jsonl(sink.getvalue().splitlines())
        validate_event(record)
        assert record["event"] == event
        assert record["request_id"] == "req-1"
        assert record["seq"] == 1
        assert isinstance(record["ts"], float)
        for field in EVENT_SCHEMA[event]:
            assert field in record

    def test_the_documented_table_is_the_schema(self):
        doc = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
        table = doc.read_text(encoding="utf-8").split(
            "| event | required fields | emitted by |", 1
        )[1].split("\n\n", 1)[0]
        documented = {}
        for line in table.splitlines()[2:]:
            event, fields = line.strip("|").split(" | ")[:2]
            documented[event.strip(" `")] = frozenset(
                field.strip(" `") for field in fields.split(",")
            )
        assert documented == EVENT_SCHEMA

    def test_unknown_event_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown journal event"):
            validate_event(
                {"event": "nope", "seq": 1, "ts": 0.0, "request_id": ""}
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(ObservabilityError, match="missing fields"):
            validate_event(
                {"event": "plan.unsound", "seq": 1, "ts": 0.0,
                 "request_id": ""}
            )

    def test_missing_envelope_rejected(self):
        with pytest.raises(ObservabilityError, match="envelope"):
            validate_event({"event": "plan.unsound", "rank": 1})

    def test_envelope_fields_are_stable(self):
        # External log tooling greps on these; renaming is a breaking
        # change that must be deliberate.
        assert ENVELOPE_FIELDS == ("event", "seq", "ts", "request_id")


class TestEventJournal:
    def test_disabled_emits_nothing(self):
        journal = EventJournal(enabled=False)
        journal.emit("plan.unsound", rank=1)
        assert len(journal) == 0

    def test_noop_journal_is_disabled(self):
        assert not NOOP_JOURNAL.enabled
        NOOP_JOURNAL.emit("plan.unsound", rank=1)
        assert len(NOOP_JOURNAL) == 0

    def test_len_counts_the_events_emitted(self):
        journal = EventJournal()
        for rank in range(5):
            journal.emit("plan.unsound", rank=rank)
        assert len(journal) == 5

    def test_seq_is_monotonic(self):
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        for rank in range(5):
            journal.emit("plan.unsound", rank=rank)
        assert [record["seq"] for record in events(sink)] == [1, 2, 3, 4, 5]

    def test_bind_stamps_request_id(self):
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        bound = journal.bind("req-9")
        assert bound.enabled
        bound.emit("plan.unsound", rank=1)
        (record,) = events(sink)
        assert record["request_id"] == "req-9"

    def test_bind_rebinding_replaces_id(self):
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        rebound = journal.bind("old").bind("new")
        rebound.emit("plan.unsound", rank=1)
        assert events(sink)[0]["request_id"] == "new"

    def test_stream_mirrors_every_event(self):
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        journal.emit("plan.unsound", request_id="r", rank=1)
        journal.emit("plan.unsound", request_id="r", rank=2)
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        for record in parsed:
            validate_event(record)
        assert [r["rank"] for r in parsed] == [1, 2]

    def test_each_event_is_flushed(self, tmp_path):
        """What ``tail -f`` (and a crashed server's journal) shows: the
        event is in the file while the sink is still open."""
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as sink:
            EventJournal(stream=sink).emit("plan.unsound", rank=1)
            (record,) = read_jsonl(path.read_text(encoding="utf-8").splitlines())
        assert record["rank"] == 1

    def test_the_journal_keeps_nothing(self):
        """A sink, not a store: 10 000 events leave no memory behind."""
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            journal = EventJournal(stream=devnull)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for rank in range(10_000):
                    journal.emit(
                        "plan.executed", request_id="r", rank=rank,
                        answers=3, new_answers=1, execute_s=0.001,
                    )
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert len(journal) == 10_000
        assert kept < 512 * 1024

    def test_concurrent_emits_lose_nothing(self):
        sink = io.StringIO()
        journal = EventJournal(stream=sink)
        per_thread = 200

        def emitter(worker: int) -> None:
            for rank in range(per_thread):
                journal.emit(
                    "plan.unsound", request_id=f"w{worker}", rank=rank
                )

        threads = [
            threading.Thread(target=emitter, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(journal) == 4 * per_thread
        seqs = sorted(r["seq"] for r in events(sink))
        assert seqs == list(range(1, 4 * per_thread + 1))


def _drain_mediator(movies):
    mediator = Mediator(movies.catalog, movies.source_facts)
    return list(mediator.answer(movies.query, LinearCost()))


def _drain_session(backend):
    def drain(movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        session = PipelinedSession(mediator, backend=BACKENDS[backend]())
        batches, _report = run(session, movies.query, LinearCost())
        return batches

    return drain


def _drain_service(movies):
    service = QueryService(movies.catalog, movies.source_facts)
    try:
        return service.execute(QueryRequest(movies.query)).batches
    finally:
        service.shutdown()


#: Every driver of the anytime loop, each with the default journal.
DRAINS = {
    "mediator": _drain_mediator,
    "session-inline": _drain_session("inline"),
    "session-pipelined": _drain_session("pipelined"),
    "service": _drain_service,
}


@pytest.mark.parametrize("path", sorted(DRAINS))
def test_disabled_journal_is_never_called(path, movies, monkeypatch):
    """With the default ``NOOP_JOURNAL`` no request calls ``emit`` at
    all: every hook on the request path is behind an ``enabled`` guard,
    so disabled journalling costs a flag read per stage, not a call."""
    calls = []
    monkeypatch.setattr(
        EventJournal, "emit",
        lambda self, event, **fields: calls.append(event),
    )
    batches = DRAINS[path](movies)
    assert any(batch.new_answers for batch in batches)
    assert calls == []


class TestReadJsonl:
    def test_blank_lines_skipped(self):
        assert read_jsonl(["", "  ", '{"event": "x"}']) == [{"event": "x"}]

    def test_bad_json_rejected(self):
        with pytest.raises(ObservabilityError, match="bad journal line"):
            read_jsonl(["{nope"])

    def test_non_object_rejected(self):
        with pytest.raises(ObservabilityError, match="not an object"):
            read_jsonl(["[1, 2]"])


class TestTags:
    """Constant fields stamped on every record (cluster shard ids)."""

    def test_tags_appear_on_every_record(self):
        sink = io.StringIO()
        journal = EventJournal(stream=sink, tags={"shard": 2})
        journal.emit("request.received", request_id="r1", query="q(X) :- rel0(X)")
        journal.emit("cluster.routed", request_id="r1", shard=2)
        records = events(sink)
        assert len(records) == 2
        for record in records:
            assert record["shard"] == 2

    def test_event_fields_win_over_tags(self):
        sink = io.StringIO()
        journal = EventJournal(stream=sink, tags={"shard": 0})
        journal.emit("cluster.routed", request_id="r1", shard=5)
        (record,) = events(sink)
        assert record["shard"] == 5

    def test_envelope_collision_rejected(self):
        with pytest.raises(ObservabilityError, match="collides"):
            EventJournal(tags={"seq": 9})

    def test_tags_survive_jsonl_round_trip(self):
        sink = io.StringIO()
        journal = EventJournal(stream=sink, tags={"shard": 1})
        journal.emit("cluster.worker", shard=1, state="started")
        (record,) = read_jsonl(sink.getvalue().splitlines())
        assert record["shard"] == 1
        validate_event(record)
