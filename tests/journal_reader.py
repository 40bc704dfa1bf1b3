"""Reading a test's journal back from its in-memory sink.

The journal keeps nothing: a test that inspects events hands
``EventJournal(stream=sink)`` an ``io.StringIO`` and reads the sink.
"""

from __future__ import annotations

import io
from typing import Optional

from repro.observability.journal import read_jsonl, validate_event


def events(
    sink: io.StringIO,
    *,
    request_id: Optional[str] = None,
    event: Optional[str] = None,
) -> list[dict]:
    """The records written to *sink* so far, each checked against the
    schema, optionally only those of one request and/or one type."""
    records = read_jsonl(sink.getvalue().splitlines())
    for record in records:
        validate_event(record)
    return [
        record
        for record in records
        if (request_id is None or record["request_id"] == request_id)
        and (event is None or record["event"] == event)
    ]
