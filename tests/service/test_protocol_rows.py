"""``batch_record`` converts and keys each row once; the wire must not notice.

``frozen_rows`` is the row encoder as it stood before that change (one
pass per field, an ``isinstance`` per value through ``_value``, a
``repr`` key per row per pass), copied here so the bytes on the wire
stay pinned to it.
"""

import random
from types import SimpleNamespace

import pytest

from repro.datalog.terms import Constant, FunctionTerm
from repro.execution.mediator import AnswerBatch
from repro.service import protocol

_SCALARS = (str, int, float, bool, type(None))


def _value(value):
    return value if isinstance(value, _SCALARS) else str(value)


def frozen_rows(answers):
    rows = [[_value(v) for v in row] for row in answers]
    rows.sort(key=repr)
    return rows


def frozen_batch_record(request_id, batch):
    return {
        "type": "batch",
        "id": request_id,
        "rank": batch.rank,
        "plan": list(batch.plan.key),
        "utility": batch.utility,
        "sound": batch.sound,
        "skipped": batch.skipped,
        "failed": batch.failed,
        "answers": frozen_rows(batch.answers),
        "new_answers": frozen_rows(batch.new_answers),
    }


SKOLEM = FunctionTerm("f_v1_M", (Constant("ford"), Constant(3)))

#: Rows whose order under ``repr`` differs from their order as values,
#: and values that are not JSON scalars.
AWKWARD = [
    (None, "None"),
    (True, 1),
    (False, "False"),
    (0, "0"),
    (10, "9"),
    (9, "10"),
    ("10", 9),
    (2.5, -0.0),
    (1e300, float("inf")),
    ('he said "hi"', "back\\slash"),
    ("trailing ", " leading"),
    ("trailing", "  "),
    ("", ""),
    ("é", " "),
    (SKOLEM, "f_v1_M(\"ford\", 3)"),
    (str(SKOLEM), SKOLEM),
    (("nested", 1), ("nested", (2, None))),
    ("('nested', 1)", 0),
]
# No two rows are equal as values (``(0,) == (False,)``): a set keeps one.
ONE_COLUMN = [(None,), (0,), ("0",), (True,), ("",), (SKOLEM,), ((1, 2),), (" ",)]


def batch(answers, new_answers):
    plan = SimpleNamespace(key=("v1", "v5"))
    return AnswerBatch(
        3, plan, -12.5, True, frozenset(answers), frozenset(new_answers)
    )


def splits(rows):
    """*rows* with none, all, and seeded random halves of them new."""
    yield rows, []
    yield rows, rows
    for seed in range(8):
        yield rows, random.Random(seed).sample(rows, len(rows) // 2)


@pytest.mark.parametrize("rows", [AWKWARD, ONE_COLUMN, []], ids=["mixed", "one-column", "empty"])
def test_wire_lines_are_byte_identical_to_the_frozen_encoder(rows):
    for answers, new_answers in splits(rows):
        record = batch(answers, new_answers)
        expected = protocol.encode_line(frozen_batch_record("q-1", record))
        assert protocol.encode_line(protocol.batch_record("q-1", record)) == expected


def test_new_answers_are_the_new_rows_in_answers_order():
    record = protocol.batch_record("q", batch(AWKWARD, AWKWARD[::2]))
    assert len(record["new_answers"]) == len(AWKWARD[::2])
    position = [record["answers"].index(row) for row in record["new_answers"]]
    assert position == sorted(position)
