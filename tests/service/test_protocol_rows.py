"""A batch line's bytes are pinned to the encoder as it stood before any caching.

``frozen_rows`` is the row encoder as it stood before ``batch_record``
converted and keyed each row once (one pass per field, an
``isinstance`` per value through ``_value``, a ``repr`` key per row per
pass), and ``frozen_line`` is ``encode_line`` as it stood before
``BatchLines`` built lines from per-row fragments; both are copied here
so the bytes on the wire stay pinned to them.  ``BatchLines`` is driven
through whole requests, in rank order, because its table carries rows
from one batch to the next.
"""

import json
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


def frozen_line(request_id, batch):
    record = frozen_batch_record(request_id, batch)
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode("utf-8")


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
    ("é", "\u2028"),  # LINE SEPARATOR: ``repr`` escapes it
    (SKOLEM, "f_v1_M(\"ford\", 3)"),
    (str(SKOLEM), SKOLEM),
    (("nested", 1), ("nested", (2, None))),
    ("('nested', 1)", 0),
]
# No two rows are equal as values (``(0,) == (False,)``): a set keeps one.
ONE_COLUMN = [(None,), (0,), ("0",), (True,), ("",), (SKOLEM,), ((1, 2),), (" ",)]
#: Rows of strings and ``None`` only: the rows ``BatchLines`` keeps.
PLAIN = [
    ("x0_1", "x1_2"),
    ("x0_1", None),
    ("é☃", 'q"uote'),
    ("back\\slash", ""),
    ("[1]", "]], [["),
    ("\u2028", "line\u2028separator"),
    ("x0_10", "x1_2"),
    ("x0_9", "x1_2"),
]

#: Request ids a line must quote and escape as ``encode_line`` does; the
#: last reads like the keys ``BatchLines`` splices its arrays after.
REQUEST_IDS = [
    "q-1", "", 'say "hi"', "back\\slash", "é-☃-q", '"answers": [], "new_answers": []'
]


def batch(answers, new_answers, *, rank=3, utility=-12.5, sound=True,
          skipped=False, failed=False):
    plan = SimpleNamespace(key=("v1", "v5"))
    return AnswerBatch(
        rank, plan, utility, sound, frozenset(answers), frozenset(new_answers),
        skipped, failed,
    )


def settled(*answer_sets, utilities=()):
    """Batches as ``AnytimeRun.settle`` builds them from plans' answers.

    Ranks count up from 1 and ``new_answers`` is what no earlier batch
    listed.  A string names a degraded plan: ``"skipped"`` / ``"failed"``
    (empty, flagged) or ``"unsound"`` (empty, not sound).
    """
    seen, batches = set(), []
    for rank, answers in enumerate(answer_sets, start=1):
        utility = utilities[rank - 1] if rank <= len(utilities) else -float(rank)
        if isinstance(answers, str):
            batches.append(batch(
                (), (), rank=rank, utility=utility,
                sound=answers != "unsound",
                skipped=answers == "skipped", failed=answers == "failed",
            ))
            continue
        answers = frozenset(answers)
        batches.append(batch(answers, answers - seen, rank=rank, utility=utility))
        seen |= answers
    return batches


def served(request_id, batches):
    lines = protocol.BatchLines(request_id)
    return [lines.line(b) for b in batches]


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
        expected = frozen_line("q-1", record)
        assert protocol.encode_line(protocol.batch_record("q-1", record)) == expected
        assert served("q-1", [record]) == [expected]


def test_new_answers_are_the_new_rows_in_answers_order():
    record = protocol.batch_record("q", batch(AWKWARD, AWKWARD[::2]))
    assert len(record["new_answers"]) == len(AWKWARD[::2])
    position = [record["answers"].index(row) for row in record["new_answers"]]
    assert position == sorted(position)


def _halves(rows):
    first, second = rows[: len(rows) // 2], rows[len(rows) // 2 :]
    return first, rows, second + first[:2], first[::3]


#: Whole requests: rank order, ``answers ⊇ new_answers``, the rows of
#: batch 1 repeated later.
SEQUENCES = {
    "awkward": settled(*_halves(AWKWARD)),
    "one-column": settled(*_halves(ONE_COLUMN)),
    "plain": settled(*_halves(PLAIN)),
    # The same wire form, new once as a string and once as a term: the
    # term must be announced although its text was written before.
    "skolem-after-its-str": settled(
        [(str(SKOLEM),)], [(SKOLEM,), (str(SKOLEM),)], [(SKOLEM,)]
    ),
    "str-after-its-skolem": settled(
        [(SKOLEM,)], [(SKOLEM,), (str(SKOLEM),)], [(str(SKOLEM),)]
    ),
    # Equal as answers, not as wire forms: a repeat is written as the
    # batch at hand holds it, not as it was first announced.
    "equal-but-not-alike": settled(
        [(1,), (0.0,), ("a", 1)],
        [(1.0,), (-0.0,), ("a", True)],
        [(True,), (0,), ("a", 1.0), ("b", None)],
    ),
    "extreme-numbers": settled(
        [(float("inf"), -0.0), (1e300, 1)],
        [(1e300, 1), (float("-inf"), 0.5)],
        utilities=(float("inf"), -0.0, 1e300),
    ),
    "degraded": settled(
        [], PLAIN[:3], "skipped", "failed", "unsound", PLAIN[1:5], [], PLAIN,
    ),
    "all-degraded": settled("skipped", "failed", "unsound", []),
    "empty-request": [],
    # Not what settle builds: rows listed but never announced new, and
    # a plain row announced twice.
    "never-announced": [
        batch(PLAIN[:3], PLAIN[:1], rank=1),
        batch(PLAIN[:5], [], rank=2),
        batch(PLAIN, PLAIN[4:], rank=3),
        batch(AWKWARD[:4] + PLAIN[:2], AWKWARD[:1], rank=4),
    ],
    # A row that is not plain ends the table: later plain lines are
    # encoded whole.
    "plain-after-awkward": settled(
        PLAIN[:3], AWKWARD[:4] + PLAIN[:2], PLAIN, PLAIN[2:]
    ),
}


@pytest.mark.parametrize("request_id", REQUEST_IDS)
@pytest.mark.parametrize("name", list(SEQUENCES))
def test_served_requests_are_byte_identical_to_the_frozen_encoder(name, request_id):
    batches = SEQUENCES[name]
    assert served(request_id, batches) == [frozen_line(request_id, b) for b in batches]


def random_request(seed):
    """A seeded request over a pool of plain and awkward rows."""
    rng = random.Random(seed)
    pool = PLAIN + [
        (f"x0_{rng.randrange(40)}", rng.choice(["x1_1", "é", None, '"', "\\"]))
        for _ in range(60)
    ]
    if seed % 2:
        pool += AWKWARD
    first = rng.sample(pool, rng.randrange(1, len(pool)))
    plans = [first]
    for _ in range(rng.randrange(1, 12)):
        roll = rng.random()
        if roll < 0.15:
            plans.append(rng.choice(["skipped", "failed", "unsound"]))
        elif roll < 0.6:
            # Mostly a repeat of batch 1, as overlapping plans are.
            plans.append(
                rng.sample(first, rng.randrange(len(first) + 1))
                + rng.sample(pool, rng.randrange(len(pool) // 4))
            )
        else:
            plans.append(rng.sample(pool, rng.randrange(len(pool))))
    return settled(*plans)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_requests_are_byte_identical_to_the_frozen_encoder(seed):
    batches = random_request(seed)
    request_id = REQUEST_IDS[seed % len(REQUEST_IDS)]
    assert served(request_id, batches) == [frozen_line(request_id, b) for b in batches]


def test_each_distinct_row_is_encoded_once(monkeypatch):
    encoded = []
    entries = protocol._row_entries

    def counted(rows):
        rows = list(rows)
        encoded.extend(rows)
        return entries(rows)

    monkeypatch.setattr(protocol, "_row_entries", counted)
    batches = random_request(0)
    assert served("q", batches) == [frozen_line("q", b) for b in batches]
    listed = set().union(*(b.answers for b in batches))
    assert sum(len(b.answers) for b in batches) > len(listed)  # repeats exist
    assert len(encoded) == len(listed) and set(encoded) == listed


def test_lines_are_the_same_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(protocol, "c_make_encoder", None)
    monkeypatch.setattr(protocol, "_json_chunks", protocol._chunk_encoder())
    for seed in range(3):
        batches = random_request(seed)
        assert served("é", batches) == [frozen_line("é", b) for b in batches]
