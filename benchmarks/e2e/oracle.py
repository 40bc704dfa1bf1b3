"""The answer oracle: is what came back over the wire right?

Works on decoded ``batch`` records (the wire form), so the same checks
apply to a wire reply and to an in-process stream passed through
``protocol.batch_record``.  For the clone workloads the expected
answers come from the extension masks alone — a plan's answers are the
cross product of its sources' elements — so the datalog engine is not
its own judge; utilities are recomputed with a fresh uncached measure
under the executed prefix; and the first ranks are compared against
every plan of the space by brute force.  For the ``wire-*`` workloads
the three independent reformulators of ``random_lav`` are the judge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from typing import Iterable, Optional

from repro.datalog.parser import parse_query
from repro.execution.instances import element_value
from repro.observability.journal import read_jsonl, validate_event
from repro.errors import ObservabilityError
from repro.reformulation.plans import QueryPlan
from repro.workloads.random_lav import certain_answers_three_ways

from benchmarks.e2e.client import Reply
from benchmarks.e2e.workloads import Request, Workload

#: Largest accepted difference between a reported and a recomputed utility.
UTILITY_TOLERANCE = 1e-9

#: Ranks checked against the whole plan space by brute force.
OPTIMAL_RANKS = 3

#: Requests, from the head of the list, whose queries ``stream_sha256`` covers.
DIGEST_REQUESTS = 4


def _rows(rows: Iterable) -> set[tuple]:
    return {tuple(row) for row in rows}


def _wire_rows(rows: Iterable[tuple]) -> set[tuple]:
    """Answer tuples as they look after the wire's JSON round trip."""
    return _rows(json.loads(json.dumps([list(row) for row in rows], default=str)))


def _elements(mask: int) -> list[int]:
    return [bit for bit in range(mask.bit_length()) if mask >> bit & 1]


def check_stream(batches: list[dict]) -> list[str]:
    """Checks that hold on every workload: consecutive ranks, dedup."""
    errors = []
    seen: set[tuple] = set()
    for position, batch in enumerate(batches, start=1):
        if batch["rank"] != position:
            errors.append(f"batch {position} carries rank {batch['rank']}")
        answers = _rows(batch["answers"])
        if _rows(batch["new_answers"]) != answers - seen:
            errors.append(f"rank {position}: new_answers is not answers minus earlier")
        seen |= answers
    return errors


def _clone_plan(workload: Workload, request: Request, names: list[str]) -> QueryPlan:
    space = workload.spaces[request.key]
    return QueryPlan(
        tuple(
            next(s for s in bucket.sources if s.name == name)
            for bucket, name in zip(space.buckets, names)
        )
    )


def check_clone_stream(workload: Workload, request: Request,
                       batches: list[dict]) -> list[str]:
    """Answers from the masks; utilities from a fresh measure."""
    errors = []
    space = workload.spaces[request.key]
    expected_batches = min(request.max_plans or space.size, space.size)
    if len(batches) != expected_batches:
        errors.append(f"{len(batches)} batches, expected {expected_batches}")
    measure = workload.fresh_measure(request.measure)
    context = measure.new_context()
    for batch in batches:
        rank = batch["rank"]
        if not batch["sound"] or batch["skipped"] or batch["failed"]:
            errors.append(f"rank {rank}: a clone plan must execute soundly")
            continue
        expected = set(
            itertools.product(
                *(
                    [
                        element_value(slot, element)
                        for element in _elements(workload.model.extension(slot, name))
                    ]
                    for slot, name in enumerate(batch["plan"])
                )
            )
        )
        if _rows(batch["answers"]) != expected:
            errors.append(f"rank {rank}: answers differ from the mask cross product")
        plan = _clone_plan(workload, request, batch["plan"])
        utility = measure.evaluate(plan, context)
        if abs(utility - batch["utility"]) > UTILITY_TOLERANCE:
            errors.append(
                f"rank {rank}: utility {batch['utility']!r}, recomputed {utility!r}"
            )
        context.record(plan)
    return errors


def check_optimal_prefix(workload: Workload, request: Request,
                         batches: list[dict]) -> list[str]:
    """No unemitted plan beats ranks 1..3 (brute force over the space)."""
    errors = []
    space = workload.spaces[request.key]
    measure = workload.fresh_measure(request.measure)
    context = measure.new_context()
    emitted: set[tuple[str, ...]] = set()
    for batch in batches[:OPTIMAL_RANKS]:
        best = max(
            measure.evaluate(plan, context)
            for plan in space.plans()
            if plan.key not in emitted
        )
        if batch["utility"] < best - UTILITY_TOLERANCE:
            errors.append(
                f"rank {batch['rank']}: utility {batch['utility']!r} but an "
                f"unemitted plan has {best!r}"
            )
        plan = _clone_plan(workload, request, batch["plan"])
        context.record(plan)
        emitted.add(plan.key)
    return errors


class WireOracle:
    """Per distinct query: bucket, inverse-rule and MiniCon answers (memoised)."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._expected: dict[int, tuple[set, set]] = {}

    def check(self, request: Request, batches: list[dict]) -> list[str]:
        if request.key not in self._expected:
            scenario = dataclasses.replace(
                self.workload.scenario, query=parse_query(request.text)
            )
            bucket, inverse, _minicon = certain_answers_three_ways(scenario)
            self._expected[request.key] = (_wire_rows(bucket), _wire_rows(inverse))
        bucket, inverse = self._expected[request.key]
        union: set[tuple] = set()
        for batch in batches:
            union |= _rows(batch["new_answers"])
        errors = []
        if union != bucket:
            errors.append("answer union differs from the all-plans bucket answers")
        if not union <= inverse:
            errors.append("answers outside the inverse-rule certain answers")
        return errors


def check_journal(path: str, request_ids: Iterable[str]) -> list[str]:
    """Every line validates; every request runs received → completed."""
    with open(path, encoding="utf-8") as handle:
        try:
            events = read_jsonl(handle)
            for event in events:
                validate_event(event)
        except ObservabilityError as exc:
            return [f"journal: {exc}"]
    lifecycle: dict[str, list[str]] = {}
    for event in events:
        if event["event"] in ("request.received", "request.completed"):
            lifecycle.setdefault(event["request_id"], []).append(event["event"])
    return [
        f"journal: request {request_id} has lifecycle {lifecycle.get(request_id)}"
        for request_id in request_ids
        if lifecycle.get(request_id) != ["request.received", "request.completed"]
    ]


class Checker:
    """Checks the replies of one workload and keeps its stream digest."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.errors: list[str] = []
        self._wire = WireOracle(workload) if workload.scenario else None
        # The digest covers the queries of the first DIGEST_REQUESTS
        # requests only: every round, however short, sends those.
        self._digest_keys = {r.key for r in workload.requests[:DIGEST_REQUESTS]}
        self._digested: dict[int, list] = {}
        #: Per query: fingerprint and answer count of its verified stream.
        self._verified: dict[int, tuple[str, int]] = {}
        self._brute_forced = False

    def _verify(self, request: Request, batches: list[dict]) -> list[str]:
        errors = check_stream(batches)
        if self._wire is not None:
            errors += self._wire.check(request, batches)
        else:
            errors += check_clone_stream(self.workload, request, batches)
            if not self._brute_forced:
                self._brute_forced = True
                errors += check_optimal_prefix(self.workload, request, batches)
        if request.key in self._verified:
            errors.append("stream differs from an earlier one of the same query")
        elif request.key in self._digest_keys:
            self._digested[request.key] = stream_entries(batches)
        return errors

    def check_batches(self, request: Request, batches: list[dict],
                      summary: Optional[dict] = None) -> bool:
        """True when this one stream is right; errors accumulate."""
        # A query repeats many times in a run; a stream byte-equal to
        # the one already verified for it needs no second verification.
        fingerprint = hashlib.sha256(
            json.dumps([{**b, "id": ""} for b in batches], sort_keys=True).encode()
        ).hexdigest()
        if self._verified.get(request.key, ("", 0))[0] != fingerprint:
            errors = self._verify(request, batches)
            if errors:
                self._fail(request, errors)
                return False
            answers = len({tuple(r) for b in batches for r in b["new_answers"]})
            self._verified[request.key] = (fingerprint, answers)
        answers = self._verified[request.key][1]
        if summary is not None and summary.get("answers") != answers:
            self._fail(request, [
                f"summary counts {summary.get('answers')} answers, stream has {answers}"
            ])
            return False
        return True

    def _fail(self, request: Request, errors: list[str]) -> None:
        self.errors += [
            f"{self.workload.spec.name} key {request.key}: {error}" for error in errors
        ]

    def check_reply(self, reply: Reply) -> bool:
        """A reply fails when it did not complete ``ok`` or is wrong."""
        if reply.status != "ok":
            self.errors.append(
                f"{self.workload.spec.name} {reply.request_id}: status {reply.status}"
            )
            return False
        return self.check_batches(reply.request, reply.batches, reply.summary)

    @property
    def stream_sha256(self) -> str:
        """Digest of the first stream of each of the digest's queries."""
        payload = [[key, self._digested[key]] for key in sorted(self._digested)]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()


def stream_entries(batches: list[dict]) -> list:
    """(rank, plan, utility, sorted new answers) of a batch stream."""
    return [
        [b["rank"], b["plan"], b["utility"], sorted(b["new_answers"], key=repr)]
        for b in batches
    ]
