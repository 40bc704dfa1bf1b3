"""Acceptance: the event journal correlates a request end to end.

Two contracts from the telemetry work:

* **Correlation** — after a chaos-stressed loadgen run against the TCP
  front end, a single ``request_id`` must link the whole path: the
  frontend's ``request.received``, the service's ``request.admitted``,
  the session's per-plan events, the anytime answer marks, and the
  final ``request.completed`` — in causal (``seq``) order, and every
  record valid against the documented schema.

* **Non-interference** — journalling is observation only: with the
  journal on, the mediator and the pipelined session must emit the
  byte-identical batch stream they emit with it off, across the
  20-seed x 4-measure random-LAV sweep.
"""

import functools
import io

import pytest

from repro.execution.mediator import Mediator
from repro.observability.journal import EventJournal
from repro.ordering.bruteforce import PIOrderer
from repro.resilience.chaos import ChaosBackend, bundled_profile
from repro.resilience.manager import ResilienceManager
from repro.service.frontend import start_server
from repro.service.loadgen import run_load
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import QueryService, ServiceConfig
from repro.service.session import PipelinedSession
from repro.utility.cost import BindJoinCost, LinearCost
from repro.workloads.movies import movie_domain
from repro.workloads.random_lav import ordering_scenario
from tests.journal_reader import events

# -- correlation through a live chaos run ------------------------------------------

REQUESTS = 12
QUERY = "q(T, R) :- play_in(A, T), review_of(R, T)"
FAST_POLICY = RequestPolicy(
    retry=RetryPolicy(max_attempts=2, base_s=0.001, cap_s=0.002)
)


@pytest.fixture
def chaos_journal():
    """A full loadgen run against a chaos-backed TCP server, journaled;
    returns the journal's sink."""
    movies = movie_domain()
    sink = io.StringIO()
    journal = EventJournal(stream=sink)
    service = QueryService(
        movies.catalog,
        movies.source_facts,
        measures={
            "linear": LinearCost,
            "failure": lambda: BindJoinCost(failure_aware=True),
        },
        config=ServiceConfig(default_policy=FAST_POLICY),
        backend=ChaosBackend(bundled_profile("smoke"), seed=7),
        resilience=ResilienceManager(),
        journal=journal,
    )
    server, _thread = start_server(service, port=0)
    try:
        report = run_load(
            "127.0.0.1",
            server.port,
            [QUERY],
            requests=REQUESTS,
            concurrency=3,
            timeout_s=30.0,
        )
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
    assert report.completed == REQUESTS and report.errors == 0
    return sink


class TestCorrelation:
    def test_every_event_validates(self, chaos_journal):
        assert events(chaos_journal)

    def test_one_request_id_links_the_whole_path(self, chaos_journal):
        received = events(chaos_journal, event="request.received")
        assert len(received) == REQUESTS
        for record in received:
            rid = record["request_id"]
            assert rid
            chain = events(chaos_journal, request_id=rid)
            kinds = [r["event"] for r in chain]
            # Frontend -> server -> session -> completion, all present
            # under the one id.
            assert kinds[0] == "request.received"
            assert "request.admitted" in kinds
            assert "plan.emitted" in kinds
            assert kinds[-1] == "request.completed"
            # Causal order: seq is process-global and monotonic.
            seqs = [r["seq"] for r in chain]
            assert seqs == sorted(seqs)
            admitted = kinds.index("request.admitted")
            assert admitted > 0
            assert kinds.index("plan.emitted") > admitted

    def test_per_plan_events_account_for_the_report(self, chaos_journal):
        for done in events(chaos_journal, event="request.completed"):
            rid = done["request_id"]
            emitted = events(chaos_journal, request_id=rid, event="plan.emitted")
            if done["status"] == "ok":
                # Every plan the session processed left an emission
                # event, and the completion record agrees on the count.
                assert len(emitted) == done["plans"] > 0
            terminal = [
                record
                for event in (
                    "plan.executed", "plan.skipped",
                    "plan.failed", "plan.unsound",
                )
                for record in events(chaos_journal, request_id=rid, event=event)
            ]
            assert len(terminal) == len(emitted)

    def test_anytime_marks_match_completion(self, chaos_journal):
        for done in events(chaos_journal, event="request.completed"):
            rid = done["request_id"]
            firsts = events(chaos_journal, request_id=rid, event="answer.first")
            if done["first_answer_s"] is None:
                assert firsts == []
                continue
            (first,) = firsts
            assert first["elapsed_s"] == pytest.approx(
                done["first_answer_s"]
            )
            progress = events(
                chaos_journal, request_id=rid, event="answer.progress"
            )
            assert progress
            # The k-th-answer curve is monotone in both coordinates.
            counts = [r["answers"] for r in progress]
            times = [r["elapsed_s"] for r in progress]
            assert counts == sorted(counts)
            assert times == sorted(times)
            assert counts[-1] == done["answers"]

    def test_chaos_leaves_resilience_events(self, chaos_journal):
        # The smoke profile kills v4; the breaker must have opened on
        # some request's watch and later plans skipped the source.
        failures = events(chaos_journal, event="source.failure")
        assert failures
        assert all(record["request_id"] for record in failures)
        transitions = events(chaos_journal, event="breaker.transition")
        assert any(
            record["source"] == "v4" and record["to_state"] == "open"
            for record in transitions
        )
        skipped = events(chaos_journal, event="plan.skipped")
        assert any("v4" in record["sources"] for record in skipped)


# -- journalling does not perturb the answer stream --------------------------------

RANDOM_LAV_SEEDS = list(range(20))
RANDOM_LAV_MEASURES = ("linear", "bind-join", "coverage", "monetary")


@functools.lru_cache(maxsize=None)
def lav_scenario(seed: int):
    return ordering_scenario(seed)


def batch_stream(batches):
    return tuple(
        (b.rank, b.plan.key, b.sound, b.answers, b.new_answers)
        for b in batches
    )


@functools.lru_cache(maxsize=None)
def journal_off_stream(seed: int, measure_name: str):
    scenario = lav_scenario(seed)
    utility = scenario.measure(measure_name)
    mediator = Mediator(
        scenario.catalog, scenario.source_facts
    )
    return batch_stream(
        mediator.answer(
            scenario.query, utility, orderer=PIOrderer(utility)
        )
    )


@pytest.mark.parametrize("measure_name", RANDOM_LAV_MEASURES)
@pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS)
def test_journal_on_stream_is_identical(seed, measure_name):
    expected = journal_off_stream(seed, measure_name)
    scenario = lav_scenario(seed)
    utility = scenario.measure(measure_name)
    sink = io.StringIO()
    mediator = Mediator(
        scenario.catalog,
        scenario.source_facts,
        journal=EventJournal(stream=sink),
    )
    observed = batch_stream(
        mediator.answer(
            scenario.query,
            utility,
            orderer=PIOrderer(utility),
            request_id=f"sweep-{seed}",
        )
    )
    assert observed == expected
    assert len(events(sink, event="plan.emitted")) == len(expected)


# -- AnyK-backed mediation under a correlated request_id ---------------------------


class TestAnyKJournalCorrelation:
    """``plan.emitted`` events from an AnyK-backed ``Mediator.answer``.

    AnyK enumerates by descending utility (both measures are fully
    monotonic and context-free on the LAV scenarios, so the emitted
    utilities must never increase), the ranks must be the
    contiguous emission order, and the journal must correlate the whole
    run under the one request_id in causal ``seq`` order.
    """

    MEASURES = ("linear", "bind-join")

    def _run(self, seed: int, measure_name: str):
        from repro.ordering.anyk import AnyKOrderer

        scenario = lav_scenario(seed)
        utility = scenario.measure(measure_name)
        sink = io.StringIO()
        mediator = Mediator(
            scenario.catalog,
            scenario.source_facts,
            journal=EventJournal(stream=sink),
        )
        request_id = f"anyk-{measure_name}-{seed}"
        batches = list(
            mediator.answer(
                scenario.query,
                utility,
                orderer=AnyKOrderer(utility),
                request_id=request_id,
            )
        )
        return sink, request_id, batches

    @pytest.mark.parametrize("measure_name", MEASURES)
    @pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS[::4])
    def test_emitted_utilities_never_increase(self, seed, measure_name):
        sink, request_id, batches = self._run(seed, measure_name)
        emitted = events(sink, request_id=request_id, event="plan.emitted")
        assert len(emitted) == len(batches) > 0
        utilities = [record["utility"] for record in emitted]
        assert all(
            earlier >= later - 1e-9
            for earlier, later in zip(utilities, utilities[1:])
        ), f"utilities increased mid-stream: {utilities}"

    @pytest.mark.parametrize("measure_name", MEASURES)
    @pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS[::4])
    def test_ranks_and_seq_are_causal(self, seed, measure_name):
        sink, request_id, batches = self._run(seed, measure_name)
        chain = events(sink, request_id=request_id)
        assert chain, "no events correlated under the request_id"
        assert all(
            record["request_id"] == request_id for record in chain
        )
        seqs = [record["seq"] for record in chain]
        assert seqs == sorted(seqs), "journal seq not monotone"
        emitted = events(sink, request_id=request_id, event="plan.emitted")
        assert [record["rank"] for record in emitted] == list(
            range(1, len(emitted) + 1)
        )
        # The journaled utilities are the batch utilities, in order.
        assert [record["utility"] for record in emitted] == pytest.approx(
            [batch.utility for batch in batches]
        )


@pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS[::5])
def test_pipelined_journal_on_stream_is_identical(seed):
    """Spot-check the concurrent path: journaled pipelined session vs
    the journal-off sequential stream."""
    expected = journal_off_stream(seed, "linear")
    scenario = lav_scenario(seed)
    utility = scenario.measure("linear")
    sink = io.StringIO()
    session = PipelinedSession(
        Mediator(
            scenario.catalog,
            scenario.source_facts,
            journal=EventJournal(stream=sink),
        ),
        executor_workers=3,
        queue_depth=4,
    )
    batches, report = session.run(
        scenario.query,
        utility,
        orderer=PIOrderer(utility),
        request_id=f"pipelined-{seed}",
    )
    assert batch_stream(batches) == expected
    assert report.status == "ok"
    chain = events(sink, request_id=f"pipelined-{seed}")
    assert len([r for r in chain if r["event"] == "plan.emitted"]) == len(
        expected
    )
