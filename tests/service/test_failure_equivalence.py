"""Failure-path equivalence of the staged loop's two drivers.

The healthy-stream sweeps (``test_service_equivalence.py``) never make
a plan fail.  Here chosen plans fail — inside ``Mediator.execute_query``
for the inline driver, inside the backend for ``PipelinedSession`` —
and both drivers must produce the same batch stream, the same outcome
events and the same ``mediator.*`` counters, or raise the same error
after the same prefix.
"""

import io

import pytest

from repro.errors import ExecutionError, PermanentSourceError
from repro.execution.mediator import Mediator
from repro.observability.journal import EventJournal
from repro.ordering.bruteforce import PIOrderer
from repro.resilience.breaker import BreakerBoard
from repro.resilience.manager import ResilienceManager
from repro.service.backends import InMemoryBackend
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost
from repro.workloads.movies import movie_domain
from repro.workloads.random_lav import ordering_scenario
from tests.journal_reader import events

#: Events the settle stage emits, in rank order, under either driver.
OUTCOME_EVENTS = {
    "plan.unsound", "plan.skipped", "plan.failed", "plan.executed",
    "answer.first", "answer.progress",
}
TIMING_FIELDS = {"seq", "ts", "execute_s", "elapsed_s"}

PIPELINES = [(1, 1), (1, 8), (3, 1), (3, 8)]


def movies_case():
    domain = movie_domain()
    return domain.catalog, domain.source_facts, domain.query, "v4"


def lav_case():
    """A random-LAV scenario: unsound plans as well as failing ones."""
    scenario = ordering_scenario(3).scenario
    probe = Mediator(scenario.catalog, scenario.source_facts)
    sound = [
        batch.plan
        for batch in probe.answer(scenario.query, LinearCost())
        if batch.sound
    ]
    # Doom the source of the second sound plan: some plans fail, the
    # first still answers.
    return (
        scenario.catalog, scenario.source_facts, scenario.query,
        sound[1].key[0],
    )


CASES = {"movies": movies_case, "random-lav": lav_case}


def doomed(executable, dead_source):
    return dead_source in {atom.predicate for atom in executable.body}


def make_error(kind, source):
    if kind == "permanent":
        return PermanentSourceError(source, "chaos: down")
    if kind == "anonymous":
        return ExecutionError("boom")
    return RuntimeError("engine bug")


class DoomedMediator(Mediator):
    """Fails the chosen plans at the inline driver's executor seam."""

    dead_source = ""
    error_kind = "permanent"

    def execute_query(self, executable):
        if doomed(executable, self.dead_source):
            raise make_error(self.error_kind, self.dead_source)
        return super().execute_query(executable)


class DoomedBackend(InMemoryBackend):
    """Fails the same plans at the pipelined driver's executor seam."""

    def __init__(self, dead_source, error_kind):
        self.dead_source = dead_source
        self.error_kind = error_kind

    def execute(self, executable, database):
        if doomed(executable, self.dead_source):
            raise make_error(self.error_kind, self.dead_source)
        return super().execute(executable, database)


def quiet_manager(*, open_source=None):
    """A manager whose breakers never trip mid-run.

    Failures recorded by concurrent workers would otherwise race with
    the admission of later plans; a force-opened breaker is set up
    front, where both drivers see it from the first plan on.
    """
    manager = ResilienceManager(
        board=BreakerBoard(failure_threshold=10**6, cooldown_s=3600.0)
    )
    if open_source is not None:
        manager.board.record_failure(open_source, permanent=True)
    return manager


def signature(batch):
    return (
        batch.rank, batch.plan.key, batch.utility, batch.sound,
        batch.skipped, batch.failed, batch.new_answers,
    )


def outcome_events(sink, request_id):
    return [
        {k: v for k, v in record.items() if k not in TIMING_FIELDS}
        for record in events(sink, request_id=request_id)
        if record["event"] in OUTCOME_EVENTS
    ]


def emitted_plans(sink, request_id):
    return [
        (record["rank"], record["plan"], record["sound"])
        for record in events(sink, request_id=request_id)
        if record["event"] == "plan.emitted"
    ]


def mediator_counters(mediator):
    return {
        name: metric["value"]
        for name, metric in mediator.registry.as_dict().items()
        if name.startswith("mediator.")
    }


def drain(stream):
    """(batch signatures, error) — the prefix survives a raise."""
    signatures, error = [], None
    try:
        for batch in stream:
            signatures.append(signature(batch))
    except ExecutionError as exc:
        error = exc
    return signatures, error


def run_inline(case, manager, error_kind):
    catalog, facts, query, dead_source = case
    sink = io.StringIO()
    mediator = DoomedMediator(
        catalog, facts, journal=EventJournal(stream=sink), resilience=manager
    )
    mediator.dead_source, mediator.error_kind = dead_source, error_kind
    utility = LinearCost()
    signatures, error = drain(
        mediator.answer(
            query, utility, orderer=PIOrderer(utility), request_id="r"
        )
    )
    return signatures, error, sink, mediator


def run_pipelined(case, manager, error_kind, workers, depth):
    catalog, facts, query, dead_source = case
    sink = io.StringIO()
    mediator = Mediator(
        catalog, facts, journal=EventJournal(stream=sink), resilience=manager
    )
    session = PipelinedSession(
        mediator,
        executor_workers=workers,
        queue_depth=depth,
        backend=DoomedBackend(dead_source, error_kind),
    )
    utility = LinearCost()
    signatures, error = drain(
        session.stream(
            query, utility, orderer=PIOrderer(utility), request_id="r"
        )
    )
    return signatures, error, sink, mediator


def assert_equivalent(inline, pipelined):
    signatures, error, journal, mediator = inline
    p_signatures, p_error, p_journal, p_mediator = pipelined
    assert p_signatures == signatures
    assert outcome_events(p_journal, "r") == outcome_events(journal, "r")
    assert mediator_counters(p_mediator) == mediator_counters(mediator)
    if error is None:
        assert p_error is None
        assert emitted_plans(p_journal, "r") == emitted_plans(journal, "r")
    else:
        assert type(p_error) is type(error)
        assert str(p_error) == str(error)
        assert type(p_error.__cause__) is type(error.__cause__)
        # The producer may have run ahead of the plan that failed.
        inline_emitted = emitted_plans(journal, "r")
        assert emitted_plans(p_journal, "r")[: len(inline_emitted)] == (
            inline_emitted
        )


@pytest.mark.parametrize("workers,depth", PIPELINES)
@pytest.mark.parametrize("case_name", sorted(CASES))
class TestFailurePathEquivalence:
    @pytest.mark.parametrize("error_kind", ["permanent", "anonymous", "bug"])
    def test_graceful_manager_degrades_alike(
        self, case_name, workers, depth, error_kind
    ):
        case = CASES[case_name]()
        inline = run_inline(case, quiet_manager(), error_kind)
        pipelined = run_pipelined(
            case, quiet_manager(), error_kind, workers, depth
        )
        assert inline[1] is None
        assert any(failed for *_, failed, _ in inline[0]), "nothing failed"
        assert_equivalent(inline, pipelined)

    def test_force_open_breaker_skips_alike(self, case_name, workers, depth):
        case = CASES[case_name]()
        dead_source = case[3]
        inline = run_inline(
            case, quiet_manager(open_source=dead_source), "permanent"
        )
        pipelined = run_pipelined(
            case, quiet_manager(open_source=dead_source), "permanent",
            workers, depth,
        )
        assert inline[1] is None
        # Every doomed plan is skipped before it can fail.
        assert any(skipped for *_, skipped, _, _ in inline[0])
        assert not any(failed for *_, failed, _ in inline[0])
        assert_equivalent(inline, pipelined)

    @pytest.mark.parametrize("error_kind", ["permanent", "bug"])
    def test_no_manager_raises_alike(
        self, case_name, workers, depth, error_kind
    ):
        case = CASES[case_name]()
        inline = run_inline(case, None, error_kind)
        pipelined = run_pipelined(case, None, error_kind, workers, depth)
        assert "attempt" in str(inline[1])
        cause = type(make_error(error_kind, case[3]))
        assert type(inline[1].__cause__) is cause
        assert_equivalent(inline, pipelined)
