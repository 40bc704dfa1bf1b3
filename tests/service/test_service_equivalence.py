"""Acceptance sweep: the session equals the sequential mediator.

For 20 random-LAV scenarios x 4 utility measures, the session must
emit the *identical* batch stream as ``Mediator.answer`` on both of its
paths — inline over a backend that never blocks, pipelined over one
that does: same plans (by key) in the same order, the same answer sets,
and the same ``new_answers`` deltas.  This is the contract that makes
the service layer a pure performance feature — concurrency may reorder
execution internally but can never change what a client observes.
"""

import functools

import pytest

from repro.execution.mediator import Mediator
from repro.ordering.bruteforce import PIOrderer
from repro.service.session import PipelinedSession
from repro.workloads.random_lav import ordering_scenario
from tests.service.helpers import BACKENDS, run

RANDOM_LAV_SEEDS = list(range(20))
RANDOM_LAV_MEASURES = ("linear", "bind-join", "coverage", "monetary")


@functools.lru_cache(maxsize=None)
def lav_scenario(seed: int):
    return ordering_scenario(seed)


@functools.lru_cache(maxsize=None)
def sequential_stream(seed: int, measure_name: str):
    scenario = lav_scenario(seed)
    utility = scenario.measure(measure_name)
    mediator = Mediator(scenario.catalog, scenario.source_facts)
    return tuple(
        (b.rank, b.plan.key, b.sound, b.answers, b.new_answers)
        for b in mediator.answer(
            scenario.query, utility, orderer=PIOrderer(utility)
        )
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("measure_name", RANDOM_LAV_MEASURES)
@pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS)
def test_pipelined_stream_matches_sequential(seed, measure_name, backend):
    expected = sequential_stream(seed, measure_name)
    scenario = lav_scenario(seed)
    utility = scenario.measure(measure_name)
    session = PipelinedSession(
        Mediator(scenario.catalog, scenario.source_facts),
        executor_workers=3,
        queue_depth=4,
        backend=BACKENDS[backend](),
    )
    batches, report = run(
        session, scenario.query, utility, orderer=PIOrderer(utility)
    )
    observed = tuple(
        (b.rank, b.plan.key, b.sound, b.answers, b.new_answers)
        for b in batches
    )
    assert observed == expected
    assert report.status == "ok"
    assert report.exhausted


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS[::5])
def test_union_of_answers_matches_certain_answers_path(seed, backend):
    """Spot-check end-to-end soundness: the session's union equals the
    sequential union (which the execution suite ties to certain
    answers elsewhere)."""
    scenario = lav_scenario(seed)
    utility = scenario.measure("linear")
    mediator = Mediator(
        scenario.catalog, scenario.source_facts
    )
    expected = set().union(
        *(b.answers for b in mediator.answer(scenario.query, utility))
    )
    session = PipelinedSession(
        mediator, executor_workers=2, backend=BACKENDS[backend]()
    )
    batches, _ = run(session, scenario.query, utility)
    union = set().union(*(b.answers for b in batches)) if batches else set()
    assert union == expected
