"""Streaming-contract properties of ``Mediator.answer``.

Two invariants the service layer leans on:

* the ``new_answers`` fields across a batch stream *partition* the
  union of all ``answers`` — no tuple is ever reported new twice, and
  every answer is reported new exactly once;
* breaking out of the stream early is safe: the caller's orderer is
  left reusable, and the metric registry reflects exactly the consumed
  prefix.
"""

import types

import pytest

from repro.execution.mediator import Mediator
from repro.observability.metrics import MetricRegistry
from repro.ordering.bruteforce import PIOrderer
from repro.utility.cost import LinearCost
from repro.workloads.random_lav import ordering_scenario

SEEDS = [0, 3, 7, 11, 15]


def scenario_mediator(seed, **kwargs):
    scenario = ordering_scenario(seed)
    return scenario, Mediator(
        scenario.scenario.catalog, scenario.scenario.source_facts, **kwargs
    )


class TestNewAnswersPartition:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_partition_property(self, seed):
        scenario, mediator = scenario_mediator(seed)
        batches = list(
            mediator.answer(scenario.scenario.query, scenario.linear_cost())
        )
        union_answers = set()
        union_new = set()
        total_new = 0
        for batch in batches:
            assert batch.new_answers <= batch.answers
            assert not (batch.new_answers & union_new), (
                f"seed {seed}: tuple reported new twice at rank {batch.rank}"
            )
            union_new |= batch.new_answers
            union_answers |= batch.answers
            total_new += batch.new_count
        assert union_new == union_answers
        assert total_new == len(union_answers)

    def test_unsound_batches_carry_nothing(self, seed=2):
        scenario, mediator = scenario_mediator(seed)
        for batch in mediator.answer(
            scenario.scenario.query, scenario.linear_cost()
        ):
            if not batch.sound:
                assert batch.answers == frozenset()
                assert batch.new_answers == frozenset()


class TestEarlyBreak:
    def test_prefix_consistency_of_registry_and_orderer(self, movies):
        registry = MetricRegistry()
        mediator = Mediator(
            movies.catalog, movies.source_facts, registry=registry
        )
        utility = LinearCost()
        orderer = PIOrderer(utility)
        consumed = []
        for batch in mediator.answer(movies.query, utility, orderer=orderer):
            consumed.append(batch)
            if len(consumed) == 2:
                break
        assert registry.counter("mediator.plans_processed").value == 2
        sound = sum(1 for b in consumed if b.sound)
        assert registry.counter("mediator.sound_plans").value == sound
        # The same orderer instance runs a full fresh ordering after.
        full = orderer.order_list(
            mediator.reformulate(movies.query), 4
        )
        assert full[0].plan.key == consumed[0].plan.key


class TestReadOnlyDatabase:
    def test_execution_database_is_a_view(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        database = mediator.execution_database()
        assert isinstance(database, types.MappingProxyType)
        with pytest.raises(TypeError):
            database["v9"] = set()
        with pytest.raises(TypeError):
            del database["v1"]

    def test_view_tracks_the_live_instances(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        database = mediator.execution_database()
        mediator.source_facts["v1"].add(("somebody", "some_movie"))
        assert ("somebody", "some_movie") in database["v1"]

    def test_historical_alias(self, movies):
        """``execution_database`` is the one name; the alias is gone."""
        mediator = Mediator(movies.catalog, movies.source_facts)
        assert not hasattr(mediator, "_database")
