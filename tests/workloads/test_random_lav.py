"""Cross-validation of the three reformulation pipelines on random
LAV scenarios (see repro.workloads.random_lav)."""

import pytest

from repro.workloads.random_lav import (
    certain_answers_three_ways,
    random_scenario,
)


class TestScenarioGeneration:
    def test_deterministic_per_seed(self):
        a = random_scenario(3)
        b = random_scenario(3)
        assert str(a.query) == str(b.query)
        assert a.source_facts == b.source_facts

    def test_sources_are_views_of_schema(self):
        """Every source tuple must satisfy its view over the schema
        instance (local-as-view semantics, paper Section 2)."""
        from repro.execution.engine import evaluate_conjunctive_query

        scenario = random_scenario(5)
        for source in scenario.catalog.sources:
            extension = evaluate_conjunctive_query(
                source.view, scenario.schema_facts
            )
            assert scenario.source_facts[source.name] <= extension

    def test_sources_are_incomplete(self):
        """With completeness < 1 some scenario has a strictly partial
        source — the premise for unioning all plans."""
        found_partial = False
        from repro.execution.engine import evaluate_conjunctive_query

        for seed in range(6):
            scenario = random_scenario(seed)
            for source in scenario.catalog.sources:
                extension = evaluate_conjunctive_query(
                    source.view, scenario.schema_facts
                )
                if scenario.source_facts[source.name] < extension:
                    found_partial = True
        assert found_partial


@pytest.mark.parametrize("seed", range(25))
def test_three_pipelines_agree(seed):
    scenario = random_scenario(seed)
    bucket_answers, inverse_answers, minicon_answers = (
        certain_answers_three_ways(scenario)
    )
    # MiniCon and inverse rules are both complete: exact agreement.
    assert minicon_answers == inverse_answers, str(scenario.query)
    # The bucket pipeline is sound (never a wrong answer) ...
    assert bucket_answers <= inverse_answers, str(scenario.query)


@pytest.mark.parametrize("seed", range(8))
def test_single_subgoal_views_make_buckets_complete(seed):
    """With one-atom views the bucket pipeline loses nothing: all
    three pipelines agree exactly."""
    scenario = random_scenario(
        seed + 100, view_subgoals=1, query_subgoals=2
    )
    bucket_answers, inverse_answers, minicon_answers = (
        certain_answers_three_ways(scenario)
    )
    assert minicon_answers == inverse_answers
    assert bucket_answers == inverse_answers, str(scenario.query)


class TestOrderingScenario:
    def test_deterministic_per_seed(self):
        from repro.workloads.random_lav import ordering_scenario

        a = ordering_scenario(4)
        b = ordering_scenario(4)
        assert [p.key for p in a.space.plans()] == [
            p.key for p in b.space.plans()
        ]
        for plan_a, plan_b in zip(a.space.plans(), b.space.plans()):
            for src_a, src_b in zip(plan_a.sources, plan_b.sources):
                assert src_a.stats == src_b.stats

    def test_space_meets_minimum_size(self):
        from repro.workloads.random_lav import ordering_scenario

        assert all(ordering_scenario(seed).space.size >= 6 for seed in range(8))

    def test_refuses_when_no_draw_is_large_enough(self, monkeypatch):
        from repro.errors import ReformulationError
        from repro.workloads import random_lav

        monkeypatch.setattr(random_lav, "_MIN_PLANS", 10**9)
        with pytest.raises(ReformulationError, match="no random scenario"):
            random_lav.ordering_scenario(0)

    def test_every_source_has_extension_and_stats(self):
        from repro.workloads.random_lav import ordering_scenario

        scenario = ordering_scenario(2)
        for bucket in scenario.space.buckets:
            for source in bucket.sources:
                assert scenario.model.extension(bucket.index, source.name)
                assert source.stats.n_tuples >= 1
                assert source.stats.transfer_cost == 1.0  # uniform

    def test_all_four_measures_evaluable(self):
        from repro.workloads.random_lav import ordering_scenario

        scenario = ordering_scenario(3)
        plan = next(scenario.space.plans())
        for name in ("coverage", "linear", "bind-join", "monetary"):
            measure = scenario.measure(name)
            value = measure.evaluate(plan, measure.new_context())
            assert isinstance(value, float)
