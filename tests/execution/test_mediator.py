"""Tests for the anytime mediator."""

import pytest

from repro.execution.instances import materialize_instances
from repro.execution.mediator import Mediator
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.utility.cost import LinearCost
from tests.service.helpers import run


class TestMovieMediation:
    def test_all_answers_equal_certain_answers(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        utility = LinearCost()
        answers = set().union(
            *(batch.answers for batch in mediator.answer(movies.query, utility))
        )
        assert answers == mediator.certain_answers(movies.query)

    def test_batches_in_decreasing_utility(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        batches = list(mediator.answer(movies.query, LinearCost()))
        utilities = [b.utility for b in batches]
        assert utilities == sorted(utilities, reverse=True)

    def test_new_answers_never_repeat(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        seen: set = set()
        for batch in mediator.answer(movies.query, LinearCost()):
            assert not (batch.new_answers & seen)
            seen |= batch.new_answers

    def test_max_plans_bounds_work(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        batches = list(mediator.answer(movies.query, LinearCost(), max_plans=3))
        assert len(batches) == 3

    def test_custom_orderer(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        orderer = GreedyOrderer(LinearCost())
        batches = list(
            mediator.answer(movies.query, LinearCost(), orderer=orderer)
        )
        assert len(batches) == 9

    def test_all_batches_sound_in_movie_domain(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        assert all(
            b.sound for b in mediator.answer(movies.query, LinearCost())
        )


class TestSyntheticMediation:
    def test_coverage_ordering_front_loads_answers(self, small_domain):
        source_facts, _ = materialize_instances(
            small_domain.space, small_domain.model
        )
        mediator = Mediator(small_domain.catalog, source_facts)
        utility = small_domain.measure("coverage")
        batches = list(
            mediator.answer(
                small_domain.query,
                utility,
                orderer=StreamerOrderer(utility),
                max_plans=small_domain.space.size,
            )
        )
        # Predicted coverage equals realized new-answer fraction.
        total = small_domain.model.total_universe_size()
        for batch in batches:
            assert batch.new_count / total == pytest.approx(batch.utility)

    def test_unsound_plans_skipped_with_mixed_catalog(self):
        """A source hiding a join variable passes the (permissive)
        bucket test but yields unsound plans; the mediator must discard
        them and still return exactly the certain answers — the
        strategy of the paper's Section 2."""
        from repro.datalog.parser import parse_query
        from repro.sources.catalog import Catalog

        catalog = Catalog({"r": 2, "s": 2})
        catalog.add_source("good_r(X, Z) :- r(X, Z)")
        # hides the join variable Z: bucket-admissible, plans unsound.
        catalog.add_source("broken_r(X) :- r(X, Z)")
        catalog.add_source("good_s(Z, Y) :- s(Z, Y)")
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")

        facts = {
            "good_r": {("a", "m"), ("b", "n")},
            "broken_r": {("a",), ("c",)},
            "good_s": {("m", "out1"), ("n", "out2")},
        }
        mediator = Mediator(catalog, facts)
        batches = list(mediator.answer(query, LinearCost()))
        unsound = [b for b in batches if not b.sound]
        assert unsound, "expected broken_r plans to be rejected"
        assert all(not b.new_answers for b in unsound)
        sound_union = set().union(*(b.answers for b in batches if b.sound))
        assert sound_union == {("a", "out1"), ("b", "out2")}
        assert sound_union == mediator.certain_answers(query)


class TestMediatorObservability:
    def test_counters_account_for_every_plan(self, movies):
        from repro.observability.metrics import MetricRegistry

        registry = MetricRegistry()
        mediator = Mediator(
            movies.catalog, movies.source_facts, registry=registry
        )
        batches = list(mediator.answer(movies.query, LinearCost()))
        processed = registry.get("mediator.plans_processed").value
        sound = registry.get("mediator.sound_plans").value
        unsound = registry.get("mediator.unsound_plans").value
        assert processed == len(batches)
        assert sound + unsound == processed
        assert sound == sum(1 for b in batches if b.sound)
        new_answers = registry.get("mediator.new_answers").value
        assert new_answers == sum(b.new_count for b in batches)

    def test_tracer_spans_cover_pipeline_stages(self, movies):
        from repro.observability.tracing import Tracer
        from repro.service.session import PipelinedSession

        tracer = Tracer()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), tracer=tracer
        )
        _batches, report = run(session, movies.query, LinearCost())
        assert tracer.as_dict()["reformulation.buckets.build"]["calls"] == 1
        assert (
            tracer.as_dict()["reformulation.soundness.check"]["calls"]
            == report.plans_processed
        )
        assert (
            tracer.as_dict()["execution.engine.execute"]["calls"] == report.sound_plans
        )

    def test_explicit_orderer_tracer_wins(self, movies):
        from repro.observability.tracing import Tracer
        from repro.service.session import PipelinedSession

        tracer, own = Tracer(), Tracer()
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts), tracer=tracer
        )
        orderer = GreedyOrderer(LinearCost(), tracer=own)
        run(session, movies.query, LinearCost(), orderer=orderer)
        # The run never swaps an orderer's tracer: the ordering spans
        # land where the orderer was built to record them.
        assert orderer.tracer is own
        assert "utility.eval" in own.as_dict()
        assert "utility.eval" not in tracer.as_dict()
        assert "reformulation.soundness.check" in tracer.as_dict()
