"""The paper's Section 5.1/5.2 walk-through, executed for real."""

import pytest

from tests.conftest import assert_valid_ordering, shared

from repro.ordering.drips import DripsPlanner
from repro.ordering.streamer import StreamerOrderer
from repro.reformulation.plans import QueryPlan
from repro.utility.coverage import CoverageUtility
from repro.workloads.paper_example import paper_example


@pytest.fixture
def example():
    return paper_example()


class TestLayoutMatchesFigure3:
    def test_nine_plans(self, example):
        assert example.space.size == 9

    def test_v1_v2_overlap(self, example):
        assert shared(example.model, 0, "v1", "v2")

    def test_v3_is_the_big_source(self, example):
        assert example.model.extension(0, "v3").bit_count() == max(
            example.model.extension(0, name).bit_count()
            for name in ("v1", "v2", "v3")
        )

    def test_v6_and_v4_do_not_overlap(self, example):
        """The independence fact the paper's recycling argument uses."""
        assert not shared(example.model, 1, "v4", "v6")

    def test_v5_overlaps_both_neighbours(self, example):
        assert shared(example.model, 1, "v4", "v5")
        assert shared(example.model, 1, "v5", "v6")


class TestDripsWalkthrough:
    def test_best_plan_is_v3_v4(self, example):
        """Drips returns v3 v4 as the plan with the highest coverage."""
        drips = DripsPlanner(CoverageUtility(example.model))
        plan, value = drips.best_plan(example.space)
        assert plan.key == ("v3", "v4")
        # |v3 x v4| = 16 * 14 of 400.
        assert value == pytest.approx(16 * 14 / 400)

    def test_drips_saves_evaluations(self, example):
        """The paper's run evaluated 6 of 9 plans; exact counts depend
        on the intervals, but strict savings must hold."""
        drips = DripsPlanner(CoverageUtility(example.model))
        drips.best_plan(example.space)
        assert drips.stats.concrete_evaluations < 9


class TestStreamerWalkthrough:
    def test_streamer_matches_pi(self, example):
        streamer = StreamerOrderer(CoverageUtility(example.model))
        results = streamer.order_list(example.space, 9)
        assert results[0].plan.key == ("v3", "v4")
        assert_valid_ordering(
            results, example.space, CoverageUtility(example.model)
        )

    def test_dominance_links_recycled_after_removal(self, example):
        """After outputting the best plan, some links survive the
        independence check — the behaviour Figure 4.e illustrates."""
        streamer = StreamerOrderer(CoverageUtility(example.model))
        results = streamer.order_list(example.space, 3)
        assert len(results) == 3
        assert streamer.stats.links_recycled > 0

    def test_plan_independence_through_v6(self, example):
        """Any plan using v6 is independent of any plan using v4
        (their boxes are disjoint in bucket 1)."""
        utility = CoverageUtility(example.model)
        sources = {s.name: s for s in example.catalog.sources}
        plan_with_v6 = QueryPlan((sources["v3"], sources["v6"]))
        plan_with_v4 = QueryPlan((sources["v3"], sources["v4"]))
        assert utility.independent(plan_with_v6, plan_with_v4)
        assert not utility.independent(
            QueryPlan((sources["v3"], sources["v5"])), plan_with_v4
        )

    def test_coverage_of_v2_v4_drops_after_v3_v4(self, example):
        """'after removing V3V4 the coverage of V2V4 will change
        because these two plans overlap' (Section 5.2)."""
        utility = CoverageUtility(example.model)
        sources = {s.name: s for s in example.catalog.sources}
        context = utility.new_context()
        v2v4 = QueryPlan((sources["v2"], sources["v4"]))
        before = utility.evaluate(v2v4, context)
        context.record(QueryPlan((sources["v3"], sources["v4"])))
        after = utility.evaluate(v2v4, context)
        assert after < before
