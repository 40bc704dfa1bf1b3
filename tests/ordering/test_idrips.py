"""Tests for iDrips."""

import pytest

from tests.conftest import assert_valid_ordering

from repro.ordering.abstraction import RandomHeuristic
from repro.ordering.bruteforce import ExhaustiveOrderer
from repro.ordering.idrips import IDripsOrderer


class TestCorrectness:
    def test_valid_coverage_ordering(self, small_domain):
        orderer = IDripsOrderer(small_domain.measure("coverage"))
        results = orderer.order_list(small_domain.space, 20)
        assert len(results) == 20
        assert_valid_ordering(results, small_domain.space, small_domain.measure("coverage"))

    def test_valid_caching_cost_ordering(self, small_domain):
        """iDrips handles measures WITHOUT diminishing returns."""
        orderer = IDripsOrderer(small_domain.measure("failure-caching"))
        results = orderer.order_list(small_domain.space, 15)
        assert_valid_ordering(
            results, small_domain.space, small_domain.measure("failure-caching")
        )

    def test_valid_monetary_ordering(self, small_domain):
        orderer = IDripsOrderer(small_domain.measure("monetary"))
        results = orderer.order_list(small_domain.space, 15)
        assert_valid_ordering(results, small_domain.space, small_domain.measure("monetary"))

    def test_matches_exhaustive_on_tie_free_measure(self, small_domain):
        k = 20
        a = IDripsOrderer(small_domain.measure("failure")).order_list(
            small_domain.space, k
        )
        b = ExhaustiveOrderer(small_domain.measure("failure")).order_list(
            small_domain.space, k
        )
        assert [r.utility for r in a] == pytest.approx([r.utility for r in b])

    def test_exhausts_space(self, tiny_domain):
        orderer = IDripsOrderer(tiny_domain.measure("coverage"))
        results = orderer.order_list(tiny_domain.space, 50)
        assert len(results) == tiny_domain.space.size
        assert len({r.plan.key for r in results}) == tiny_domain.space.size

    def test_random_heuristic_still_exact(self, small_domain):
        orderer = IDripsOrderer(small_domain.measure("coverage"), RandomHeuristic(2))
        results = orderer.order_list(small_domain.space, 8)
        assert_valid_ordering(results, small_domain.space, small_domain.measure("coverage"))


class TestMechanics:
    def test_spaces_created_by_splitting(self, small_domain):
        orderer = IDripsOrderer(small_domain.measure("coverage"))
        orderer.order_list(small_domain.space, 5)
        assert orderer.stats.spaces_created >= 4

    def test_rebuilds_work_every_iteration(self, small_domain):
        """The duplicated-work signature: total evaluations grow
        roughly linearly with k (Section 5.2)."""
        one = IDripsOrderer(small_domain.measure("coverage"))
        one.order_list(small_domain.space, 1)
        ten = IDripsOrderer(small_domain.measure("coverage"))
        ten.order_list(small_domain.space, 10)
        assert ten.stats.plans_evaluated >= 3 * one.stats.plans_evaluated

    def test_unsound_plans_not_recorded(self, small_domain):
        utility = small_domain.measure("coverage")
        orderer = IDripsOrderer(utility)
        flags = iter([True, False] * 50)
        results = orderer.order_list(
            small_domain.space, 10, on_emit=lambda plan: next(flags)
        )
        replay = small_domain.measure("coverage")
        ctx = replay.new_context()
        flags = iter([True, False] * 50)
        for entry in results:
            assert replay.evaluate(entry.plan, ctx) == pytest.approx(entry.utility)
            if next(flags):
                ctx.record(entry.plan)

    def test_first_plan_evaluation_fraction_small(self, medium_domain):
        orderer = IDripsOrderer(medium_domain.measure("coverage"))
        next(iter(orderer.order(medium_domain.space, 1)))
        assert (
            orderer.stats.first_plan_evaluations
            < medium_domain.space.size / 2
        )
