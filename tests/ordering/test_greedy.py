"""Tests for the Greedy algorithm (paper, Section 4)."""

import pytest

from tests.conftest import assert_descending, assert_valid_ordering

from repro.errors import NotApplicableError
from repro.ordering.bruteforce import ExhaustiveOrderer
from repro.ordering.greedy import GreedyOrderer, best_plan_of


class TestApplicability:
    def test_requires_full_monotonicity(self, small_domain):
        with pytest.raises(NotApplicableError):
            GreedyOrderer(small_domain.measure("coverage"))
        with pytest.raises(NotApplicableError):
            GreedyOrderer(small_domain.measure("failure"))

    def test_accepts_linear_cost(self, small_domain):
        GreedyOrderer(small_domain.measure("linear"))


class TestBestPlanOf:
    def test_picks_best_source_per_bucket(self, small_domain):
        utility = small_domain.measure("linear")
        plan = best_plan_of(small_domain.space, utility)
        for bucket, chosen in zip(small_domain.space.buckets, plan.sources):
            best_key = max(
                utility.source_preference_key(bucket.index, s)
                for s in bucket.sources
            )
            assert utility.source_preference_key(bucket.index, chosen) == best_key


class TestOrdering:
    def test_matches_exhaustive(self, small_domain):
        k = 20
        greedy = GreedyOrderer(small_domain.measure("linear"))
        exhaustive = ExhaustiveOrderer(small_domain.measure("linear"))
        a = greedy.order_list(small_domain.space, k)
        b = exhaustive.order_list(small_domain.space, k)
        assert [r.utility for r in a] == pytest.approx([r.utility for r in b])

    def test_valid_ordering(self, medium_domain):
        greedy = GreedyOrderer(medium_domain.measure("linear"))
        results = greedy.order_list(medium_domain.space, 25)
        assert_descending(results)
        assert_valid_ordering(
            results, medium_domain.space, medium_domain.measure("linear")
        )

    def test_exhausts_space_without_duplicates(self, tiny_domain):
        greedy = GreedyOrderer(tiny_domain.measure("linear"))
        results = greedy.order_list(tiny_domain.space, 1000)
        assert len(results) == tiny_domain.space.size
        assert len({r.plan.key for r in results}) == len(results)

    def test_evaluates_far_fewer_plans_than_exhaustive(self, medium_domain):
        k = 5
        greedy = GreedyOrderer(medium_domain.measure("linear"))
        exhaustive = ExhaustiveOrderer(medium_domain.measure("linear"))
        greedy.order_list(medium_domain.space, k)
        exhaustive.order_list(medium_domain.space, k)
        assert greedy.stats.plans_evaluated < exhaustive.stats.plans_evaluated / 5

    def test_first_plan_needs_one_evaluation(self, medium_domain):
        greedy = GreedyOrderer(medium_domain.measure("linear"))
        next(iter(greedy.order(medium_domain.space, 1)))
        assert greedy.stats.first_plan_evaluations == 1

    def test_spaces_created_counter(self, small_domain):
        greedy = GreedyOrderer(small_domain.measure("linear"))
        greedy.order_list(small_domain.space, 5)
        assert greedy.stats.spaces_created >= 4
