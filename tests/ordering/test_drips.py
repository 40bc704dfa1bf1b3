"""Tests for Drips and the shared best-first search."""

import pytest

from repro.errors import OrderingError
from repro.ordering.abstraction import OutputCountHeuristic, RandomHeuristic, top_plan
from repro.ordering.bruteforce import ExhaustiveOrderer
from repro.ordering.base import OrderingStats
from repro.ordering.drips import DripsPlanner, drips_search


class TestBestPlan:
    def test_finds_true_best_for_coverage(self, small_domain):
        drips = DripsPlanner(small_domain.measure("coverage"))
        plan, value = drips.best_plan(small_domain.space)
        reference = ExhaustiveOrderer(small_domain.measure("coverage"))
        (best,) = reference.order_list(small_domain.space, 1)
        assert value == pytest.approx(best.utility)

    def test_finds_true_best_for_costs(self, small_domain):
        for utility in (
            small_domain.measure("linear"),
            small_domain.measure("bind-join"),
            small_domain.measure("failure"),
            small_domain.measure("monetary"),
        ):
            drips = DripsPlanner(utility)
            _plan, value = drips.best_plan(small_domain.space)
            reference = ExhaustiveOrderer(utility)
            (best,) = reference.order_list(small_domain.space, 1)
            assert value == pytest.approx(best.utility), utility.name

    def test_respects_execution_context(self, small_domain):
        utility = small_domain.measure("coverage")
        context = utility.new_context()
        drips = DripsPlanner(utility)
        first, _ = drips.best_plan(small_domain.space, context)
        context.record(first)
        second, value = drips.best_plan(small_domain.space, context)
        # Conditional best differs from unconditional best in general;
        # at minimum its conditional utility must match a brute force.
        remaining = [
            p for p in small_domain.space.plans() if p.key != first.key
        ]
        best = max(utility.evaluate(p, context) for p in remaining)
        # Note: drips searches the full space (the executed plan has
        # zero residual coverage so it never wins again).
        assert value == pytest.approx(best)

    def test_evaluates_fewer_plans_than_bruteforce(self, medium_domain):
        drips = DripsPlanner(medium_domain.measure("coverage"))
        drips.best_plan(medium_domain.space)
        assert drips.stats.plans_evaluated < medium_domain.space.size

    def test_random_heuristic_still_exact(self, small_domain):
        drips = DripsPlanner(small_domain.measure("coverage"), RandomHeuristic(9))
        _plan, value = drips.best_plan(small_domain.space)
        reference = ExhaustiveOrderer(small_domain.measure("coverage"))
        (best,) = reference.order_list(small_domain.space, 1)
        assert value == pytest.approx(best.utility)


class TestDripsSearch:
    def test_empty_pool_rejected(self, small_domain):
        with pytest.raises(OrderingError):
            drips_search(
                [],
                small_domain.measure("coverage"),
                small_domain.measure("coverage").new_context(),
                OrderingStats(),
            )

    def test_pool_of_concrete_plans(self, tiny_domain):
        """A pool of fully concrete plans degenerates to argmax."""
        heuristic = OutputCountHeuristic()
        utility = tiny_domain.measure("linear")
        stats = OrderingStats()
        root = top_plan(tiny_domain.space.buckets, heuristic)

        def expand(plan):
            if plan.is_concrete:
                return [plan]
            return [p for c in plan.refine() for p in expand(c)]

        pool = expand(root)
        winner, value = drips_search(
            pool, utility, utility.new_context(), stats
        )
        expected = max(
            utility.evaluate(p, utility.new_context())
            for p in tiny_domain.space.plans()
        )
        assert value == pytest.approx(expected)

    def test_elimination_counter_counts_pruned(self, medium_domain):
        stats = OrderingStats()
        utility = medium_domain.measure("coverage")
        root = top_plan(medium_domain.space.buckets, OutputCountHeuristic())
        drips_search([root], utility, utility.new_context(), stats)
        assert stats.eliminations > 0
        assert stats.refinements > 0


class TestWorkedExampleShape:
    """Section 5.1: Drips finds the best of 3x3 plans while evaluating
    strictly fewer plans than brute force (6 of 9 in the paper's
    hand-picked run; the exact number depends on the intervals)."""

    def test_three_by_three_savings(self, tiny_domain):
        drips = DripsPlanner(tiny_domain.measure("coverage"))
        plan, value = drips.best_plan(tiny_domain.space)
        assert tiny_domain.space.contains(plan)
        assert drips.stats.concrete_evaluations < tiny_domain.space.size
