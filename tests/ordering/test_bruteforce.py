"""Tests for the Exhaustive and PI baselines."""

import pytest

from tests.conftest import assert_descending, assert_valid_ordering

from repro.errors import OrderingError
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.utility.base import UtilityMeasure
from repro.utility.intervals import Interval


class TestExhaustive:
    def test_orders_context_free_measure(self, small_domain):
        utility = small_domain.measure("linear")
        orderer = ExhaustiveOrderer(utility)
        results = orderer.order_list(small_domain.space, 10)
        assert len(results) == 10
        assert_descending(results)
        assert_valid_ordering(results, small_domain.space, small_domain.measure("linear"))

    def test_orders_coverage(self, small_domain):
        orderer = ExhaustiveOrderer(small_domain.measure("coverage"))
        results = orderer.order_list(small_domain.space, 12)
        assert_valid_ordering(results, small_domain.space, small_domain.measure("coverage"))

    def test_exhausts_space(self, tiny_domain):
        orderer = ExhaustiveOrderer(tiny_domain.measure("linear"))
        results = orderer.order_list(tiny_domain.space, 100)
        assert len(results) == tiny_domain.space.size
        assert len({r.plan.key for r in results}) == len(results)

    def test_k_must_be_positive(self, tiny_domain):
        orderer = ExhaustiveOrderer(tiny_domain.measure("linear"))
        with pytest.raises(OrderingError):
            orderer.order_list(tiny_domain.space, 0)

    def test_recomputes_everything(self, tiny_domain):
        orderer = ExhaustiveOrderer(tiny_domain.measure("linear"))
        orderer.order_list(tiny_domain.space, 3)
        size = tiny_domain.space.size
        assert orderer.stats.plans_evaluated == size + (size - 1) + (size - 2)


class TestPI:
    def test_matches_exhaustive_on_context_free(self, small_domain):
        k = 15
        exhaustive = ExhaustiveOrderer(small_domain.measure("failure"))
        pi = PIOrderer(small_domain.measure("failure"))
        a = exhaustive.order_list(small_domain.space, k)
        b = pi.order_list(small_domain.space, k)
        assert [r.plan.key for r in a] == [r.plan.key for r in b]
        assert [r.utility for r in a] == pytest.approx([r.utility for r in b])

    def test_valid_ordering_on_coverage(self, small_domain):
        pi = PIOrderer(small_domain.measure("coverage"))
        results = pi.order_list(small_domain.space, 20)
        assert_valid_ordering(results, small_domain.space, small_domain.measure("coverage"))

    def test_valid_ordering_on_caching_cost(self, small_domain):
        utility = small_domain.measure("failure-caching")
        pi = PIOrderer(utility)
        results = pi.order_list(small_domain.space, 15)
        assert_valid_ordering(
            results, small_domain.space, small_domain.measure("failure-caching")
        )

    def test_context_free_evaluates_each_plan_once(self, small_domain):
        pi = PIOrderer(small_domain.measure("failure"))
        pi.order_list(small_domain.space, 10)
        assert pi.stats.plans_evaluated == small_domain.space.size

    def test_coverage_reuses_independent_utilities(self, small_domain):
        pi = PIOrderer(small_domain.measure("coverage"))
        exhaustive = ExhaustiveOrderer(small_domain.measure("coverage"))
        k = 10
        pi.order_list(small_domain.space, k)
        exhaustive.order_list(small_domain.space, k)
        assert pi.stats.plans_evaluated < exhaustive.stats.plans_evaluated

    def test_first_plan_evaluations_recorded(self, small_domain):
        pi = PIOrderer(small_domain.measure("coverage"))
        pi.order_list(small_domain.space, 5)
        assert pi.stats.first_plan_evaluations == small_domain.space.size

    def test_unsound_plans_not_recorded(self, small_domain):
        """on_emit=False plans must not change later utilities."""
        utility = small_domain.measure("coverage")
        pi = PIOrderer(utility)
        # Reject every other plan.
        flags = iter([True, False] * 50)
        results = pi.order_list(
            small_domain.space, 10, on_emit=lambda plan: next(flags)
        )
        # Replay: only accepted plans enter the context.
        replay = small_domain.measure("coverage")
        ctx = replay.new_context()
        flags = iter([True, False] * 50)
        for entry in results:
            assert replay.evaluate(entry.plan, ctx) == pytest.approx(entry.utility)
            if next(flags):
                ctx.record(entry.plan)


class Flat(UtilityMeasure):
    """Every plan ties with every other, in every context."""

    name = "flat"

    def evaluate(self, plan, context):
        return 0.0

    def evaluate_slots(self, slots, context):
        return Interval.point(0.0)


@pytest.mark.parametrize("cls", [ExhaustiveOrderer, PIOrderer])
def test_ties_go_to_the_smallest_plan_key(cls, tiny_domain):
    # Definition 2.1 allows any pick among tied maxima; these two
    # promise the smallest key.  PI evaluates every plan whatever it
    # picks, so no evaluation count can see this rule.
    results = cls(Flat()).order_list(tiny_domain.space, tiny_domain.space.size)
    keys = [entry.plan.key for entry in results]
    assert keys == sorted(keys)
