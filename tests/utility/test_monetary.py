"""Tests for average monetary cost per output tuple."""

import pytest

from repro.datalog.parser import parse_query
from repro.reformulation.plans import QueryPlan
from repro.sources.catalog import SourceDescription
from repro.sources.statistics import SourceStats
from repro.utility.monetary import MonetaryCostPerTuple


def src(name: str, n: int, access_fee: float, fee_per_item: float) -> SourceDescription:
    return SourceDescription(
        name,
        parse_query(f"{name}(X) :- r(X)"),
        SourceStats(n_tuples=n, access_fee=access_fee, fee_per_item=fee_per_item),
    )


A = src("a", 10, 1.0, 0.1)
B = src("b", 40, 2.0, 0.05)
C = src("c", 20, 0.0, 0.2)


class TestPointEvaluation:
    def test_cost_per_tuple(self):
        measure = MonetaryCostPerTuple(domain_sizes=100.0)
        plan = QueryPlan((A, C))
        ctx = measure.new_context()
        # flows: 10 -> 10*20/100 = 2; fees: (1 + 0.1*10) + (0 + 0.2*2) = 2.4
        # output = 2 tuples -> 1.2 per tuple
        assert measure.evaluate(plan, ctx) == pytest.approx(-1.2)

    def test_zero_output_clamped(self):
        zero = src("z", 0, 1.0, 0.0)
        measure = MonetaryCostPerTuple(domain_sizes=100.0)
        value = measure.evaluate(QueryPlan((zero,)), measure.new_context())
        assert value < 0  # huge cost per tuple, but finite
        assert value == pytest.approx(-1.0 / 1e-6)

    def test_flags_without_caching(self):
        measure = MonetaryCostPerTuple()
        assert measure.context_free
        assert measure.has_diminishing_returns
        assert not measure.is_fully_monotonic


class TestIntervals:
    def test_interval_contains_all_members(self):
        measure = MonetaryCostPerTuple(domain_sizes=50.0)
        ctx = measure.new_context()
        interval = measure.evaluate_slots(((A, B), (C,)), ctx)
        for first in (A, B):
            value = measure.evaluate(QueryPlan((first, C)), ctx)
            assert interval.lo - 1e-9 <= value <= interval.hi + 1e-9


class TestCachingVariant:
    def test_flags_with_caching(self):
        measure = MonetaryCostPerTuple(caching=True)
        assert not measure.context_free
        assert not measure.has_diminishing_returns

    def test_cached_fees_not_paid_again(self):
        measure = MonetaryCostPerTuple(domain_sizes=100.0, caching=True)
        ctx = measure.new_context()
        plan = QueryPlan((A, C))
        before = measure.evaluate(plan, ctx)
        ctx.record(QueryPlan((A, B)))
        after = measure.evaluate(plan, ctx)
        assert after > before  # cheaper now

    def test_pairwise_independence(self):
        measure = MonetaryCostPerTuple(caching=True)
        assert measure.independent(QueryPlan((A, C)), QueryPlan((B, A)))
        assert not measure.independent(QueryPlan((A, C)), QueryPlan((A, B)))

    def test_interval_with_caching_contains_members(self):
        measure = MonetaryCostPerTuple(domain_sizes=50.0, caching=True)
        ctx = measure.new_context()
        ctx.record(QueryPlan((A, C)))
        interval = measure.evaluate_slots(((A, B), (C,)), ctx)
        for first in (A, B):
            value = measure.evaluate(QueryPlan((first, C)), ctx)
            assert interval.lo - 1e-9 <= value <= interval.hi + 1e-9
