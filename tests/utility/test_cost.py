"""Tests for the cost-based utility measures."""

import pytest

from repro.datalog.parser import parse_query
from repro.errors import UtilityError
from repro.reformulation.plans import QueryPlan
from repro.sources.catalog import SourceDescription
from repro.sources.statistics import SourceStats
from repro.utility.cost import BindJoinCost, CachingContext, LinearCost


def make_source(name: str, n: int, alpha: float, fail: float = 0.0) -> SourceDescription:
    return SourceDescription(
        name,
        parse_query(f"{name}(X) :- r(X)"),
        SourceStats(n_tuples=n, transfer_cost=alpha, failure_prob=fail),
    )


A = make_source("a", 10, 1.0)
B = make_source("b", 20, 2.0)
C = make_source("c", 5, 3.0, fail=0.5)
D = make_source("d", 8, 0.5, fail=0.2)


class TestLinearCost:
    def test_point_evaluation(self):
        measure = LinearCost(access_overhead=1.0)
        plan = QueryPlan((A, B))
        # cost = (1 + 10) + (1 + 40) = 52
        assert measure.evaluate(plan, measure.new_context()) == -52.0

    def test_fully_monotonic_flags(self):
        measure = LinearCost()
        assert measure.is_fully_monotonic
        assert measure.context_free
        assert measure.has_diminishing_returns

    def test_preference_key_orders_by_term(self):
        measure = LinearCost(access_overhead=1.0)
        assert measure.source_preference_key(0, A) > measure.source_preference_key(0, B)

    def test_interval_covers_combinations(self):
        measure = LinearCost(access_overhead=1.0)
        ctx = measure.new_context()
        interval = measure.evaluate_slots(((A, B), (C,)), ctx)
        for first in (A, B):
            value = measure.evaluate(QueryPlan((first, C)), ctx)
            assert interval.lo <= value <= interval.hi

    def test_negative_overhead_rejected(self):
        with pytest.raises(UtilityError):
            LinearCost(access_overhead=-1)


class TestBindJoinCost:
    def test_point_evaluation_two_slots(self):
        measure = BindJoinCost(access_overhead=1.0, domain_sizes=100.0)
        plan = QueryPlan((A, B))
        # flow: 10, then 10*20/100 = 2; cost = (1+10) + (1+2*2) = 16
        assert measure.evaluate(plan, measure.new_context()) == pytest.approx(-16.0)

    def test_flow_propagates_three_slots(self):
        measure = BindJoinCost(access_overhead=0.0, domain_sizes=10.0)
        plan = QueryPlan((A, B, D))
        ctx = measure.new_context()
        # flows: 10 -> 10*20/10=20 -> 20*8/10=16
        expected = -(10 * 1.0 + 20 * 2.0 + 16 * 0.5)
        assert measure.evaluate(plan, ctx) == pytest.approx(expected)

    def test_per_slot_domain_sizes(self):
        measure = BindJoinCost(access_overhead=0.0, domain_sizes=[1.0, 50.0])
        assert measure.domain_size(1) == 50.0

    def test_failure_divides_by_success_probability(self):
        plain = BindJoinCost(access_overhead=1.0, domain_sizes=100.0)
        failing = BindJoinCost(
            access_overhead=1.0, domain_sizes=100.0, failure_aware=True
        )
        plan = QueryPlan((C, D))
        ctx = plain.new_context()
        base = -plain.evaluate(plan, ctx)
        expected = base / ((1 - 0.5) * (1 - 0.2))
        assert -failing.evaluate(plan, failing.new_context()) == pytest.approx(expected)

    def test_not_fully_monotonic(self):
        assert not BindJoinCost().is_fully_monotonic
        with pytest.raises(UtilityError):
            BindJoinCost().source_preference_key(0, A)

    def test_interval_contains_all_combinations(self):
        measure = BindJoinCost(access_overhead=1.0, domain_sizes=30.0)
        ctx = measure.new_context()
        interval = measure.evaluate_slots(((A, B), (C, D)), ctx)
        for first in (A, B):
            for second in (C, D):
                value = measure.evaluate(QueryPlan((first, second)), ctx)
                assert interval.lo - 1e-9 <= value <= interval.hi + 1e-9


class TestCaching:
    def test_flags_flip_with_caching(self):
        measure = BindJoinCost(caching=True)
        assert not measure.context_free
        assert not measure.has_diminishing_returns
        assert isinstance(measure.new_context(), CachingContext)

    def test_cached_term_becomes_free(self):
        measure = BindJoinCost(access_overhead=1.0, domain_sizes=100.0, caching=True)
        ctx = measure.new_context()
        plan = QueryPlan((A, B))
        before = measure.evaluate(plan, ctx)
        ctx.record(QueryPlan((A, D)))  # caches (a, slot 0)
        after = measure.evaluate(plan, ctx)
        assert after == before + 11.0  # (1 + 1.0*10) no longer paid

    def test_cache_is_slot_specific(self):
        measure = BindJoinCost(access_overhead=1.0, domain_sizes=100.0, caching=True)
        ctx = measure.new_context()
        ctx.record(QueryPlan((B, A)))  # caches (b,0) and (a,1)
        assert ctx.is_cached(B, 0)
        assert not ctx.is_cached(A, 0)

    def test_independence_with_caching(self):
        measure = BindJoinCost(caching=True)
        assert measure.independent(QueryPlan((A, B)), QueryPlan((B, A)))
        assert not measure.independent(QueryPlan((A, B)), QueryPlan((A, D)))

    def test_independence_without_caching_is_universal(self):
        measure = BindJoinCost()
        assert measure.independent(QueryPlan((A, B)), QueryPlan((A, B)))

    def test_interval_with_partial_caching_lowers_floor(self):
        measure = BindJoinCost(access_overhead=1.0, domain_sizes=100.0, caching=True)
        ctx = measure.new_context()
        ctx.record(QueryPlan((A, C)))
        interval = measure.evaluate_slots(((A, B), (D,)), ctx)
        for first in (A, B):
            value = measure.evaluate(QueryPlan((first, D)), ctx)
            assert interval.lo - 1e-9 <= value <= interval.hi + 1e-9
