"""Tests for the plan-coverage utility."""

import pytest

from repro.datalog.parser import parse_query
from repro.reformulation.plans import QueryPlan
from repro.sources.catalog import SourceDescription
from repro.sources.overlap import OverlapModel
from repro.utility.coverage import CoverageUtility, plan_box


def src(name: str) -> SourceDescription:
    return SourceDescription(name, parse_query(f"{name}(X) :- r(X)"))


A, B, C = src("a"), src("b"), src("c")
X, Y = src("x"), src("y")


@pytest.fixture
def model() -> OverlapModel:
    return OverlapModel(
        (4, 4),
        {
            (0, "a"): 0b0011,
            (0, "b"): 0b0110,
            (0, "c"): 0b1000,
            (1, "x"): 0b0011,
            (1, "y"): 0b1100,
        },
    )


@pytest.fixture
def coverage(model) -> CoverageUtility:
    return CoverageUtility(model)


class TestPointEvaluation:
    def test_initial_coverage_is_box_fraction(self, coverage):
        ctx = coverage.new_context()
        # |a x x| = 2*2 = 4 of 16.
        assert coverage.evaluate(QueryPlan((A, X)), ctx) == pytest.approx(0.25)

    def test_coverage_shrinks_after_execution(self, coverage):
        ctx = coverage.new_context()
        ctx.record(QueryPlan((A, X)))
        # b&a share element 1; x&x share both -> 2 of b-x's 4 covered.
        assert coverage.evaluate(QueryPlan((B, X)), ctx) == pytest.approx(2 / 16)

    def test_disjoint_plan_unaffected(self, coverage):
        ctx = coverage.new_context()
        before = coverage.evaluate(QueryPlan((C, Y)), ctx)
        ctx.record(QueryPlan((A, X)))
        assert coverage.evaluate(QueryPlan((C, Y)), ctx) == before

    def test_executed_plan_covers_itself(self, coverage):
        ctx = coverage.new_context()
        ctx.record(QueryPlan((A, X)))
        assert coverage.evaluate(QueryPlan((A, X)), ctx) == 0.0

    def test_plan_box(self, coverage, model):
        assert plan_box(model, QueryPlan((A, Y))) == (0b0011, 0b1100)


class TestDiminishingReturns:
    def test_flags(self, coverage):
        assert coverage.has_diminishing_returns
        assert not coverage.context_free
        assert not coverage.is_fully_monotonic

    def test_utility_never_increases(self, coverage):
        ctx = coverage.new_context()
        candidates = [QueryPlan((B, X)), QueryPlan((C, Y)), QueryPlan((A, Y))]
        previous = {p.key: coverage.evaluate(p, ctx) for p in candidates}
        for executed in (QueryPlan((A, X)), QueryPlan((B, Y))):
            ctx.record(executed)
            for plan in candidates:
                now = coverage.evaluate(plan, ctx)
                assert now <= previous[plan.key] + 1e-12
                previous[plan.key] = now


class TestIntervals:
    def test_interval_contains_all_members(self, coverage):
        ctx = coverage.new_context()
        ctx.record(QueryPlan((A, X)))
        interval = coverage.evaluate_slots(((A, B, C), (X, Y)), ctx)
        for first in (A, B, C):
            for second in (X, Y):
                value = coverage.evaluate(QueryPlan((first, second)), ctx)
                assert interval.lo - 1e-12 <= value <= interval.hi + 1e-12

    def test_singleton_slots_give_point(self, coverage):
        ctx = coverage.new_context()
        interval = coverage.evaluate_slots(((A,), (X,)), ctx)
        assert interval.is_point
        assert interval.lo == coverage.evaluate(QueryPlan((A, X)), ctx)


class TestIndependence:
    def test_disjoint_in_one_slot_is_independent(self, coverage):
        assert coverage.independent(QueryPlan((A, X)), QueryPlan((C, X)))

    def test_overlapping_everywhere_is_dependent(self, coverage):
        assert not coverage.independent(QueryPlan((A, X)), QueryPlan((B, X)))

    def test_witness_found_via_disjoint_member(self, coverage):
        # c is disjoint from a in slot 0, so some concrete plan in
        # {a,c} x {x} is independent of (a, x).
        assert coverage.has_independent_witness(
            ((A, C), (X,)), [QueryPlan((A, X))]
        )

    def test_no_witness_when_all_members_overlap(self, coverage):
        assert not coverage.has_independent_witness(
            ((A, B), (X,)), [QueryPlan((A, X))]
        )

    def test_witness_trivial_without_executions(self, coverage):
        assert coverage.has_independent_witness(((A,), (X,)), [])

    def test_all_members_independent(self, coverage):
        assert coverage.all_members_independent(((C,), (X, Y)), QueryPlan((A, X)))
        assert not coverage.all_members_independent(
            ((A, C), (X, Y)), QueryPlan((A, X))
        )


class TestSlotCache:
    def test_a_slots_extensions_are_read_once(self, model, coverage, monkeypatch):
        # Streamer re-evaluates the same abstract slots after every
        # execution; their intersection and union masks do not change.
        reads = []
        extension = model.extension
        monkeypatch.setattr(
            model, "extension", lambda *key: reads.append(key) or extension(*key)
        )
        slots, context = ((A, B), (X, Y)), coverage.new_context()
        first = coverage.evaluate_slots(slots, context)
        assert len(reads) == 4
        context.record(QueryPlan((A, X)))
        del reads[:]
        assert coverage.evaluate_slots(slots, context) != first
        assert reads == []


class TestContextHandling:
    def test_record_via_context(self, coverage):
        ctx = coverage.new_context()
        ctx.record(QueryPlan((A, X)))
        assert len(ctx) == 1
        assert ctx.covered.size == 4
