"""Tests for the UtilityMeasure interface defaults and contexts."""

import pytest

from repro.errors import UtilityError
from repro.utility.base import ExecutionContext, UtilityMeasure
from repro.utility.intervals import Interval


class _Minimal(UtilityMeasure):
    """A trivially constant context-free measure."""

    name = "constant"

    def evaluate(self, plan, context):
        return 1.0

    def evaluate_slots(self, slots, context):
        return Interval.point(1.0)


class _Dependent(_Minimal):
    """Context-dependent without overriding the oracles."""

    name = "dependent"
    context_free = False


class TestDefaults:
    def test_context_free_independence_defaults(self, tiny_domain):
        measure = _Minimal()
        plans = list(tiny_domain.space.plans())
        assert measure.independent(plans[0], plans[1])
        assert measure.has_independent_witness((), [plans[0]])
        assert measure.all_members_independent((), plans[0])

    def test_dependent_measure_must_override(self, tiny_domain):
        measure = _Dependent()
        plans = list(tiny_domain.space.plans())
        with pytest.raises(NotImplementedError):
            measure.independent(plans[0], plans[1])
        with pytest.raises(NotImplementedError):
            measure.has_independent_witness((), [plans[0]])
        with pytest.raises(NotImplementedError):
            measure.all_members_independent((), plans[0])

    def test_preference_key_default_raises(self, tiny_domain):
        measure = _Minimal()
        source = tiny_domain.space.buckets[0].sources[0]
        with pytest.raises(UtilityError):
            measure.source_preference_key(0, source)

    def test_repr(self):
        assert "constant" in repr(_Minimal())


class TestExecutionContext:
    def test_record_appends(self, tiny_domain):
        context = ExecutionContext()
        plan = next(tiny_domain.space.plans())
        context.record(plan)
        context.record(plan)
        assert len(context) == 2
        assert context.executed == [plan, plan]

    def test_fresh_contexts_are_independent(self, tiny_domain):
        measure = _Minimal()
        first = measure.new_context()
        second = measure.new_context()
        first.record(next(tiny_domain.space.plans()))
        assert len(second) == 0
