"""Fixture tests for the scenario rule family (SCN006).

Each check of SCN006 gets a utility measure whose declared structural
flags lie (known-bad) next to honest measures (known-clean).
"""

import pytest

from repro.analysis.runner import BUILTIN_SCENARIOS, builtin_scenarios
from repro.analysis.scenario import (
    ScenarioContext,
    _sample_plans,
    _supports_model,
    check_measure_properties,
)
from repro.datalog.parser import parse_query
from repro.errors import UtilityError
from repro.sources.catalog import Catalog
from repro.sources.statistics import SourceStats
from repro.utility.base import UtilityMeasure
from repro.utility.cost import LinearCost
from repro.utility.intervals import Interval

QUERY = "q(X) :- r(X)"


@pytest.fixture
def catalog():
    catalog = Catalog({"r": 1})
    catalog.add_source("v1(X) :- r(X)")
    catalog.add_source("v2(X) :- r(X)", stats=SourceStats(n_tuples=7))
    return catalog


def lint_measures(catalog, *measures, query=QUERY):
    context = ScenarioContext(
        name="fixture",
        catalog=catalog,
        query=parse_query(query),
        measures=measures,
    )
    return list(check_measure_properties(context))


def messages(catalog, *measures):
    return [d.message for d in lint_measures(catalog, *measures)]


class ConstantMeasure(UtilityMeasure):
    """Honest baseline: constant utility, trivially everything."""

    name = "constant"
    is_fully_monotonic = False
    context_free = True
    has_diminishing_returns = True

    def evaluate(self, plan, context):
        return 1.0

    def evaluate_slots(self, slots, context):
        return Interval.point(1.0)


class UnsoundIntervalMeasure(ConstantMeasure):
    """Lies in evaluate_slots: the interval misses every plan."""

    name = "unsound-interval"

    def evaluate_slots(self, slots, context):
        return Interval(5.0, 9.0)


class KeylessMonotonicMeasure(ConstantMeasure):
    """Claims full monotonicity but defines no preference key."""

    name = "keyless-monotonic"
    is_fully_monotonic = True


class ContextDependentButClaimsFree(ConstantMeasure):
    """Claims context freeness while reading the executed set."""

    name = "lying-context-free"

    def evaluate(self, plan, context):
        return 1.0 + len(context.executed)

    def evaluate_slots(self, slots, context):
        return Interval(1.0, 1000.0)


class GrowingReturnsMeasure(ContextDependentButClaimsFree):
    """Claims diminishing returns while utility grows with history."""

    name = "growing-returns"
    context_free = False


class SourceSensitiveMeasure(UtilityMeasure):
    """Utility 2 with source v2 in the plan, 1 otherwise; honest key."""

    name = "source-sensitive"
    is_fully_monotonic = True
    context_free = True
    has_diminishing_returns = True

    def evaluate(self, plan, context):
        return 2.0 if any(s.name == "v2" for s in plan.sources) else 1.0

    def evaluate_slots(self, slots, context):
        names = {s.name for members in slots for s in members}
        hi = 2.0 if "v2" in names else 1.0
        avoidable = all(
            any(s.name != "v2" for s in members) for members in slots
        )
        return Interval(1.0 if avoidable else 2.0, hi)

    def source_preference_key(self, bucket, source):
        return 1.0 if source.name == "v2" else 0.0


class ReversedKeyMeasure(SourceSensitiveMeasure):
    """Same utility, but the preference key prefers the worse source."""

    name = "reversed-key"

    def source_preference_key(self, bucket, source):
        return 0.0 if source.name == "v2" else 1.0


class PointBlindMeasure(SourceSensitiveMeasure):
    """Sound on whole slots, but singleton slots miss the plan's utility."""

    name = "point-blind"

    def evaluate_slots(self, slots, context):
        if all(len(members) == 1 for members in slots):
            return Interval(-9.0, -5.0)
        return Interval(1.0, 2.0)


class TestMeasureProperties:
    def test_honest_measures_are_clean(self, catalog):
        assert messages(
            catalog, ConstantMeasure(), LinearCost(), SourceSensitiveMeasure()
        ) == []

    def test_catches_unsound_interval(self, catalog):
        found = messages(catalog, UnsoundIntervalMeasure())
        assert any("interval evaluation is unsound" in m for m in found)

    def test_catches_singleton_interval_miss(self, catalog):
        (message,) = messages(catalog, PointBlindMeasure())
        assert "not to the plan's own utility" in message

    def test_catches_monotonicity_claim_without_key(self, catalog):
        (message,) = messages(catalog, KeylessMonotonicMeasure())
        assert "no source preference key" in message

    def test_catches_reversed_preference_key(self, catalog):
        (finding,) = lint_measures(catalog, ReversedKeyMeasure())
        assert "full monotonicity violated" in finding.message
        assert "in bucket 0" in finding.message

    def test_catches_context_freeness_lie(self, catalog):
        found = messages(catalog, ContextDependentButClaimsFree())
        assert any("claims context freeness" in m for m in found)

    def test_catches_diminishing_returns_lie(self, catalog):
        found = messages(catalog, GrowingReturnsMeasure())
        assert any("claims diminishing returns" in m for m in found)
        assert not any("context freeness" in m for m in found)

    def test_empty_plan_space_skips_the_spot_checks(self):
        catalog = Catalog({"r": 1, "s": 1})
        catalog.add_source("v1(X) :- r(X)")
        assert lint_measures(
            catalog, UnsoundIntervalMeasure(), query="q(X) :- r(X), s(X)"
        ) == []

    def test_exchange_check_runs_only_on_monotonicity_claims(self, catalog):
        class UnclaimedReversedKey(ReversedKeyMeasure):
            is_fully_monotonic = False

        assert messages(catalog, UnclaimedReversedKey()) == []

    def test_honestly_declared_history_dependence_is_clean(self, catalog):
        class HonestGrowth(ConstantMeasure):
            name = "honest-growth"
            context_free = False
            has_diminishing_returns = False

            def evaluate(self, plan, context):
                return 1.0 + len(context.executed)

            def evaluate_slots(self, slots, context):
                return Interval.point(1.0 + len(context.executed))

        assert messages(catalog, HonestGrowth()) == []

    def test_measures_that_cannot_evaluate_the_scenario_are_skipped(
        self, catalog
    ):
        class Inapplicable(UnsoundIntervalMeasure):
            def evaluate(self, plan, context):
                raise UtilityError("no overlap model for this catalog")

        assert messages(catalog, Inapplicable()) == []

    def test_one_counterexample_per_check(self, catalog):
        # Both plans miss the interval after every recorded execution;
        # the report names the lie once.
        found = messages(catalog, UnsoundIntervalMeasure())
        unsound = [m for m in found if "interval evaluation is unsound" in m]
        assert len(unsound) == 1

    def test_findings_point_at_the_scenario_and_the_measure(self, catalog):
        (finding,) = lint_measures(catalog, PointBlindMeasure())
        assert finding.rule == "SCN006"
        assert finding.location.file == "fixture"
        assert finding.message.startswith("measure 'point-blind': ")

    def test_large_spaces_are_sampled_deterministically(self):
        catalog = Catalog({"r": 1, "s": 1, "t": 1})
        for relation in "rst":
            for i in range(5):
                catalog.add_source(f"{relation}{i}(X) :- {relation}(X)")
        context = ScenarioContext(
            name="wide",
            catalog=catalog,
            query=parse_query("q(X) :- r(X), s(X), t(X)"),
        )
        first = [plan.key for plan in _sample_plans(context)]
        assert len(first) == len(set(first)) == 64  # of 125 plans
        assert [plan.key for plan in _sample_plans(context)] == first


@pytest.fixture(scope="module")
def bundled():
    return {context.name: context for context in builtin_scenarios()}


class TestBundledScenarios:
    # SCN006 skips a scenario with an empty plan space and a measure
    # that cannot evaluate it; silence on a bundled workload must mean
    # every measure was checked, not that none was.
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_every_measure_is_checked(self, name, bundled):
        context = bundled[name]
        plans = _sample_plans(context)
        assert plans
        assert context.measures
        for measure in context.measures:
            assert _supports_model(context, measure, plans), measure.name
