"""Tests for the health-aware measure wrapper.

The headline property is the acceptance criterion: with no observed
health (an empty tracker), wrapping a measure in
:class:`HealthAwareMeasure` changes *nothing* — the mediator's batch
stream is byte-identical across the 20-seed x 6-measure random-LAV
sweep.  Substitution itself is then covered at the unit level.
"""

import functools

import pytest

from repro.errors import ServiceError
from repro.execution.mediator import Mediator
from repro.observability.caching import CachingUtilityMeasure
from repro.ordering.adaptive import _ReplayMeasure
from repro.ordering.bruteforce import PIOrderer
from repro.resilience.health import SourceHealthTracker
from repro.resilience.manager import ResilienceManager
from repro.resilience.measure import MAX_FAILURE_PROB, HealthAwareMeasure
from repro.service.server import QueryService, ServiceConfig
from repro.utility.cost import BindJoinCost, LinearCost
from repro.workloads.random_lav import ordering_scenario

RANDOM_LAV_SEEDS = list(range(20))
RANDOM_LAV_MEASURES = (
    "linear", "bind-join", "coverage", "monetary", "failure", "failure-caching"
)


class FakePlan:
    def __init__(self, *sources):
        self.sources = tuple(sources)


class TestConstruction:
    def test_min_observations_validated(self):
        with pytest.raises(ServiceError):
            HealthAwareMeasure(
                LinearCost(), SourceHealthTracker(), min_observations=0
            )

    def test_mirrors_structural_flags_and_name(self):
        inner = BindJoinCost(failure_aware=True)
        measure = HealthAwareMeasure(inner, SourceHealthTracker())
        assert measure.name == inner.name + "+health"
        assert measure.is_fully_monotonic == inner.is_fully_monotonic
        assert measure.has_diminishing_returns == inner.has_diminishing_returns
        assert measure.context_free == inner.context_free


class TestWrapperComposition:
    """The one legal stack (module docstring of resilience/measure.py):
    a cache or a health-aware wrapper over the base measure, never the
    cache over live health; one test per illegal composition."""

    def live(self):
        return HealthAwareMeasure(LinearCost(), SourceHealthTracker())

    def test_cache_over_live_health_is_refused(self):
        with pytest.raises(TypeError, match="live source health"):
            CachingUtilityMeasure(self.live())

    def test_orderer_auto_cache_over_live_health_is_refused(self):
        with pytest.raises(TypeError, match="live source health"):
            PIOrderer(self.live(), cache=True)

    def test_cache_over_replayed_live_health_is_refused(self):
        with pytest.raises(TypeError, match="live source health"):
            CachingUtilityMeasure(_ReplayMeasure(self.live(), ()))

    @pytest.mark.parametrize(
        "measure_name, wrapper",
        [
            ("linear", CachingUtilityMeasure),
            ("monetary", CachingUtilityMeasure),
            ("coverage", None),
            ("failure", HealthAwareMeasure),
        ],
    )
    def test_service_picks_exactly_one_wrapper(self, measure_name, wrapper):
        # Under a manager only a failure-aware measure is health-wrapped;
        # every other one is served as it is without a manager.
        scenario = lav_scenario(3)
        base = type(scenario.measure(measure_name))
        service = QueryService(
            scenario.catalog,
            scenario.source_facts,
            measures={
                measure_name: functools.partial(scenario.measure, measure_name)
            },
            config=ServiceConfig(default_measure=measure_name),
            resilience=ResilienceManager(),
        )
        measure = service.shared_measure(measure_name)
        if wrapper is None:
            assert type(measure) is base
        else:
            assert type(measure) is wrapper
            assert type(measure.inner) is base


class TestSubstitution:
    def tracked(self, **kwargs):
        tracker = SourceHealthTracker()
        return (
            HealthAwareMeasure(
                BindJoinCost(failure_aware=True), tracker, **kwargs
            ),
            tracker,
        )

    def source(self, movies, name):
        return movies.catalog.source(name)

    def test_identity_without_observations(self, movies):
        measure, _ = self.tracked()
        source = self.source(movies, "v1")
        assert measure.substitute(source) is source

    def test_identity_below_the_sample_floor(self, movies):
        measure, tracker = self.tracked(min_observations=3)
        tracker.record_failure("v1")
        tracker.record_failure("v1")
        source = self.source(movies, "v1")
        assert measure.substitute(source) is source

    def test_substitutes_the_observed_rate(self, movies):
        measure, tracker = self.tracked(min_observations=1)
        tracker.record_failure("v1")
        source = self.source(movies, "v1")
        substituted = measure.substitute(source)
        assert substituted is not source
        assert substituted.name == source.name
        assert substituted.stats.failure_prob == pytest.approx(
            MAX_FAILURE_PROB
        )  # a 1.0 rate is clamped below SourceStats' f < 1 bound
        # Everything but the failure prior is preserved.
        assert substituted.stats.n_tuples == source.stats.n_tuples
        assert substituted.stats.transfer_cost == source.stats.transfer_cost

    def test_rate_equal_to_prior_keeps_identity(self, movies):
        measure, tracker = self.tracked(min_observations=1)
        tracker.record_success("v1")  # observed 0.0, the movie prior
        source = self.source(movies, "v1")
        assert source.stats.failure_prob == 0.0
        assert measure.substitute(source) is source

    def test_failing_source_loses_utility(self, movies):
        """Adaptive re-ranking: an unhealthy source's plans sink."""
        measure, tracker = self.tracked(min_observations=1)
        tracker.record_failure("v1")
        inner = measure.inner
        context = inner.new_context()
        healthy = FakePlan(self.source(movies, "v2"))
        sick = FakePlan(self.source(movies, "v1"))
        # Same shape of plan; the observed failure rate alone must
        # decide the ranking (priors in the movie catalog are small).
        assert measure.evaluate(sick, context) < measure.evaluate(
            healthy, context
        )
        # The unwrapped measure would have ranked them the other way
        # or nearly equal; the wrapper changed only the sick plan.
        assert measure.evaluate(healthy, context) == pytest.approx(
            inner.evaluate(healthy, context)
        )


# -- acceptance: exact pass-through on the random-LAV sweep ------------------------


@functools.lru_cache(maxsize=None)
def lav_scenario(seed: int):
    return ordering_scenario(seed)


def batch_stream(scenario, utility):
    mediator = Mediator(
        scenario.catalog, scenario.source_facts
    )
    return tuple(
        (b.rank, b.plan.key, b.sound, b.answers, b.new_answers, b.utility)
        for b in mediator.answer(
            scenario.query, utility, orderer=PIOrderer(utility)
        )
    )


@pytest.mark.parametrize("measure_name", RANDOM_LAV_MEASURES)
@pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS)
def test_wrapped_measure_is_byte_identical_when_healthy(seed, measure_name):
    scenario = lav_scenario(seed)
    plain = batch_stream(scenario, scenario.measure(measure_name))
    wrapped = HealthAwareMeasure(
        scenario.measure(measure_name), SourceHealthTracker()
    )
    assert batch_stream(scenario, wrapped) == plain
