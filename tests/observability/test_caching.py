"""Tests for the memoized utility wrapper, including the
cache-correctness property: orderings with and without the cache must
be identical, with the cache actually being hit on workloads that
repeat subplans."""

from functools import partial

import pytest

from repro.observability.caching import CachingUtilityMeasure
from repro.observability.metrics import MetricRegistry
from repro.ordering.abstraction import OutputCountHeuristic, top_plan
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.workloads.synthetic import SyntheticParams, generate_domain


def small_domain_for(seed):
    return generate_domain(
        SyntheticParams(query_length=2, bucket_size=6, seed=seed)
    )


class TestWrapperPlumbing:
    def test_stacking_caches_rejected(self):
        domain = small_domain_for(0)
        cached = CachingUtilityMeasure(domain.measure("linear"))
        with pytest.raises(TypeError):
            CachingUtilityMeasure(cached)

    def test_flags_and_name_copied(self):
        domain = small_domain_for(0)
        inner = domain.measure("linear")
        cached = CachingUtilityMeasure(inner)
        assert cached.name == inner.name + "+memo"
        assert cached.is_fully_monotonic == inner.is_fully_monotonic
        assert cached.has_diminishing_returns == inner.has_diminishing_returns
        assert cached.context_free == inner.context_free

    def test_preference_key_delegates(self):
        domain = small_domain_for(0)
        inner = domain.measure("linear")
        cached = CachingUtilityMeasure(inner)
        source = domain.space.buckets[0].sources[0]
        assert cached.source_preference_key(0, source) == inner.source_preference_key(
            0, source
        )


class TestHitMissAccounting:
    def test_repeat_evaluation_hits(self):
        domain = small_domain_for(0)
        registry = MetricRegistry()
        cached = CachingUtilityMeasure(domain.measure("linear"), registry=registry)
        plan = next(domain.space.plans())
        context = cached.new_context()
        first = cached.evaluate(plan, context)
        second = cached.evaluate(plan, context)
        assert first == second
        assert cached.misses == 1
        assert cached.hits == 1
        assert registry.get("utility_cache.entries").value == 1

    def test_slots_cached_separately(self):
        domain = small_domain_for(0)
        cached = CachingUtilityMeasure(domain.measure("linear"))
        context = cached.new_context()
        slots = tuple(bucket.sources for bucket in domain.space.buckets)
        first = cached.evaluate_slots(slots, context)
        second = cached.evaluate_slots(slots, context)
        assert first == second
        assert (cached.misses, cached.hits) == (1, 1)

    def test_context_free_measure_ignores_executed_plans(self):
        domain = small_domain_for(0)
        cached = CachingUtilityMeasure(domain.measure("linear"))
        plans = list(domain.space.plans())
        context = cached.new_context()
        cached.evaluate(plans[0], context)
        context.record(plans[1])
        cached.evaluate(plans[0], context)
        assert cached.hits == 1

    def test_keys_carry_identities_instead_of_rebuilding_them(self):
        domain = small_domain_for(4)
        cached = CachingUtilityMeasure(domain.measure("linear"))
        plan = next(domain.space.plans())
        abstract = top_plan(domain.space.buckets, OutputCountHeuristic())
        context = cached.new_context()
        cached.evaluate(plan, context)
        cached.evaluate_slots(abstract.slots_members(), context)
        (concrete_key,) = cached._concrete
        (abstract_key,) = cached._abstract
        # The very objects the plan carries: no per-call name tuples.
        assert concrete_key is plan.key
        assert abstract_key is abstract.slots_members()
        assert abstract.key is abstract.key
        assert abstract.slots[0].key is abstract.slots[0].key
        # Slots that are equal by source name still share the entry.
        rebuilt = tuple(tuple(members) for members in abstract.slots_members())
        cached.evaluate_slots(rebuilt, context)
        assert cached.hits == 1

    @pytest.mark.parametrize(
        "measure_name", ["coverage", "failure-caching", "monetary-caching"]
    )
    def test_a_context_dependent_measure_is_refused(self, measure_name):
        # Its values are asked for again only after another plan was
        # recorded, so a memoized one could never hit in the run.
        domain = small_domain_for(0)
        with pytest.raises(TypeError, match="plans already executed"):
            CachingUtilityMeasure(domain.measure(measure_name))
        with pytest.raises(TypeError, match="plans already executed"):
            ExhaustiveOrderer(domain.measure(measure_name), cache=True)


#: (orderer class, measure factory name) cells for the equality sweep.
ORDERERS = {
    "exhaustive": ExhaustiveOrderer,
    "pi": PIOrderer,
    "idrips": IDripsOrderer,
    "streamer": StreamerOrderer,
    "greedy": GreedyOrderer,
}
MEASURES = ("linear", "failure", "monetary")


class TestCacheCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("measure_name", MEASURES)
    @pytest.mark.parametrize("orderer_name", sorted(ORDERERS))
    def test_cached_ordering_identical(self, seed, measure_name, orderer_name):
        domain = small_domain_for(seed)
        make = partial(domain.measure, measure_name)
        cls = ORDERERS[orderer_name]
        if cls is GreedyOrderer and not make().is_fully_monotonic:
            pytest.skip("greedy needs a fully monotonic measure")
        if cls is StreamerOrderer and not make().has_diminishing_returns:
            pytest.skip("streamer needs diminishing returns")
        plain = cls(make()).order_list(domain.space, 10)
        cached = cls(make(), cache=True).order_list(domain.space, 10)
        assert [r.plan.key for r in cached] == [r.plan.key for r in plain]
        assert [r.utility for r in cached] == pytest.approx(
            [r.utility for r in plain]
        )

    @pytest.mark.parametrize(
        "orderer_name, measure_name",
        [("exhaustive", "linear"), ("exhaustive", "monetary"),
         ("idrips", "linear"), ("idrips", "monetary")],
    )
    def test_repeated_subplans_actually_hit(self, orderer_name, measure_name):
        """These algorithms re-evaluate identical signatures in
        identical contexts, so the memo must report hits."""
        domain = small_domain_for(3)
        make = partial(domain.measure, measure_name)
        orderer = ORDERERS[orderer_name](make(), cache=True)
        orderer.order_list(domain.space, 10)
        hits = orderer.registry.get("utility_cache.hits")
        assert hits is not None
        assert hits.value > 0
