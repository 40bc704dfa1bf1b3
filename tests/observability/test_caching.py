"""Tests for the memoized utility wrapper, including the
cache-correctness property: orderings with and without the cache must
be identical, with the cache actually being hit on workloads that
repeat subplans."""

from functools import partial

import itertools
import sys
import threading

import pytest

from repro.observability.caching import CachingUtilityMeasure
from repro.observability.metrics import MetricRegistry
from repro.ordering.abstraction import OutputCountHeuristic, top_plan
from repro.ordering.adaptive import _ReplayMeasure
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.reformulation.plans import QueryPlan
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

    def test_context_sensitive_measure_keys_on_executed_sequence(self):
        domain = small_domain_for(0)
        cached = CachingUtilityMeasure(domain.measure("coverage"))
        plans = list(domain.space.plans())
        context = cached.new_context()
        before = cached.evaluate(plans[0], context)
        context.record(plans[1])
        after = cached.evaluate(plans[0], context)
        # Both evaluations were misses: the executed set changed, so
        # the cached value may not be reused (and indeed differs).
        assert cached.hits == 0
        assert cached.misses == 2
        assert after <= before


#: (orderer class, measure factory name) cells for the equality sweep.
ORDERERS = {
    "exhaustive": ExhaustiveOrderer,
    "pi": PIOrderer,
    "idrips": IDripsOrderer,
    "streamer": StreamerOrderer,
    "greedy": GreedyOrderer,
}
MEASURES = ("linear", "coverage", "monetary")


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


def tokens_along(cached, plans):
    """The prefix token after each of *plans* is recorded, from empty."""
    context = cached.new_context()
    tokens = [cached._context_token(context)]
    for plan in plans:
        context.record(plan)
        tokens.append(cached._context_token(context))
    return tokens


class TestPrefixTokens:
    """The context half of a cache key: exact, interned, O(1) amortised."""

    def test_equal_tokens_iff_equal_executed_sequences(self):
        domain = small_domain_for(1)
        cached = CachingUtilityMeasure(domain.measure("coverage"))
        plans = list(domain.space.plans())[:5]
        sequences = [
            list(picked)
            for size in range(4)
            for picked in itertools.permutations(plans, size)
        ]
        token_of = {}
        for sequence in sequences:
            token = tokens_along(cached, sequence)[-1]
            keys = tuple(plan.key for plan in sequence)
            # Same plans in another order are another prefix.
            assert token_of.setdefault(token, keys) == keys
        assert len(token_of) == len(sequences)
        # ... and walking a sequence again finds the same tokens.
        assert tokens_along(cached, plans) == tokens_along(cached, plans)

    def test_equal_plans_built_apart_share_a_token(self):
        domain = small_domain_for(1)
        cached = CachingUtilityMeasure(domain.measure("coverage"))
        plans = list(domain.space.plans())[:3]
        rebuilt = [QueryPlan(tuple(plan.sources)) for plan in plans]
        assert tokens_along(cached, plans) == tokens_along(cached, rebuilt)

    def test_replayed_context_equals_the_live_one(self):
        domain = small_domain_for(2)
        cached = CachingUtilityMeasure(domain.measure("coverage"))
        plans = list(domain.space.plans())
        live = cached.new_context()
        for plan in plans[:4]:
            live.record(plan)
            cached.evaluate(plans[9], live)
        replayed = _ReplayMeasure(cached, plans[:4]).new_context()
        assert cached._context_token(replayed) == cached._context_token(live)
        hits = cached.hits
        assert cached.evaluate(plans[9], replayed) == cached.evaluate(plans[9], live)
        assert cached.hits == hits + 2

    def test_threads_interning_prefixes_never_share_or_split_a_token(self):
        # QueryService shares one cache across its session threads.
        domain = small_domain_for(3)
        cached = CachingUtilityMeasure(domain.measure("coverage"))
        plans = list(domain.space.plans())
        threads, share, rounds = 8, 4, 60
        common = plans[threads * share:]
        barrier = threading.Barrier(threads)
        own_runs = [[] for _ in range(threads)]
        common_runs = [[] for _ in range(threads)]

        def intern(index):
            mine = plans[index * share:(index + 1) * share]
            for turn in range(rounds):
                # Every thread meets a prefix nobody has interned yet.
                fresh = [plans[turn % len(plans)], plans[-1 - turn % 7], *common]
                barrier.wait(timeout=10)
                common_runs[index].append(tuple(tokens_along(cached, fresh)))
                own_runs[index].append(tuple(tokens_along(cached, mine)[1:]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=intern, args=(i,)) for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        # A prefix has one token, whoever interns it first ...
        assert all(len(set(turn)) == 1 for turn in zip(*common_runs))
        assert all(len(set(runs)) == 1 for runs in own_runs)
        # ... and no two prefixes anywhere were handed the same one.
        handed_out = {token for runs in own_runs for token in runs[0]}
        handed_out.update(token for run in common_runs[0] for token in run[1:])
        assert len(handed_out) == len(cached._prefixes)
        assert len(handed_out) >= threads * share + rounds

    def test_context_free_measure_builds_no_table(self):
        domain = small_domain_for(0)
        orderer = IDripsOrderer(domain.measure("linear"), cache=True)
        orderer.order_list(domain.space, 10)
        assert orderer.utility.hits > 0
        assert orderer.utility._prefixes == {}

    def test_a_context_folded_by_another_cache_starts_over(self):
        domain = small_domain_for(0)
        first = CachingUtilityMeasure(domain.measure("coverage"))
        second = CachingUtilityMeasure(domain.measure("coverage"))
        plans = list(domain.space.plans())
        tokens_along(first, plans[:6])  # first's tokens run ahead
        context = first.new_context()
        context.record(plans[7])
        first._context_token(context)
        assert second._context_token(context) == tokens_along(second, [plans[7]])[-1]


class CountingList(list):
    """``context.executed`` that counts whole-prefix walks and reads."""

    iterations = 0
    reads = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()

    def __getitem__(self, index):
        type(self).reads += 1
        return super().__getitem__(index)


class TestCachedEvaluationWork:
    """Deterministic work counts: what an evaluation through the cache
    may not do again, however long the executed prefix is."""

    def context_with_prefix(self, cached, plans):
        context = cached.new_context()
        context.executed = CountingList()
        for plan in plans:
            context.record(plan)
        return context

    def test_no_walk_of_the_executed_prefix(self):
        domain = small_domain_for(4)
        cached = CachingUtilityMeasure(domain.measure("coverage"))
        plans = list(domain.space.plans())
        slots = tuple(bucket.sources for bucket in domain.space.buckets)
        context = self.context_with_prefix(cached, (plans * 6)[:200])
        assert len(context.executed) == 200
        CountingList.iterations = CountingList.reads = 0
        for plan in plans:
            cached.evaluate(plan, context)
            cached.evaluate_slots(slots, context)
        for plan in plans:  # and again, all hits
            cached.evaluate(plan, context)
            cached.evaluate_slots(slots, context)
        assert (cached.misses, cached.hits) == (len(plans) + 1, 3 * len(plans) - 1)
        assert CountingList.iterations == 0
        # The prefix is folded once, by the first evaluation.
        assert CountingList.reads == 200
        # One table entry per recorded plan, not per evaluation.
        assert len(cached._prefixes) == 200

    def test_keys_carry_identities_instead_of_rebuilding_them(self):
        domain = small_domain_for(4)
        cached = CachingUtilityMeasure(domain.measure("coverage"))
        plan = next(domain.space.plans())
        abstract = top_plan(domain.space.buckets, OutputCountHeuristic())
        context = self.context_with_prefix(cached, [plan])
        cached.evaluate(plan, context)
        cached.evaluate_slots(abstract.slots_members(), context)
        (concrete_key,) = cached._concrete
        (abstract_key,) = cached._abstract
        # The very objects the plan carries: no per-call name tuples.
        assert concrete_key[0] is plan.key
        assert abstract_key[0] is abstract.slots_members()
        assert abstract.key is abstract.key
        assert abstract.slots[0].key is abstract.slots[0].key
        # Slots that are equal by source name still share the entry.
        rebuilt = tuple(tuple(members) for members in abstract.slots_members())
        hits = cached.hits
        cached.evaluate_slots(rebuilt, context)
        assert cached.hits == hits + 1
