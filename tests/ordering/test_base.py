"""Tests for ordering base utilities and instrumentation."""

import pytest

from repro.errors import OrderingError
from repro.observability.caching import CachingUtilityMeasure
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.ordering.base import OrderedPlan, OrderingStats
from repro.ordering.bruteforce import PIOrderer


class TestOrderedPlan:
    def test_str(self, tiny_domain):
        plan = next(tiny_domain.space.plans())
        entry = OrderedPlan(plan, 0.125, 3)
        assert "#3" in str(entry)
        assert "0.125" in str(entry)


class TestOrderingStats:
    def test_counters_start_at_zero(self):
        stats = OrderingStats()
        assert stats.plans_evaluated == 0
        assert stats.as_dict()["refinements"] == 0

    def test_note_helpers(self):
        stats = OrderingStats()
        stats.note_concrete_evaluation()
        stats.note_abstract_evaluation()
        stats.note_abstract_evaluation()
        assert stats.plans_evaluated == 3
        assert stats.concrete_evaluations == 1
        assert stats.abstract_evaluations == 2

    def test_first_plan_snapshot_is_sticky(self):
        stats = OrderingStats()
        stats.note_concrete_evaluation()
        stats.snapshot_first_plan()
        stats.note_concrete_evaluation()
        stats.snapshot_first_plan()
        assert stats.first_plan_evaluations == 1

    def test_as_dict_roundtrip(self):
        stats = OrderingStats()
        stats.links_created = 5
        payload = stats.as_dict()
        assert payload["links_created"] == 5
        assert set(payload) >= {
            "plans_evaluated",
            "refinements",
            "links_recycled",
            "spaces_created",
        }


class TestOrdererPlumbing:
    def test_k_validation(self, tiny_domain):
        orderer = PIOrderer(tiny_domain.measure("linear"))
        with pytest.raises(OrderingError):
            orderer.order_list(tiny_domain.space, 0)
        with pytest.raises(OrderingError):
            orderer.order_list(tiny_domain.space, -3)

    def test_repr_mentions_measure(self, tiny_domain):
        orderer = PIOrderer(tiny_domain.measure("linear"))
        assert "linear-cost" in repr(orderer)

    def test_order_list_returns_ordered_plans(self, tiny_domain):
        orderer = PIOrderer(tiny_domain.measure("linear"))
        plans = orderer.order_list(tiny_domain.space, 3)
        assert all(isinstance(entry, OrderedPlan) for entry in plans)
        assert [entry.rank for entry in plans] == [1, 2, 3]

    def test_order_list_records_span_when_traced(self, tiny_domain):
        tracer = Tracer()
        orderer = PIOrderer(tiny_domain.measure("linear"), tracer=tracer)
        orderer.order_list(tiny_domain.space, 3)
        assert tracer.as_dict()["PI.order"]["calls"] == 1
        # The per-evaluation spans nest under the ordering span.
        assert tracer.as_dict()["PI.order/utility.eval"]["calls"] > 0
        orderer.order_list(tiny_domain.space, 3)
        assert tracer.as_dict()["PI.order"]["calls"] == 2


class TestInstrumentationPlumbing:
    def test_default_tracer_is_shared_noop(self, tiny_domain):
        orderer = PIOrderer(tiny_domain.measure("linear"))
        assert orderer.tracer is NOOP_TRACER

    def test_cache_kwarg_wraps_utility(self, tiny_domain):
        orderer = PIOrderer(tiny_domain.measure("linear"), cache=True)
        assert isinstance(orderer.utility, CachingUtilityMeasure)
        orderer.order_list(tiny_domain.space, 3)
        assert orderer.registry.get("utility_cache.misses").value > 0

    def test_cache_kwarg_does_not_stack(self, tiny_domain):
        cached = CachingUtilityMeasure(tiny_domain.measure("linear"))
        orderer = PIOrderer(cached, cache=True)
        assert orderer.utility is cached

    def test_stats_live_in_registry_under_algorithm_prefix(self, tiny_domain):
        registry = MetricRegistry()
        orderer = PIOrderer(tiny_domain.measure("linear"), registry=registry)
        orderer.order_list(tiny_domain.space, 3)
        counter = registry.get("ordering.PI.plans_evaluated")
        assert counter is not None
        assert counter.value == orderer.stats.plans_evaluated > 0

    def test_generators_are_lazy(self, small_domain):
        """Pulling one plan must not do the work for all k."""
        eager = PIOrderer(small_domain.measure("coverage"))
        eager.order_list(small_domain.space, 20)
        lazy = PIOrderer(small_domain.measure("coverage"))
        next(iter(lazy.order(small_domain.space, 20)))
        assert lazy.stats.plans_evaluated < eager.stats.plans_evaluated
