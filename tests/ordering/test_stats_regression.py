"""Regression tests over the instrumentation counters.

Two families: counters must be monotone *during* a run (they are
registry-backed counters, not resettable scratch), and the relative
evaluation counts the paper's Section 6 argument rests on must hold —
abstraction saves concrete evaluations on the running example.
"""

import pytest

from repro.observability.metrics import MetricRegistry
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.utility.coverage import CoverageUtility
from repro.workloads.paper_example import paper_example
from repro.workloads.synthetic import SyntheticParams, generate_domain

ORDERERS = {
    "exhaustive": lambda d: ExhaustiveOrderer(d.measure("coverage")),
    "pi": lambda d: PIOrderer(d.measure("coverage")),
    "idrips": lambda d: IDripsOrderer(d.measure("coverage")),
    "streamer": lambda d: StreamerOrderer(d.measure("coverage")),
    "greedy": lambda d: GreedyOrderer(d.measure("linear")),
}


@pytest.fixture(scope="module")
def domain():
    return generate_domain(
        SyntheticParams(query_length=2, bucket_size=6, seed=9)
    )


class TestCountersMonotoneDuringRun:
    @pytest.mark.parametrize("name", sorted(ORDERERS))
    def test_snapshots_never_decrease(self, domain, name):
        orderer = ORDERERS[name](domain)
        previous = orderer.stats.as_dict()
        for _entry in orderer.order(domain.space, 10):
            current = orderer.stats.as_dict()
            for field, value in current.items():
                assert value >= previous[field], (
                    f"{name}: {field} decreased mid-run "
                    f"({previous[field]} -> {value})"
                )
            previous = current
        assert previous["plans_evaluated"] > 0

    @pytest.mark.parametrize("name", sorted(ORDERERS))
    def test_evaluation_split_adds_up(self, domain, name):
        orderer = ORDERERS[name](domain)
        orderer.order_list(domain.space, 10)
        stats = orderer.stats
        assert stats.plans_evaluated == (
            stats.concrete_evaluations + stats.abstract_evaluations
        )

    def test_first_plan_snapshot_sticky_across_run(self, domain):
        orderer = PIOrderer(domain.measure("coverage"))
        iterator = orderer.order(domain.space, 10)
        next(iterator)
        after_first = orderer.stats.first_plan_evaluations
        assert after_first > 0
        for _entry in iterator:
            pass
        assert orderer.stats.first_plan_evaluations == after_first


class TestAbstractionSavesConcreteEvaluations:
    def test_idrips_fewer_concrete_than_brute_force_on_paper_example(self):
        """iDrips's interval pruning must beat re-scanning every plan:
        strictly fewer concrete evaluations on the Figure 3 example."""
        example = paper_example()
        k = example.space.size
        exhaustive = ExhaustiveOrderer(CoverageUtility(example.model))
        exhaustive.order_list(example.space, k)
        idrips = IDripsOrderer(CoverageUtility(example.model))
        idrips.order_list(example.space, k)
        assert (
            idrips.stats.concrete_evaluations
            < exhaustive.stats.concrete_evaluations
        )
        # The saving is real work moved to interval arithmetic:
        assert idrips.stats.abstract_evaluations > 0
        assert exhaustive.stats.abstract_evaluations == 0

    def test_same_ordering_despite_fewer_evaluations(self):
        example = paper_example()
        k = example.space.size
        exhaustive = ExhaustiveOrderer(CoverageUtility(example.model))
        idrips = IDripsOrderer(CoverageUtility(example.model))
        reference = exhaustive.order_list(example.space, k)
        candidate = idrips.order_list(example.space, k)
        assert [r.utility for r in candidate] == pytest.approx(
            [r.utility for r in reference]
        )


class TestSharedRegistry:
    def test_two_orderers_share_one_registry_under_distinct_prefixes(
        self, domain
    ):
        registry = MetricRegistry()
        pi = PIOrderer(domain.measure("coverage"), registry=registry)
        idrips = IDripsOrderer(domain.measure("coverage"), registry=registry)
        pi.order_list(domain.space, 5)
        idrips.order_list(domain.space, 5)
        payload = registry.as_dict()
        assert payload["ordering.PI.plans_evaluated"]["value"] > 0
        assert payload["ordering.iDrips.plans_evaluated"]["value"] > 0
