"""The lazy-iteration contract every orderer must honor.

Documented on :meth:`repro.ordering.base.PlanOrderer.order`; it is the
precondition that makes the service layer's pipelining sound:

1. no work for plan ``i+1`` before the generator is resumed,
2. ``on_emit(plan_i)`` fires exactly once, on resumption after plan
   ``i`` and before plan ``i+1`` is produced,
3. abandoning the generator is safe and leaves the orderer reusable.
"""

import pytest

from tests.conftest import assert_valid_ordering

from repro.ordering.adaptive import AdaptiveOrderer
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.resilience.health import HealthEpoch

K = 6


def _adaptive(measure):
    """The adaptive wrapper is itself a conforming orderer."""
    return AdaptiveOrderer(
        measure, inner_factory=ExhaustiveOrderer, epoch=HealthEpoch()
    )


# (orderer class, measure factory name) — each paired with a measure
# the algorithm is applicable to.
CASES = [
    ("exhaustive", ExhaustiveOrderer, "linear"),
    ("pi", PIOrderer, "linear"),
    ("idrips", IDripsOrderer, "linear"),
    ("greedy", GreedyOrderer, "linear"),  # fully monotonic
    ("streamer", StreamerOrderer, "coverage"),  # diminishing returns
    ("anyk", AnyKOrderer, "linear"),  # fully monotonic
    ("adaptive", _adaptive, "coverage"),  # wrapper forwards the contract
]


def make(case, domain):
    _, cls, measure_name = case
    return cls(domain.measure(measure_name))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
class TestLazyIterationContract:
    def test_no_evaluation_before_first_resumption(self, case, small_domain):
        orderer = make(case, small_domain)
        generator = orderer.order(small_domain.space, K, on_emit=lambda p: True)
        # A generator must not have touched the utility measure yet.
        assert orderer.stats.plans_evaluated == 0
        next(generator)
        assert orderer.stats.plans_evaluated > 0
        generator.close()

    def test_on_emit_fires_once_on_resumption(self, case, small_domain):
        orderer = make(case, small_domain)
        emitted: list[tuple[str, ...]] = []

        def on_emit(plan):
            emitted.append(plan.key)
            return True

        generator = orderer.order(small_domain.space, K, on_emit=on_emit)
        yielded: list[tuple[str, ...]] = []
        for entry in generator:
            # The plan just yielded has NOT been reported yet; every
            # earlier plan has been reported exactly once, in order.
            assert emitted == yielded, (
                f"{orderer.name}: on_emit calls {emitted} != "
                f"resumed prefix {yielded}"
            )
            yielded.append(entry.plan.key)
        # Exhausting the generator reports the final plan too.
        assert emitted == yielded
        assert len(yielded) == K

    def test_abandoning_generator_leaves_orderer_reusable(
        self, case, small_domain
    ):
        orderer = make(case, small_domain)
        emitted = []

        def on_emit(plan):
            emitted.append(plan.key)
            return True

        generator = orderer.order(small_domain.space, K, on_emit=on_emit)
        first = next(generator)
        second = next(generator)
        generator.close()
        # close() interrupts at the yield: the last plan is never
        # reported via on_emit.
        assert emitted == [first.plan.key]
        # A fresh full ordering from the same instance is still valid.
        results = orderer.order_list(small_domain.space, K)
        utility = make(case, small_domain).utility
        assert_valid_ordering(results, small_domain.space, utility)
        assert results[0].plan.key == first.plan.key
        assert results[1].plan.key == second.plan.key
