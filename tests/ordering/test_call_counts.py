"""Lazy-orderer call-count budgets, via CachingUtilityMeasure misses.

The lazy contract promises more than "no work before the first
resumption": pulling k plans must touch a number of *distinct* utility
evaluations that scales with k and the bucket structure, not with the
∏|bucket| product.  Cache misses of a wrapping
:class:`CachingUtilityMeasure` count exactly those distinct
evaluations (the measure here is context-free, so the context
signature never splits entries), giving a regression guard no timing
noise can blur.

Budgets, on a context-free fully monotonic measure:

* Greedy and AnyK emit from a frontier they extend by at most one
  candidate per bucket per pop: at most ``1 + k·width`` evaluations.
* iDrips and Streamer abstract whole buckets before refining, so they
  additionally pay per *group*; ``k · Σ|bucket|`` is a generous
  ceiling that still catches any fall-back to full materialization.
* Everyone stays strictly below the plan-space size — the whole point
  of not materializing the product.

The adaptive wrapper's own budget is counted in calls: it reads its
residual space only when the health epoch moves, so a stream whose
epoch stands still makes no ``PlanSpace.contains`` or ``split_off``
call at all.
"""

from collections import Counter

import pytest

from repro.observability.caching import CachingUtilityMeasure
from repro.ordering.adaptive import AdaptiveOrderer
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.bruteforce import ExhaustiveOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.reformulation.plans import PlanSpace
from repro.resilience.health import HealthEpoch
from repro.workloads.random_lav import ordering_scenario
from repro.workloads.synthetic import SyntheticParams, generate_domain

K = 10

#: (algorithm, budget as a function of (k, width, total_sources)).
BUDGETS = [
    ("greedy", GreedyOrderer, lambda k, width, total: 1 + k * width),
    ("anyk", AnyKOrderer, lambda k, width, total: 1 + k * width),
    ("idrips", IDripsOrderer, lambda k, width, total: k * total),
    ("streamer", StreamerOrderer, lambda k, width, total: k * total),
]


@pytest.fixture(scope="module")
def wide_domain():
    """3 buckets x 12 sources: 1728 plans, far above every budget."""
    return generate_domain(
        SyntheticParams(query_length=3, bucket_size=12, seed=0)
    )


@pytest.mark.parametrize("case", BUDGETS, ids=[c[0] for c in BUDGETS])
def test_pulling_k_plans_stays_within_evaluation_budget(case, wide_domain):
    name, cls, budget = case
    measure = CachingUtilityMeasure(wide_domain.measure("linear"))
    results = cls(measure).order_list(wide_domain.space, K)
    assert len(results) == K
    width = wide_domain.space.width
    total = sum(len(bucket) for bucket in wide_domain.space.buckets)
    limit = budget(K, width, total)
    assert measure.misses <= limit, (
        f"{name}: {measure.misses} distinct evaluations for k={K} "
        f"exceeds the O(k·buckets) budget {limit}"
    )
    assert measure.misses < wide_domain.space.size, (
        f"{name} evaluated at least the whole {wide_domain.space.size}-plan "
        "product — the orderer materialized the space"
    )


@pytest.mark.parametrize("case", BUDGETS, ids=[c[0] for c in BUDGETS])
def test_budget_scales_linearly_in_k(case, wide_domain):
    """Doubling k at most doubles the distinct evaluations (plus the
    seed constant) — no per-pop rescan of everything seen so far."""
    name, cls, _budget = case
    counts = {}
    for k in (K, 2 * K):
        measure = CachingUtilityMeasure(wide_domain.measure("linear"))
        cls(measure).order_list(wide_domain.space, k)
        counts[k] = measure.misses
    assert counts[2 * K] <= 2 * counts[K] + wide_domain.space.width, (
        f"{name}: misses grew superlinearly in k: {counts}"
    )


def test_anyk_budget_holds_on_bind_join():
    """The lattice-mode budget is measure-independent: any fully
    monotonic context-free measure gets the same 1 + k·width bound.

    The synthetic generator draws per-source transfer costs, which
    breaks bind-join monotonicity; the fuzz family's uniform-transfer
    draws (seed 39: a 714-plan 17x3x14 product) restore it.
    """
    from repro.workloads.random_lav import fuzz_ordering_space

    fuzz = fuzz_ordering_space(39)
    inner = fuzz.measure("bind-join")
    assert fuzz.uniform_transfer
    assert inner.is_fully_monotonic and inner.context_free
    measure = CachingUtilityMeasure(inner)
    AnyKOrderer(measure).order_list(fuzz.space, K)
    assert measure.misses <= 1 + K * fuzz.space.width


@pytest.mark.parametrize("bucket_size", [12, 47])
def test_first_plan_touches_width_plus_one_evaluations(bucket_size):
    """k=1 for the frontier algorithms: the root plan plus at most one
    deviation per bucket, on 1 728 plans and on 103 823 alike — the
    any-k contract that first-plan work does not grow with the space."""
    domain = generate_domain(
        SyntheticParams(query_length=3, bucket_size=bucket_size, seed=0)
    )
    for cls in (GreedyOrderer, AnyKOrderer):
        measure = CachingUtilityMeasure(domain.measure("linear"))
        cls(measure).order_list(domain.space, 1)
        assert measure.misses <= 1 + domain.space.width


def count_residual_calls(monkeypatch):
    """A live tally of ``PlanSpace.contains`` and ``split_off`` calls."""
    calls = Counter()
    for name in ("contains", "split_off"):
        method = getattr(PlanSpace, name)

        def counted(space, plan, _name=name, _method=method):
            calls[_name] += 1
            return _method(space, plan)

        monkeypatch.setattr(PlanSpace, name, counted)
    return calls


class TestAdaptiveResidual:
    """Exhaustive itself never splits a space, so every counted call is
    the adaptive wrapper's residual bookkeeping."""

    def adaptive(self, epoch):
        scenario = ordering_scenario(3)
        orderer = AdaptiveOrderer(
            scenario.measure("coverage"),
            inner_factory=ExhaustiveOrderer,
            epoch=epoch,
        )
        return orderer.order(scenario.space, scenario.space.size), scenario

    def test_an_unmoved_epoch_never_splits_the_residual(self, monkeypatch):
        calls = count_residual_calls(monkeypatch)
        stream, scenario = self.adaptive(HealthEpoch())
        assert len(list(stream)) == scenario.space.size
        assert calls == Counter()

    def test_one_bump_folds_the_emitted_plans_out(self, monkeypatch):
        calls = count_residual_calls(monkeypatch)
        epoch = HealthEpoch()
        stream, scenario = self.adaptive(epoch)
        emitted = [next(stream) for _ in range(3)]
        assert calls == Counter()
        epoch.bump()
        emitted.extend(stream)
        assert calls["contains"] > 0
        assert calls["split_off"] > 0
        # Folding late drops no plan and repeats none.
        keys = [entry.plan.key for entry in emitted]
        assert sorted(keys) == sorted(p.key for p in scenario.space.plans())
