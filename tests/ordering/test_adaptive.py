"""AdaptiveOrderer: healthy-path identity and mid-stream re-sorts.

The wrapper's contract has two halves.  While the health epoch never
moves, the emitted stream must be *identical* to the unwrapped inner
orderer's — same plans, same utilities, same ranks — which the 20-seed
× 4-measure sweep enforces exactly (not approximately: the wrapper
delegates evaluation verbatim, so even the floats must match).  When
the epoch does move, the wrapper re-checks dominance and either
suppresses (ranking provably unchanged) or restarts the inner orderer
over the residual space.
"""

from functools import partial

import io

import pytest

from repro.errors import NotApplicableError, OrderingError
from repro.observability.journal import EventJournal
from repro.ordering import (
    AdaptiveOrderer,
    ExhaustiveOrderer,
    GreedyOrderer,
    IDripsOrderer,
    PIOrderer,
    StreamerOrderer,
)
from repro.ordering.anyk import AnyKOrderer
from repro.resilience.health import HealthEpoch, SourceHealthTracker
from repro.resilience.measure import HealthAwareMeasure
from repro.utility.cost import BindJoinCost
from tests.journal_reader import events

from tests.ordering.equivalence import SWEEP_MEASURES, SWEEP_SEEDS, lav_scenario

K = 6

INNER_FACTORIES = {
    "exhaustive": ExhaustiveOrderer,
    "pi": PIOrderer,
    "idrips": IDripsOrderer,
    "anyk": AnyKOrderer,
    "streamer": StreamerOrderer,
    "greedy": GreedyOrderer,
}


def factory_names(probe):
    """Inner orderers applicable to *probe*, mirroring the service table."""
    names = ["exhaustive", "pi", "idrips"]
    if probe.has_diminishing_returns:
        names.append("streamer")
    if probe.is_fully_monotonic:
        names += ["greedy", "anyk"]
    return names


def stream_of(orderer, space, k=K):
    return [
        (entry.plan.key, entry.utility, entry.rank)
        for entry in orderer.order_list(space, k)
    ]


@pytest.mark.parametrize("measure_name", SWEEP_MEASURES)
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
class TestHealthyPathIdentity:
    """Epoch attached but never bumped → streams identical, bit for bit."""

    def test_wrapped_stream_matches_inner_exactly(self, seed, measure_name):
        scenario = lav_scenario(seed)
        make = partial(scenario.measure, measure_name)
        epoch = HealthEpoch()
        for name in factory_names(make()):
            factory = INNER_FACTORIES[name]
            plain = stream_of(factory(make()), scenario.space)
            adaptive = AdaptiveOrderer(
                make(), inner_factory=factory, epoch=epoch
            )
            wrapped = stream_of(adaptive, scenario.space)
            assert wrapped == plain, (
                f"seed={seed} measure={measure_name} inner={name}"
            )
            assert adaptive.reorders == 0
            assert adaptive.suppressed_resorts == 0


def failure_aware_setup(seed=3):
    """A live health-aware bind-join measure over a fresh tracker."""
    scenario = lav_scenario(seed)
    tracker = SourceHealthTracker()
    inner = BindJoinCost(
        access_overhead=1.0,
        domain_sizes=scenario.domain_sizes,
        uniform_transfer=True,
        failure_aware=True,
    )
    live = HealthAwareMeasure(inner, tracker, min_observations=1)
    return scenario, tracker, live


class TestResort:
    def test_epoch_bump_with_demoted_head_restarts_the_inner(self):
        scenario, tracker, live = failure_aware_setup()
        epoch = HealthEpoch()
        adaptive = AdaptiveOrderer(
            live, inner_factory=ExhaustiveOrderer, epoch=epoch
        )
        # The stale ranking's second plan, before any health signal.
        victim = ExhaustiveOrderer(live).order_list(scenario.space, 2)[1].plan
        stream = adaptive.order(scenario.space, 4)
        first = next(stream)
        for source in victim.sources:
            for _ in range(6):
                tracker.record_failure(source.name)
        epoch.bump()
        rest = list(stream)
        assert adaptive.reorders == 1
        # The doomed plan lost its slot at rank 2.
        assert rest[0].plan.key != victim.key
        assert [entry.rank for entry in [first, *rest]] == [1, 2, 3, 4]

    def test_a_resort_that_moves_the_next_plan_counts_as_churn(self):
        # PI keeps the utilities it computed before the outage, so its
        # next plan is the doomed one until the wrapper restarts it.
        scenario, tracker, live = failure_aware_setup()
        epoch = HealthEpoch()
        adaptive = AdaptiveOrderer(live, inner_factory=PIOrderer, epoch=epoch)
        victim = PIOrderer(live).order_list(scenario.space, 2)[1].plan
        stream = adaptive.order(scenario.space, 4)
        next(stream)
        for source in victim.sources:
            for _ in range(6):
                tracker.record_failure(source.name)
        epoch.bump()
        assert next(stream).plan.key != victim.key
        churn = adaptive.registry.counter("ordering.adaptive.head_churn")
        assert churn.value == 1

    def test_reorder_emits_a_shift_witness(self):
        scenario, tracker, live = failure_aware_setup()
        epoch = HealthEpoch()
        adaptive = AdaptiveOrderer(
            live, inner_factory=ExhaustiveOrderer, epoch=epoch
        )
        sink = io.StringIO()
        adaptive.bind_journal(EventJournal(stream=sink).bind("req-1"))
        victim = ExhaustiveOrderer(live).order_list(scenario.space, 2)[1].plan
        stream = adaptive.order(scenario.space, 4)
        next(stream)
        for source in victim.sources:
            for _ in range(6):
                tracker.record_failure(source.name)
        epoch.bump()
        list(stream)
        (event,) = events(sink, event="plan.reordered")
        assert event["request_id"] == "req-1"
        assert event["rank"] == 2
        assert event["epoch"] == 1
        # The abandoned head names real sources of the plan space.
        sources = {s.name for plan in scenario.space.plans() for s in plan.sources}
        assert set(event["old_head"]) <= sources
        # The witness itself: some residual subspace could beat the
        # re-scored head, which is why the re-sort was not suppressed.
        assert event["frontier_hi"] > event["head_utility"]

    @pytest.mark.parametrize("inner_name", ["exhaustive", "idrips", "streamer"])
    def test_a_restarted_orderer_continues_from_every_executed_plan(
        self, inner_name
    ):
        # Coverage is conditional: after the restart each plan must be
        # the argmax of u(p | every plan already executed), which only
        # holds if the executed prefix is replayed into the new context.
        scenario = lav_scenario(3)
        epoch = HealthEpoch()
        adaptive = AdaptiveOrderer(
            scenario.measure("coverage"),
            inner_factory=INNER_FACTORIES[inner_name],
            epoch=epoch,
        )
        stream = adaptive.order(scenario.space, 8)
        got = [next(stream) for _ in range(3)]
        epoch.bump()
        got.extend(stream)
        assert adaptive.reorders == 1
        oracle = scenario.measure("coverage")
        context = oracle.new_context()
        remaining = list(scenario.space.plans())
        for entry in got:
            best = max(oracle.evaluate(plan, context) for plan in remaining)
            assert entry.utility == pytest.approx(best), entry.rank
            assert oracle.evaluate(entry.plan, context) == pytest.approx(best)
            remaining.remove(entry.plan)
            context.record(entry.plan)

    def test_insensitive_measure_suppresses_the_resort(self):
        # LinearCost never reads failure rates: the epoch moves but the
        # head still dominates, so the wrapper must not restart.
        scenario = lav_scenario(3)
        epoch = HealthEpoch()
        make = partial(scenario.measure, "linear")
        plain = stream_of(ExhaustiveOrderer(make()), scenario.space, 4)
        adaptive = AdaptiveOrderer(
            make(), inner_factory=ExhaustiveOrderer, epoch=epoch
        )
        stream = adaptive.order(scenario.space, 4)
        got = [next(stream)]
        epoch.bump()
        got.extend(stream)
        assert adaptive.reorders == 0
        assert adaptive.suppressed_resorts == 1
        assert [
            (entry.plan.key, entry.utility, entry.rank) for entry in got
        ] == plain

    def test_epoch_checks_are_counted(self):
        scenario = lav_scenario(3)
        adaptive = AdaptiveOrderer(
            scenario.measure("linear"),
            inner_factory=ExhaustiveOrderer,
            epoch=HealthEpoch(),
        )
        adaptive.order_list(scenario.space, 4)
        checks = adaptive.registry.counter("ordering.adaptive.epoch_checks")
        assert checks.value == 4


class TestConstruction:
    def test_inapplicable_inner_surfaces_at_construction(self):
        # Direct construction of Greedy over a non-monotonic measure
        # raises immediately; wrapping must not defer that to the
        # first iteration.
        scenario = lav_scenario(3)
        with pytest.raises(NotApplicableError):
            GreedyOrderer(scenario.measure("coverage"))
        with pytest.raises(NotApplicableError):
            AdaptiveOrderer(
                scenario.measure("coverage"),
                inner_factory=GreedyOrderer,
                epoch=HealthEpoch(),
            )

    def test_k_is_validated(self):
        scenario = lav_scenario(3)
        adaptive = AdaptiveOrderer(
            scenario.measure("linear"),
            inner_factory=ExhaustiveOrderer,
            epoch=HealthEpoch(),
        )
        with pytest.raises(OrderingError):
            adaptive.order_list(scenario.space, 0)

    def test_on_emit_unsound_plans_are_not_replayed(self):
        # An unsound plan is dropped from the conditional context: the
        # wrapper must forward the consumer's verdict to the inner
        # orderer unchanged.
        scenario = lav_scenario(3)
        verdicts = iter([True, False, True, True])
        seen = []

        def on_emit(plan):
            seen.append(plan.key)
            return next(verdicts)

        plain = ExhaustiveOrderer(scenario.measure("coverage")).order_list(
            scenario.space, 4, on_emit
        )
        seen.clear()
        adaptive = AdaptiveOrderer(
            scenario.measure("coverage"),
            inner_factory=ExhaustiveOrderer,
            epoch=HealthEpoch(),
        )
        verdicts = iter([True, False, True, True])
        wrapped = adaptive.order_list(scenario.space, 4, on_emit)
        assert [e.plan.key for e in wrapped] == [e.plan.key for e in plain]
        assert [e.utility for e in wrapped] == pytest.approx(
            [e.utility for e in plain]
        )
        assert seen == [e.plan.key for e in wrapped]
