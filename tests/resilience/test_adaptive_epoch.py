"""The health epoch and its contract with the adaptive orderer.

The :class:`~repro.resilience.manager.ResilienceManager` owns a
monotone :class:`~repro.resilience.health.HealthEpoch` that must
advance exactly when the health picture the ordering can observe
changes: source failures, recoveries, and breaker transitions —
including the *lazy* open → half-open transition that happens inside
an admission probe.  A healthy run must keep epoch 0 so the adaptive
orderer provably never re-sorts.
"""

import io
import random

import pytest

from repro.errors import PermanentSourceError
from repro.observability.journal import EventJournal
from repro.ordering import AdaptiveOrderer, ExhaustiveOrderer
from repro.resilience.breaker import BreakerBoard
from repro.resilience.manager import ResilienceManager
from repro.workloads.random_lav import ordering_scenario
from tests.journal_reader import events


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class StubTracker:
    """Minimal health-tracker double: counts, never smooths."""

    def __init__(self) -> None:
        self._failures: dict[str, int] = {}

    def failures(self, source: str) -> int:
        return self._failures.get(source, 0)

    def record_success(self, source: str) -> None:
        pass

    def record_failure(self, source: str) -> None:
        self._failures[source] = self.failures(source) + 1


def manager_with(clock, **kwargs):
    board = BreakerBoard(failure_threshold=1, cooldown_s=5.0, clock=clock)
    return ResilienceManager(board=board, tracker=StubTracker(), **kwargs)


class TestEpochBumpRules:
    def test_failure_bumps(self):
        manager = manager_with(FakeClock())
        before = manager.epoch.value
        manager.record_failure(("v1",))
        assert manager.epoch.value > before

    def test_pure_success_does_not_bump(self):
        # The healthy-path identity guarantee hangs on this: a run
        # that never fails keeps epoch 0, so the adaptive wrapper's
        # stream is structurally identical to the inner orderer's.
        manager = manager_with(FakeClock())
        for _ in range(10):
            manager.record_success(("v1", "v2"))
        assert manager.epoch.value == 0

    def test_recovery_bumps(self):
        manager = manager_with(FakeClock())
        manager.record_failure(("v1",))
        before = manager.epoch.value
        manager.record_success(("v1",))
        assert manager.epoch.value > before

    def test_breaker_transition_bumps_even_without_journal(self):
        clock = FakeClock()
        manager = manager_with(clock)
        assert not manager.journal.enabled
        manager.record_failure(
            ("v1",), PermanentSourceError("v1", "dead")
        )
        before = manager.epoch.value

        class Plan:
            class _Src:
                name = "v1"

            sources = (_Src(),)

        clock.advance(5.0)
        manager.admit(Plan())  # lazy open -> half-open inside the probe
        assert manager.board.states()["v1"] == "half_open"
        assert manager.epoch.value > before

    def test_epoch_advances_are_journaled(self):
        sink = io.StringIO()
        manager = manager_with(FakeClock(), journal=EventJournal(stream=sink))
        manager.record_failure(("v1",), request_id="r1")
        epochs = events(sink, event="health.epoch")
        assert epochs
        reasons = {record["reason"] for record in epochs}
        assert "source.failure" in reasons


class _Src:
    def __init__(self, name: str) -> None:
        self.name = name


class _Plan:
    def __init__(self, *names: str) -> None:
        self.sources = tuple(_Src(name) for name in names)


class TestProbeRollbackRegression:
    """A half-open probe racing a mid-stream re-order.

    ``BreakerBoard.admit`` is two-phase: peeking ``can_admit`` can
    lazily move a cooled-down breaker open → half-open even when the
    plan is ultimately *blocked* by another source and every consumed
    probe slot is rolled back.  The transition is real even though the
    admission was not — the epoch must bump so the adaptive orderer's
    next dominance check runs against the current health picture, not
    the one from before the probe.
    """

    def blocked_probe(self, journal=None):
        clock = FakeClock()
        manager = manager_with(clock, journal=journal)
        manager.record_failure(("v1",), PermanentSourceError("v1", "dead"))
        clock.advance(3.0)
        manager.record_failure(("v2",), PermanentSourceError("v2", "dead"))
        clock.advance(3.0)  # v1's cooldown elapsed; v2's has not
        return manager

    def test_blocked_admission_rolls_back_but_bumps_the_epoch(self):
        manager = self.blocked_probe()
        before = manager.epoch.value
        blocked = manager.admit(_Plan("v1", "v2"))
        assert blocked == ("v2",)
        breaker = manager.board.breaker("v1")
        # The peek transitioned v1 but the rollback left its probe
        # budget untouched: a later plan can still claim the slot.
        assert breaker.state == "half_open"
        assert breaker.can_admit()
        assert manager.epoch.value > before

    def test_adaptive_orderer_rechecks_after_the_rolled_back_probe(self):
        manager = self.blocked_probe()
        scenario = ordering_scenario(seed=3)
        orderer = AdaptiveOrderer(
            scenario.linear_cost(),
            inner_factory=ExhaustiveOrderer,
            epoch=manager.epoch,
        )
        stream = orderer.order(scenario.space, 4)
        next(stream)
        # Between plans, a worker's admission probe half-opens v1 and
        # is rolled back because v2 still blocks the plan.
        manager.admit(_Plan("v1", "v2"))
        ranks = [entry.rank for entry in stream]
        # The orderer noticed the bump: it re-evaluated the frontier
        # (here dominance held, so the re-sort was suppressed) instead
        # of streaming on the stale pre-probe ranking.
        assert orderer.suppressed_resorts + orderer.reorders >= 1
        assert ranks == [2, 3, 4]

    def test_probe_slot_consumed_elsewhere_still_bumps(self):
        # The racing thread wins the only probe slot before our
        # admission; our peek sees half-open-with-no-budget and
        # blocks, consuming nothing — yet the epoch already advanced
        # when the racer's probe transitioned the breaker.
        clock = FakeClock()
        manager = manager_with(clock)
        manager.record_failure(("v1",), PermanentSourceError("v1", "dead"))
        clock.advance(5.0)
        before = manager.epoch.value
        assert manager.admit(_Plan("v1")) == ()  # racer takes the slot
        assert manager.epoch.value > before
        after_racer = manager.epoch.value
        assert manager.admit(_Plan("v1")) == ("v1",)  # we are blocked
        # No new transition happened, so no spurious bump either.
        assert manager.epoch.value == after_racer


class TestHealthyRunKeepsEpochZero:
    def test_adaptive_stream_matches_inner_when_epoch_never_moves(self):
        manager = manager_with(FakeClock())
        scenario = ordering_scenario(seed=5)
        adaptive = AdaptiveOrderer(
            scenario.linear_cost(),
            inner_factory=ExhaustiveOrderer,
            epoch=manager.epoch,
        )
        plain = ExhaustiveOrderer(scenario.linear_cost())
        k = 6
        wrapped = [
            (e.plan.key, e.utility, e.rank)
            for e in adaptive.order(scenario.space, k)
        ]
        inner = [
            (e.plan.key, e.utility, e.rank)
            for e in plain.order(scenario.space, k)
        ]
        assert [w[0] for w in wrapped] == [i[0] for i in inner]
        assert [w[2] for w in wrapped] == [i[2] for i in inner]
        for (_, wu, _), (_, iu, _) in zip(wrapped, inner):
            assert wu == pytest.approx(iu)
        assert adaptive.reorders == 0


class SweepingManager(ResilienceManager):
    """The reference: diff the state of every breaker on every operation."""

    def _note_transitions(self, touched, request_id):
        after = self.board.states()
        seen, self._seen_states = self._seen_states, after
        for source, state in after.items():
            previous = seen.get(source, "closed")
            if state != previous:
                self.journal.emit(
                    "breaker.transition", request_id=request_id,
                    source=source, from_state=previous, to_state=state,
                )
                self._bump_epoch("breaker.transition", request_id)


class TestTransitionsFollowThePlanNotTheBoard:
    """``_note_transitions`` looks at the touched sources and the
    breakers not closed; the journal and the epoch read what a sweep
    of the whole board would produce."""

    @pytest.mark.parametrize("seed", range(20))
    def test_journal_and_epoch_equal_a_full_sweep(self, seed):
        def make(cls):
            clock = FakeClock()
            board = BreakerBoard(failure_threshold=2, cooldown_s=5.0, clock=clock)
            sink = io.StringIO()
            journal = EventJournal(stream=sink)
            manager = cls(board=board, tracker=StubTracker(), journal=journal)
            return manager, clock, sink

        def apply(manager, clock, kind, names, seconds, request_id):
            if kind == "admit":
                return manager.admit(_Plan(*names), request_id=request_id)
            if kind == "advance":
                return clock.advance(seconds)
            if kind == "success":
                return manager.record_success(names, request_id=request_id)
            if kind == "trip":  # behind the manager's back, as tests do
                return manager.board.record_failure(names[0], permanent=True)
            error = (
                PermanentSourceError(names[0], "dead") if kind == "dead" else None
            )
            return manager.record_failure(names, error, request_id=request_id)

        rng = random.Random(seed)
        manager, clock, journal = make(ResilienceManager)
        reference, reference_clock, reference_journal = make(SweepingManager)
        names = [f"v{i}" for i in range(8)]
        kinds = ["admit"] * 8 + ["success"] * 6 + ["failure"] * 4
        kinds += ["dead", "trip"] + ["advance"] * 3
        for index in range(300):
            step = (
                rng.choice(kinds),
                tuple(rng.sample(names, rng.randint(1, 3))),
                rng.choice((0.5, 3.0, 6.0)),
                f"r{index}",
            )
            assert apply(manager, clock, *step) == apply(
                reference, reference_clock, *step
            )
            assert manager.epoch.value == reference.epoch.value
        def untimed(sink):
            return [
                {k: v for k, v in record.items() if k != "ts"}
                for record in events(sink)
            ]

        records = untimed(journal)
        assert records == untimed(reference_journal)
        assert any(r["event"] == "breaker.transition" for r in records)

    @pytest.mark.parametrize("registered", [3, 300])
    def test_state_reads_do_not_grow_with_the_board(self, registered, state_reads):
        manager = manager_with(FakeClock())
        manager.record_success([f"v{i}" for i in range(registered)])
        state_reads[0] = 0
        plan = _Plan("v0", "v1", "v2")
        assert manager.admit(plan) == ()
        manager.record_success(manager.sources_of(plan))
        # admit: 3 exported + 3 noted; success: 3 x 1 exported + 3 noted.
        assert state_reads[0] == 12
