"""Tests for per-source circuit breakers and the breaker board."""

import random

import pytest

from repro.errors import ServiceError
from repro.observability.metrics import MetricRegistry
from repro.resilience.breaker import BreakerBoard, BreakerState, CircuitBreaker


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def breaker(**kwargs):
    clock = kwargs.pop("clock", FakeClock())
    defaults = dict(failure_threshold=3, cooldown_s=5.0)
    defaults.update(kwargs)
    return CircuitBreaker("v1", clock=clock, **defaults), clock


class TestStateMachine:
    def test_starts_closed_and_admits(self):
        b, _ = breaker()
        assert b.state == BreakerState.CLOSED
        assert b.can_admit()
        assert b.admit()

    def test_trips_after_consecutive_failures(self):
        b, _ = breaker(failure_threshold=3)
        b.record_failure()
        b.record_failure()
        assert b.state == BreakerState.CLOSED
        b.record_failure()
        assert b.state == BreakerState.OPEN
        assert not b.can_admit()
        assert not b.admit()
        assert b.times_opened == 1

    def test_success_resets_the_consecutive_count(self):
        b, _ = breaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == BreakerState.CLOSED

    def test_cooldown_moves_open_to_half_open(self):
        b, clock = breaker(failure_threshold=1, cooldown_s=5.0)
        b.record_failure()
        assert b.state == BreakerState.OPEN
        clock.advance(4.9)
        assert not b.can_admit()
        clock.advance(0.2)
        assert b.state == BreakerState.HALF_OPEN
        assert b.can_admit()

    def test_probe_success_closes(self):
        b, clock = breaker(failure_threshold=1)
        b.record_failure()
        clock.advance(10.0)
        assert b.admit()
        b.record_success()
        assert b.state == BreakerState.CLOSED

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        b, clock = breaker(failure_threshold=1, cooldown_s=5.0)
        b.record_failure()
        clock.advance(10.0)
        assert b.admit()
        b.record_failure()
        assert b.state == BreakerState.OPEN
        assert b.times_opened == 2
        clock.advance(4.0)
        assert not b.can_admit()  # the cooldown restarted at re-open
        clock.advance(1.5)
        assert b.can_admit()

    def test_half_open_admits_exactly_one_probe(self):
        b, clock = breaker(failure_threshold=1)
        b.record_failure()
        clock.advance(10.0)
        assert b.admit()
        assert not b.admit()  # the probe is out
        assert b.state == BreakerState.HALF_OPEN

    def test_release_probe_returns_the_slot_without_closing(self):
        b, clock = breaker(failure_threshold=1)
        b.record_failure()
        clock.advance(10.0)
        assert b.admit()
        assert not b.can_admit()
        b.release_probe()
        assert b.state == BreakerState.HALF_OPEN  # crucially not CLOSED
        assert b.can_admit()

    def test_force_open_trips_immediately_and_refreshes(self):
        b, clock = breaker(failure_threshold=3, cooldown_s=5.0)
        b.force_open()
        assert b.state == BreakerState.OPEN
        clock.advance(4.0)
        b.force_open()  # refreshed: another permanent failure observed
        clock.advance(4.0)
        assert b.state == BreakerState.OPEN
        clock.advance(1.5)
        assert b.state == BreakerState.HALF_OPEN

    def test_reset_restores_closed(self):
        b, _ = breaker(failure_threshold=1)
        b.record_failure()
        b.reset()
        assert b.state == BreakerState.CLOSED
        assert b.admit()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown_s": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            CircuitBreaker("v1", **kwargs)


class TestBreakerBoard:
    def board(self, **kwargs):
        clock = kwargs.pop("clock", FakeClock())
        defaults = dict(failure_threshold=1, cooldown_s=5.0)
        defaults.update(kwargs)
        return BreakerBoard(clock=clock, **defaults), clock

    def test_admits_unknown_sources(self):
        board, _ = self.board()
        assert board.admit(("v1", "v2")) == ()

    def test_blocked_plan_names_the_blockers(self):
        board, _ = self.board()
        board.record_failure("v2")
        assert board.admit(("v1", "v2")) == ("v2",)
        assert board.states()["v2"] == BreakerState.OPEN

    def test_blocked_plan_consumes_no_probe_slot(self):
        board, clock = self.board()
        board.record_failure("v1")  # opens v1
        board.record_failure("v2")  # opens v2
        clock.advance(10.0)  # both half-open, one probe slot each
        # v3 stays dead: a plan touching (v1, v3) must not eat v1's
        # probe slot while being rejected on v3.
        board.record_failure("v3")
        assert board.admit(("v1", "v3")) == ("v3",)
        assert board.admit(("v1", "v2")) == ()  # v1's slot still there

    def test_permanent_failure_force_opens(self):
        board, _ = self.board(failure_threshold=5)
        board.record_failure("v1", permanent=True)
        assert board.states() == {"v1": BreakerState.OPEN}

    def test_success_closes_a_probed_breaker(self):
        board, clock = self.board()
        board.record_failure("v1")
        clock.advance(10.0)
        assert board.admit(("v1",)) == ()
        board.record_success("v1")
        assert board.states() == {"v1": BreakerState.CLOSED}

    def test_metrics_count_skips_and_opens(self):
        registry = MetricRegistry()
        board = BreakerBoard(
            failure_threshold=1, clock=FakeClock(), registry=registry
        )
        board.record_failure("v1")
        board.admit(("v1",))
        board.admit(("v1",))
        metrics = registry.as_dict()
        assert metrics["resilience.breaker.opened"]["value"] == 1
        assert metrics["resilience.breaker.skips"]["value"] == 2
        assert metrics["resilience.breaker.v1.state"]["value"] == 2  # open

class SweepingBoard(BreakerBoard):
    """The reference: every operation re-exports every breaker's gauge."""

    def _export_states(self, touched):
        for name, state in self.states().items():
            self.registry.gauge(f"resilience.breaker.{name}.state").set(
                {"closed": 0, "half_open": 1, "open": 2}[state]
            )


def breaker_gauges(board):
    return {
        name: metric["value"]
        for name, metric in board.registry.as_dict().items()
        if name.endswith(".state")
    }


class TestGaugeExport:
    """An operation exports the breakers it touched and the ones not
    known closed; the gauges read what a full sweep would set."""

    @pytest.mark.parametrize("seed", range(20))
    def test_gauges_equal_a_full_sweep_after_every_operation(self, seed):
        def make(cls):
            clock = FakeClock()
            board = cls(
                failure_threshold=2, cooldown_s=5.0,
                clock=clock, registry=MetricRegistry(),
            )
            return board, clock

        def apply(board, clock, kind, picked, seconds):
            if kind == "admit":
                return board.admit(picked)
            if kind == "advance":
                return clock.advance(seconds)
            if kind == "success":
                return board.record_success(picked[0])
            return board.record_failure(picked[0], permanent=kind == "permanent")

        rng = random.Random(seed)
        board, clock = make(BreakerBoard)
        reference, reference_clock = make(SweepingBoard)
        names = [f"v{i}" for i in range(8)]
        kinds = ["admit"] * 8 + ["success"] * 4 + ["failure"] * 8
        kinds += ["permanent"] * 2 + ["advance"] * 4
        seen_states = set()
        for _ in range(300):
            step = (
                rng.choice(kinds),
                tuple(rng.sample(names, rng.randint(1, 3))),
                rng.choice((0.5, 3.0, 6.0)),
            )
            assert apply(board, clock, *step) == apply(
                reference, reference_clock, *step
            )
            assert breaker_gauges(board) == breaker_gauges(reference)
            seen_states.update(breaker_gauges(board).values())
        assert seen_states == {0, 1, 2}
        assert board.states() == reference.states()

    @pytest.mark.parametrize("registered", [3, 300])
    def test_state_reads_do_not_grow_with_the_board(self, registered, state_reads):
        board = BreakerBoard(failure_threshold=5, clock=FakeClock())
        for index in range(registered):
            board.record_success(f"v{index}")
        state_reads[0] = 0
        assert board.admit(("v0", "v1", "v2")) == ()
        board.record_success("v0")
        board.record_failure("v1")
        assert board.moved_states(("v0", "v1", "v2")) == {
            "v0": "closed", "v1": "closed", "v2": "closed",
        }
        # 3 + 1 + 1 + 3, whatever the number of registered breakers.
        assert state_reads[0] == 8

    def test_an_open_breaker_stays_watched_until_it_closes(self, state_reads):
        board = BreakerBoard(
            failure_threshold=1, cooldown_s=5.0, clock=(clock := FakeClock())
        )
        board.record_failure("v1")
        clock.advance(10.0)
        # Touching v2 alone still sees v1 cool down to half-open.
        board.record_success("v2")
        assert breaker_gauges(board)["resilience.breaker.v1.state"] == 1
        assert board.moved_states(()) == {"v1": "half_open"}
        assert board.admit(("v1",)) == ()
        board.record_success("v1")
        state_reads[0] = 0
        board.record_success("v2")
        assert state_reads[0] == 1
        assert board.moved_states(()) == {}
