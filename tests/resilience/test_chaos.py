"""Tests for fault profiles and the chaos backend."""

import time

import pytest

from repro.datalog.terms import Atom, Variable
from repro.datalog.query import ConjunctiveQuery
from repro.errors import PermanentSourceError, ServiceError, SourceFailureError
from repro.resilience.chaos import (
    BUNDLED_PROFILES,
    ChaosBackend,
    ChaosProfile,
    FaultProfile,
    bundled_profile,
)

X = Variable("X")


def executable(*sources):
    """A one-variable query whose body touches *sources* in order."""
    return ConjunctiveQuery(
        Atom("q", (X,)), tuple(Atom(name, (X,)) for name in sources)
    )


DATABASE = {
    "v1": {("a",), ("b",), ("c",)},
    "v2": {("a",), ("b",), ("c",)},
}


class TestFaultProfile:
    def test_noop_by_default(self):
        assert FaultProfile().is_noop

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transient_prob": -0.1},
            {"transient_prob": 1.5},
            {"latency_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServiceError):
            FaultProfile(**kwargs)

class TestChaosProfile:
    def test_profile_for_falls_back_to_default(self):
        profile = ChaosProfile(
            "p",
            faults={"v1": FaultProfile(transient_prob=0.5)},
            default=FaultProfile(latency_s=0.01),
        )
        assert profile.profile_for("v1").transient_prob == pytest.approx(0.5)
        assert profile.profile_for("v9").latency_s == pytest.approx(0.01)

    @pytest.mark.parametrize("name", sorted(BUNDLED_PROFILES))
    def test_dict_roundtrip(self, name):
        profile = BUNDLED_PROFILES[name]
        rebuilt = ChaosProfile.from_dict(profile.as_dict())
        assert rebuilt.as_dict() == profile.as_dict()

    def test_malformed_payload_raises_service_error(self):
        with pytest.raises(ServiceError, match="malformed chaos profile"):
            ChaosProfile.from_dict({"faults": {"v1": {"nonsense": 1}}})

    def test_bundled_lookup(self):
        assert sorted(BUNDLED_PROFILES) == ["flapping", "smoke"]
        assert bundled_profile("smoke").name == "smoke"
        with pytest.raises(ServiceError, match="unknown chaos profile"):
            bundled_profile("hurricane")


class TestFlapping:
    """Deterministic periodic outage→recovery (``flap_period``/``flap_down``)."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flap_period": 0, "flap_down": 1},
            {"flap_period": 5, "flap_down": 0},
            {"flap_period": 5, "flap_down": 6},
            {"flap_down": 2},  # flap_down without flap_period
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServiceError):
            FaultProfile(**kwargs)

    def test_flapping_is_not_noop(self):
        assert not FaultProfile(flap_period=5, flap_down=2).is_noop

    def test_schedule_is_a_pure_function_of_the_access_ordinal(self):
        fault = FaultProfile(flap_period=5, flap_down=2)
        expected = [True, True, False, False, False] * 2
        assert [fault.flap_down_at(n) for n in range(1, 11)] == expected

    def test_no_flap_means_never_down(self):
        assert not FaultProfile().flap_down_at(1)

    def test_backend_demotes_and_repromotes_in_access_order(self):
        profile = ChaosProfile(
            "flap", faults={"v1": FaultProfile(flap_period=3, flap_down=1)}
        )
        backend = ChaosBackend(profile)
        outcomes = []
        for _ in range(6):
            try:
                backend.execute(executable("v1"), DATABASE)
                outcomes.append("ok")
            except PermanentSourceError as exc:
                assert exc.source == "v1"
                outcomes.append("down")
        # Down, back up, down again: both halves of the flap cycle.
        assert outcomes == ["down", "ok", "ok", "down", "ok", "ok"]
        assert backend.outages_hit == 2

    def test_backend_counts_accesses_per_source(self):
        profile = ChaosProfile(
            "flap",
            faults={
                "v1": FaultProfile(flap_period=2, flap_down=1),
                "v2": FaultProfile(flap_period=2, flap_down=1),
            },
        )
        backend = ChaosBackend(profile)
        # v1's first access goes down; v2's own counter also starts at
        # one, so its first access goes down too — schedules are
        # independent per source, not shared.
        with pytest.raises(PermanentSourceError):
            backend.execute(executable("v1"), DATABASE)
        with pytest.raises(PermanentSourceError):
            backend.execute(executable("v2"), DATABASE)
        assert backend.execute(executable("v1"), DATABASE)
        assert backend.execute(executable("v2"), DATABASE)

    def test_bundled_flapping_profile_round_trips_and_recovers(self):
        profile = bundled_profile("flapping")
        rebuilt = ChaosProfile.from_dict(profile.as_dict())
        assert rebuilt.as_dict() == profile.as_dict()
        v3 = profile.profile_for("v3")
        assert (v3.flap_period, v3.flap_down) == (5, 2)
        v5 = profile.profile_for("v5")
        assert (v5.flap_period, v5.flap_down) == (7, 3)
        # Every faulted source recovers within its period.
        for fault in (v3, v5):
            cycle = [fault.flap_down_at(n) for n in range(1, fault.flap_period + 1)]
            assert True in cycle and False in cycle


class TestChaosBackend:
    def test_clean_profile_passes_through(self):
        backend = ChaosBackend(ChaosProfile("calm", faults={}))
        answers = backend.execute(executable("v1"), DATABASE)
        assert answers == frozenset({("a",), ("b",), ("c",)})
        assert backend.failures_injected == 0

    def test_permanent_outage_names_the_source(self):
        profile = ChaosProfile(
            "dead", faults={"v2": FaultProfile(permanent_outage=True)}
        )
        backend = ChaosBackend(profile)
        with pytest.raises(PermanentSourceError) as err:
            backend.execute(executable("v1", "v2"), DATABASE)
        assert err.value.source == "v2"
        assert backend.outages_hit == 1

    def test_transient_failures_are_deterministic_per_seed(self):
        profile = ChaosProfile(
            "flaky", faults={"v1": FaultProfile(transient_prob=0.5)}
        )

        def outcomes(seed):
            backend = ChaosBackend(profile, seed=seed)
            results = []
            for _ in range(20):
                try:
                    backend.execute(executable("v1"), DATABASE)
                    results.append("ok")
                except SourceFailureError as exc:
                    assert exc.source == "v1"
                    results.append("fail")
            return results

        first = outcomes(seed=3)
        second = outcomes(seed=3)
        assert first == second
        assert "ok" in first and "fail" in first
        assert outcomes(seed=4) != first  # the seed actually matters

    def test_attempts_are_numbered_per_plan_signature(self):
        profile = ChaosProfile(
            "down", faults={}, default=FaultProfile(transient_prob=1.0)
        )
        backend = ChaosBackend(profile)

        def attempt_named(query):
            with pytest.raises(SourceFailureError) as err:
                backend.execute(query, DATABASE)
            return str(err.value).rsplit("(", 1)[1]

        query, other = executable("v1"), executable("v2")
        assert attempt_named(query) == "attempt 1)"
        assert attempt_named(query) == "attempt 2)"
        assert attempt_named(other) == "attempt 1)"
        assert attempt_named(query) == "attempt 3)"

    def test_interrupt_cancels_injected_latency(self):
        profile = ChaosProfile(
            "slow", faults={"v1": FaultProfile(latency_s=30.0)}
        )
        backend = ChaosBackend(profile)
        backend.interrupt()
        started = time.monotonic()
        backend.execute(executable("v1"), DATABASE)
        assert time.monotonic() - started < 5.0

    def test_bundled_smoke_profile_matches_the_movie_workload(self):
        smoke = bundled_profile("smoke")
        assert smoke.profile_for("v4").permanent_outage
        assert smoke.profile_for("v3").transient_prob == pytest.approx(0.35)
        assert smoke.profile_for("v5").transient_prob == pytest.approx(0.35)
        # v1 and v6 keep a healthy path to answers alive.
        assert smoke.profile_for("v1").is_noop
        assert smoke.profile_for("v6").is_noop
