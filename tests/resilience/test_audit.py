"""docs/resilience.md's audit table against the code.

Each row of the table names one mechanism and ends in its verdict:
"kept" (the mechanism is there) or anything else (deleted, or turned
into a constant, so the knob is gone).  One probe per row checks the
verdict against the tree, so a mechanism re-added without its row, or
a row left behind by a deletion, fails here.
"""

import contextlib
import dataclasses
import functools
import inspect
import io
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.resilience
import repro.service.backends
import repro.service.server
from repro.cli import main
from repro.errors import SourceFailureError
from repro.observability.metrics import MetricRegistry
from repro.resilience import health
from repro.resilience.breaker import BreakerBoard, BreakerState, CircuitBreaker
from repro.resilience.chaos import (
    BUNDLED_PROFILES,
    ChaosBackend,
    ChaosProfile,
    FaultProfile,
)
from repro.resilience.health import HealthEpoch, SourceHealthTracker
from repro.resilience.manager import ResilienceManager
from repro.resilience.measure import HealthAwareMeasure
from repro.utility.cost import BindJoinCost
from repro.workloads.movies import movie_domain

DOC = Path(__file__).resolve().parents[2] / "docs" / "resilience.md"
HEADING = "## Which mechanisms exist, and why: the audit"


def audit_rows():
    """``(mechanism, verdict)`` for each row of the audit table."""
    section = DOC.read_text(encoding="utf-8").split(HEADING, 1)[1]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = []
    for line in lines[2:]:  # past the header and its rule
        cells = [cell.strip() for cell in line.strip().strip("|").split(" | ")]
        rows.append((cells[0], cells[-1]))
    return rows


def params(callable_):
    return set(inspect.signature(callable_).parameters)


def fields(cls):
    return {field.name for field in dataclasses.fields(cls)}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@functools.lru_cache(maxsize=None)
def serve_help():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(["serve", "--help"])
    return out.getvalue()


def plan(*names):
    return SimpleNamespace(sources=tuple(SimpleNamespace(name=n) for n in names))


def health_epoch_moves():
    manager = ResilienceManager()
    manager.record_failure(("v1",))
    return isinstance(manager.epoch, HealthEpoch) and manager.epoch.value == 1


def substitution_applies():
    tracker = SourceHealthTracker()
    measure = HealthAwareMeasure(
        BindJoinCost(failure_aware=True), tracker, min_observations=1
    )
    source = movie_domain().catalog.source("v1")
    tracker.record_failure("v1")
    return measure.substitute(source) is not source


def breakers_block():
    manager = ResilienceManager(breakers=True, board=BreakerBoard(failure_threshold=1))
    manager.record_failure(("v1",))
    return manager.admit(plan("v1")) == ("v1",)


def one_half_open_probe():
    clock = FakeClock()
    breaker = CircuitBreaker("v1", failure_threshold=1, cooldown_s=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 2.0
    return (
        breaker.admit()
        and not breaker.admit()
        and breaker.state == BreakerState.HALF_OPEN
    )


def flapping_is_served():
    profile = FaultProfile(flap_period=2, flap_down=1)
    return (
        profile.flap_down_at(1)
        and not profile.flap_down_at(2)
        and "flapping" in BUNDLED_PROFILES
    )


def profiles_round_trip():
    profile = BUNDLED_PROFILES["smoke"]
    return ChaosProfile.from_dict(profile.as_dict()).as_dict() == profile.as_dict()


def breaker_gauges_export():
    registry = MetricRegistry()
    BreakerBoard(failure_threshold=1, registry=registry).record_failure("v1")
    return registry.as_dict()["resilience.breaker.v1.state"]["value"] == 2


def failures_charge_the_named_source():
    manager = ResilienceManager()
    manager.record_failure(("v1", "v2"), SourceFailureError("v2", "down"))
    return (
        manager.tracker.observations("v1") == 0
        and manager.tracker.observations("v2") == 1
    )


def latency_is_tracked():
    registry = MetricRegistry()
    tracker = SourceHealthTracker(registry=registry)
    tracker.record_success("v1")
    return (
        hasattr(tracker, "latency")
        or "latency_s" in params(tracker.record_success)
        or "latency_s" in params(tracker.record_failure)
        or "resilience.health.v1.latency_s" in registry.as_dict()
    )


#: Does the row's mechanism exist in the tree?
PRESENT = {
    "`FlakyBackend` (`service/backends.py`)":
        lambda: hasattr(repro.service.backends, "FlakyBackend"),
    "PEP 562 lazy chaos names in `resilience/__init__.py`":
        lambda: "__getattr__" in vars(repro.resilience)
        or hasattr(repro.resilience, "ChaosBackend"),
    "`FaultProfile.truncate_to`":
        lambda: "truncate_to" in fields(FaultProfile),
    "`truncating` bundled profile": lambda: "truncating" in BUNDLED_PROFILES,
    "`slow` bundled profile": lambda: "slow" in BUNDLED_PROFILES,
    "`FaultProfile.compose`, `ChaosProfile.compose`":
        lambda: hasattr(FaultProfile, "compose") or hasattr(ChaosProfile, "compose"),
    "`ChaosProfile.with_scaled_latency`":
        lambda: hasattr(ChaosProfile, "with_scaled_latency"),
    "`ChaosProfile.faulted_sources`":
        lambda: hasattr(ChaosProfile, "faulted_sources"),
    "`ChaosBackend.attempts_for`": lambda: hasattr(ChaosBackend, "attempts_for"),
    "`probe_budget` (breaker and board)":
        lambda: "probe_budget" in params(CircuitBreaker) | params(BreakerBoard),
    "`BreakerBoard.open_sources`": lambda: hasattr(BreakerBoard, "open_sources"),
    "`BreakerBoard.reset`": lambda: hasattr(BreakerBoard, "reset"),
    "`SourceHealthTracker(alpha=)`":
        lambda: "alpha" in params(SourceHealthTracker) or health.ALPHA != 0.2,
    "latency EWMA and `resilience.health.<source>.latency_s`": latency_is_tracked,
    "`SourceHealthTracker.reset`": lambda: hasattr(SourceHealthTracker, "reset"),
    "`HealthAwareMeasure(overrides=)`":
        lambda: "overrides" in params(HealthAwareMeasure),
    "`HealthAwareMeasure.frozen`, `health_measure(frozen=)`":
        lambda: hasattr(HealthAwareMeasure, "frozen")
        or "frozen" in params(ResilienceManager.health_measure),
    "`ResilienceManager(health_aware=)`":
        lambda: "health_aware" in params(ResilienceManager),
    "`ResilienceManager(graceful=)`":
        lambda: "graceful" in params(ResilienceManager),
    "the health epoch": health_epoch_moves,
    "`HealthAwareMeasure` substitution": substitution_applies,
    "breaker admission (`breakers=True`)": breakers_block,
    "the half-open probe": one_half_open_probe,
    "`AdaptiveOrderer` in the service":
        lambda: hasattr(repro.service.server, "AdaptiveOrderer"),
    "flapping (`flap_period` / `flap_down`)": flapping_is_served,
    "`--no-breakers` (`WorkerSpec.breakers`)":
        lambda: "--no-breakers" in serve_help(),
    "`--breaker-cooldown`": lambda: "--breaker-cooldown" in serve_help(),
    "`--min-observations`": lambda: "--min-observations" in serve_help(),
    "`ChaosProfile.as_dict` / `from_dict`": profiles_round_trip,
    "`ChaosBackend.interrupt()`":
        lambda: callable(getattr(ChaosBackend, "interrupt", None)),
    "`transient_prob`": lambda: "transient_prob" in fields(FaultProfile),
    "`permanent_outage`": lambda: "permanent_outage" in fields(FaultProfile),
    "`latency_s`": lambda: "latency_s" in fields(FaultProfile),
    "breaker gauge export": breaker_gauges_export,
    "per-source failure attribution": failures_charge_the_named_source,
}


def test_every_row_has_a_probe():
    assert sorted(mechanism for mechanism, _ in audit_rows()) == sorted(PRESENT)


@pytest.mark.parametrize(
    "mechanism, verdict", audit_rows(), ids=[row[0] for row in audit_rows()]
)
def test_the_verdict_matches_the_tree(mechanism, verdict):
    assert PRESENT[mechanism]() == verdict.startswith("kept")
