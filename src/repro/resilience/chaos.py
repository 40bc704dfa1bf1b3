"""Fault injection for execution backends.

Chaos profiles describe faults **per source**, along these axes:

* ``transient_prob`` — each attempt touching the source fails with
  this probability (a :class:`~repro.errors.SourceFailureError`, which
  the retry policy treats as retryable);
* ``latency_s`` — added wall-clock delay per attempt (a slow source,
  not a dead one);
* ``permanent_outage`` — every attempt fails with a
  :class:`~repro.errors.PermanentSourceError`, which is *not*
  retryable: the breaker opens instead of the retry budget burning;
* ``flap_period`` / ``flap_down`` — deterministic periodic
  outage→recovery: of every ``flap_period`` accesses to the source,
  the first ``flap_down`` fail like a permanent outage and the rest
  succeed.  Flapping exercises the adaptive orderer in *both*
  directions — plans are demoted while the source is down and
  re-promoted once it answers again — where ``permanent_outage`` only
  ever demotes.

Failure draws come from :func:`deterministic_draw` keyed on ``(seed,
source, plan signature, attempt)``, so whether a given attempt fails
is a pure function of the configuration, whatever the thread
schedule.  Latency injection waits on an interruptible event rather
than ``time.sleep`` so shutdown never blocks on a fault profile.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, fields
from typing import Mapping, Optional

from repro.errors import PermanentSourceError, ServiceError, SourceFailureError
from repro.datalog.query import ConjunctiveQuery
from repro.service.backends import Database, ExecutionBackend, InMemoryBackend

__all__ = [
    "FaultProfile",
    "ChaosProfile",
    "ChaosBackend",
    "bundled_profile",
    "BUNDLED_PROFILES",
    "deterministic_draw",
]


def deterministic_draw(seed: int, signature: str, attempt: int) -> float:
    """A uniform [0, 1) draw that depends only on its arguments."""
    return random.Random(f"{seed}:{signature}:{attempt}").random()


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """The faults injected for one source (all dimensions optional)."""

    transient_prob: float = 0.0
    latency_s: float = 0.0
    permanent_outage: bool = False
    flap_period: Optional[int] = None
    flap_down: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_prob <= 1.0:
            raise ServiceError(
                f"transient_prob must be in [0, 1]: {self.transient_prob}"
            )
        if self.latency_s < 0:
            raise ServiceError(f"latency_s must be >= 0: {self.latency_s}")
        if self.flap_period is not None:
            if self.flap_period < 1:
                raise ServiceError(
                    f"flap_period must be >= 1: {self.flap_period}"
                )
            if not 1 <= self.flap_down <= self.flap_period:
                raise ServiceError(
                    f"flap_down must be in [1, flap_period]: {self.flap_down}"
                )
        elif self.flap_down != 0:
            raise ServiceError("flap_down requires flap_period")

    @property
    def is_noop(self) -> bool:
        return (
            self.transient_prob == 0.0
            and self.latency_s == 0.0
            and not self.permanent_outage
            and self.flap_period is None
        )

    def flap_down_at(self, access: int) -> bool:
        """Is the source down for its *access*-th access (1-based)?

        The first ``flap_down`` of every ``flap_period`` accesses
        fail — a pure function of the access ordinal, so flapping is
        exactly replayable given the access order.
        """
        if self.flap_period is None:
            return False
        return (access - 1) % self.flap_period < self.flap_down

    def as_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ChaosProfile:
    """A named assignment of fault profiles to source names.

    ``default`` applies to sources not listed in ``faults`` (usually
    the no-fault profile, so chaos is opt-in per source).
    """

    name: str
    faults: Mapping[str, FaultProfile]
    default: FaultProfile = FaultProfile()

    def profile_for(self, source: str) -> FaultProfile:
        return self.faults.get(source, self.default)

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "default": self.default.as_dict(),
            "faults": {
                source: fault.as_dict()
                for source, fault in sorted(self.faults.items())
            },
        }

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "ChaosProfile":
        try:
            faults = {
                str(source): FaultProfile(**fault)
                for source, fault in dict(payload.get("faults") or {}).items()
            }
            default = FaultProfile(**dict(payload.get("default") or {}))
            return ChaosProfile(
                name=str(payload.get("name", "custom")),
                faults=faults,
                default=default,
            )
        except TypeError as exc:
            raise ServiceError(f"malformed chaos profile: {exc}") from exc


#: The profiles ``serve --chaos`` ships, one per CI chaos job.  The
#: ``smoke`` profile targets the movie workload: one review source is
#: permanently dead and one source per bucket flakes at 35%, which
#: forces breaker opens and fallback plans while v1/v6 keep a path to
#: answers alive.
BUNDLED_PROFILES: dict[str, ChaosProfile] = {
    "smoke": ChaosProfile(
        name="smoke",
        faults={
            "v3": FaultProfile(transient_prob=0.35),
            "v4": FaultProfile(permanent_outage=True),
            "v5": FaultProfile(transient_prob=0.35, latency_s=0.002),
        },
    ),
    # Periodic outage→recovery on the movie workload's review/actor
    # sources: plans over v3/v5 are repeatedly demoted and re-promoted
    # as the flap windows pass, which drives the adaptive orderer's
    # re-sort path in both directions.  Co-prime periods keep the two
    # sources from flapping in lockstep.
    "flapping": ChaosProfile(
        name="flapping",
        faults={
            "v3": FaultProfile(flap_period=5, flap_down=2),
            "v5": FaultProfile(flap_period=7, flap_down=3),
        },
    ),
}


def bundled_profile(name: str) -> ChaosProfile:
    try:
        return BUNDLED_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(BUNDLED_PROFILES))
        raise ServiceError(
            f"unknown chaos profile {name!r} (bundled: {known})"
        ) from None


class ChaosBackend(ExecutionBackend):
    """Backend wrapper injecting a :class:`ChaosProfile`'s faults.

    The body atoms of an executable plan query are source relations,
    so each atom's predicate names the source it touches — that is the
    attribution key for per-source faults, and the ``source`` carried
    by the raised errors, which is what lets health tracking and
    breakers blame the right source rather than the whole plan.
    """

    def __init__(
        self,
        profile: ChaosProfile,
        inner: Optional[ExecutionBackend] = None,
        *,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.inner = inner if inner is not None else InMemoryBackend()
        self.seed = seed
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        #: Per-source access ordinals driving the flap schedules.  The
        #: schedule is deterministic *in the access order*: exact for
        #: single-threaded runs; under concurrency the interleaving
        #: picks which accesses land in a down-window, but the duty
        #: cycle (flap_down of every flap_period accesses fail) holds
        #: regardless.
        self._accesses: dict[str, int] = {}
        self.failures_injected = 0
        self.outages_hit = 0
        # Latency injection waits on this event instead of sleeping, so
        # a shutdown (or test teardown) can interrupt in-flight delays.
        self._interrupt = threading.Event()

    def interrupt(self) -> None:
        """Cancel all current and future injected latency waits."""
        self._interrupt.set()

    @staticmethod
    def _sources_of(executable: ConjunctiveQuery) -> tuple[str, ...]:
        return tuple(dict.fromkeys(atom.predicate for atom in executable.body))

    def execute(
        self, executable: ConjunctiveQuery, database: Database
    ) -> frozenset[tuple[object, ...]]:
        signature = str(executable)
        with self._lock:
            attempt = self._attempts.get(signature, 0) + 1
            self._attempts[signature] = attempt
        for source in self._sources_of(executable):
            fault = self.profile.profile_for(source)
            if fault.is_noop:
                continue
            if fault.latency_s > 0.0:
                self._interrupt.wait(fault.latency_s)
            if fault.permanent_outage:
                with self._lock:
                    self.outages_hit += 1
                raise PermanentSourceError(
                    source, f"chaos[{self.profile.name}]: {source} is down"
                )
            if fault.flap_period is not None:
                with self._lock:
                    access = self._accesses.get(source, 0) + 1
                    self._accesses[source] = access
                    down = fault.flap_down_at(access)
                    if down:
                        self.outages_hit += 1
                if down:
                    # Down-windows raise the *permanent* error so the
                    # breaker force-opens; the cooldown probe then finds
                    # the source answering again once the window passes.
                    raise PermanentSourceError(
                        source,
                        f"chaos[{self.profile.name}]: {source} flapped down "
                        f"(access {access})",
                    )
            if fault.transient_prob > 0.0:
                draw = deterministic_draw(
                    self.seed, f"{source}:{signature}", attempt
                )
                if draw < fault.transient_prob:
                    with self._lock:
                        self.failures_injected += 1
                    raise SourceFailureError(
                        source,
                        f"chaos[{self.profile.name}]: transient failure of "
                        f"{source} (attempt {attempt})",
                    )
        return self.inner.execute(executable, database)

    def __repr__(self) -> str:
        with self._lock:
            injected = self.failures_injected + self.outages_hit
        return (
            f"<ChaosBackend profile={self.profile.name!r} seed={self.seed} "
            f"failures={injected}>"
        )
