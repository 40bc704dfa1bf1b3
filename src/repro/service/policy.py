"""Per-request execution policies: deadlines, budgets, cancellation, retries.

A :class:`RequestPolicy` travels with one query through the service
stack.  All of its knobs are *cooperative*: the session, inline or
pipelined, checks the deadline and the cancellation token between units of work
(one plan pulled from the orderer, one execution attempt), so a policy
can never tear a request mid-plan — partial results are always a
clean prefix of the batch stream.

Deadlines use the monotonic clock and are represented as absolute
instants (:class:`Deadline`), so every thread of a session agrees on
"expired" regardless of when it first looks.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ServiceError

__all__ = [
    "CancellationToken",
    "Deadline",
    "RequestPolicy",
    "RetryPolicy",
]


class CancellationToken:
    """A cooperative, thread-safe cancellation flag.

    The caller keeps a reference and calls :meth:`cancel`; every stage
    of the session polls :attr:`cancelled`.  Waiting with a timeout is
    supported so backoff sleeps wake up immediately on cancellation.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float) -> bool:
        """Sleep up to *timeout* seconds; True if cancelled meanwhile."""
        return self._event.wait(timeout)

    def __repr__(self) -> str:
        return f"<CancellationToken cancelled={self.cancelled}>"


class Deadline:
    """An absolute monotonic-clock instant a request must finish by."""

    __slots__ = ("at",)

    def __init__(self, at: Optional[float]) -> None:
        self.at = at

    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """A deadline *seconds* from now; None means "no deadline"."""
        if seconds is None:
            return cls(None)
        if seconds < 0:
            raise ServiceError(f"deadline must be non-negative, got {seconds}")
        return cls(time.monotonic() + seconds)

    @property
    def expired(self) -> bool:
        return self.at is not None and time.monotonic() >= self.at

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0), or None for "no deadline"."""
        if self.at is None:
            return None
        return max(0.0, self.at - time.monotonic())

    def clamp(self, timeout: float) -> float:
        """*timeout* shortened to the remaining budget."""
        remaining = self.remaining()
        return timeout if remaining is None else min(timeout, remaining)

    def __repr__(self) -> str:
        if self.at is None:
            return "<Deadline none>"
        return f"<Deadline in {self.remaining():.3f}s>"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient execution failures.

    Attempt ``n`` (1-based) that fails is retried after
    ``base * factor**(n-1)`` seconds, capped at ``cap`` — the classic
    schedule.  With ``jitter=0`` (the default) the schedule is fully
    deterministic, so service runs replay exactly.

    ``jitter`` opts into *decorrelated* jitter: the delay is spread
    over ``[d*(1-jitter), d*(1+2*jitter)]`` (still capped at ``cap``),
    which desynchronizes retry storms when many cluster workers lose
    the same source at the same instant.  The draw is a pure hash of
    ``(jitter_seed, salt, failed_attempts)`` — no global RNG — so
    chaos replays with the same seed and request ids stay bit-for-bit
    reproducible while *different* requests spread out.
    """

    max_attempts: int = 1
    base_s: float = 0.01
    factor: float = 2.0
    cap_s: float = 1.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.base_s < 0 or self.cap_s < 0 or self.factor < 1.0:
            raise ServiceError(
                f"invalid backoff parameters {self.base_s}/{self.factor}/{self.cap_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ServiceError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def _draw(self, salt: str, failed_attempts: int) -> float:
        """A deterministic uniform draw in [0, 1) for this retry."""
        payload = f"{self.jitter_seed}:{salt}:{failed_attempts}".encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def delay(self, failed_attempts: int, *, salt: str = "") -> float:
        """Backoff before the next try, after *failed_attempts* failures.

        *salt* individualizes the jitter stream (the session passes its
        request id); it has no effect when ``jitter == 0``.
        """
        if failed_attempts < 1:
            raise ServiceError("delay() is asked after at least one failure")
        base = self.base_s * self.factor ** (failed_attempts - 1)
        if self.jitter > 0.0:
            # Decorrelated: uniformly inside [1-j, 1+2j] around the
            # exponential schedule, biased long so backoff pressure is
            # never *reduced* on average.
            spread = self._draw(salt, failed_attempts) * 3.0 * self.jitter
            base *= 1.0 - self.jitter + spread
        return min(self.cap_s, base)


@dataclass(frozen=True)
class RequestPolicy:
    """Everything one request may bound: time, work, answers.

    ``deadline_s``
        Wall-clock budget; on expiry the session stops cleanly and the
        result carries ``deadline_exceeded=True`` (it never raises).
    ``max_plans``
        At most this many plans pulled from the ordering (sound or
        not), mirroring ``Mediator.answer``'s parameter.
    ``first_k_answers``
        Stop as soon as this many *distinct* answer tuples have been
        produced — the paper's "first answers fast" contract as an
        explicit budget.
    ``retry``
        Backoff schedule for :class:`~repro.errors.TransientExecutionError`.
    ``cancellation``
        Optional shared token for caller-initiated cancellation.
    ``adaptivity``
        Per-request override of the server's adaptivity default:
        True forces mid-stream re-ordering on, False forces it off,
        None (the default) defers to the server configuration.
    """

    deadline_s: Optional[float] = None
    max_plans: Optional[int] = None
    first_k_answers: Optional[int] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cancellation: Optional[CancellationToken] = None
    adaptivity: Optional[bool] = None

    def start_deadline(self) -> Deadline:
        return Deadline.after(self.deadline_s)

    def token(self) -> CancellationToken:
        return self.cancellation if self.cancellation is not None else CancellationToken()
