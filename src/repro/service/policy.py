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


#: The backoff schedule: attempt ``n`` (1-based) that fails is retried
#: after ``BACKOFF_BASE_S * BACKOFF_FACTOR**(n-1)`` seconds, capped at
#: ``BACKOFF_CAP_S``.  No jitter, so service runs replay exactly.
BACKOFF_BASE_S = 0.01
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """How often a transient execution failure is tried, in all."""

    max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )

    def delay(self, failed_attempts: int) -> float:
        """Backoff before the next try, after *failed_attempts* failures."""
        return min(
            BACKOFF_CAP_S,
            BACKOFF_BASE_S * BACKOFF_FACTOR ** (failed_attempts - 1),
        )


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
        How often a :class:`~repro.errors.TransientExecutionError` is
        tried, with the module's backoff between tries.
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
