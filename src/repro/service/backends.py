"""Execution backends for the service layer.

The sequential mediator always evaluates plans in-process over the
in-memory source instances.  The service layer routes execution
through a small backend interface instead, for three reasons:

* executor *workers* run concurrently, so the backend contract is
  explicit about what they receive — an executable source-level query
  and a **read-only** database view;
* whether a request gets those workers at all is the backend's call:
  ``blocking`` says whether ``execute`` can wait, and only a wait
  leaves ordering something to overlap with;
* real sources flake.  :class:`FlakyBackend` injects transient
  failures mirroring the virtual-clock simulator's per-source failure
  model, which is what gives the retry-with-backoff policy something
  real to do in demos and tests.

Failure injection is deterministic: whether attempt ``n`` on plan
query ``q`` fails depends only on ``(seed, signature(q), n)``, never
on thread scheduling, so concurrent service runs are replayable.
"""

from __future__ import annotations

import random
import threading
from abc import ABC, abstractmethod
from typing import Mapping, Optional

from repro.errors import TransientExecutionError
from repro.datalog.query import ConjunctiveQuery
from repro.execution.engine import evaluate_conjunctive_query

__all__ = [
    "ExecutionBackend",
    "InMemoryBackend",
    "FlakyBackend",
    "deterministic_draw",
]

#: Read-only database view handed to backends.
Database = Mapping[str, set[tuple[object, ...]]]


def deterministic_draw(seed: int, signature: str, attempt: int) -> float:
    """A uniform [0, 1) draw that depends only on its arguments.

    Shared by every failure-injecting backend (:class:`FlakyBackend`,
    :class:`~repro.resilience.chaos.ChaosBackend`) so that whether
    attempt ``n`` on a given signature fails is a pure function of the
    configuration — never of thread scheduling — and chaos runs are
    replayable.
    """
    return random.Random(f"{seed}:{signature}:{attempt}").random()


class ExecutionBackend(ABC):
    """Evaluates one executable plan query over the source instances."""

    #: Can ``execute`` wait on something other than this process's CPU
    #: (a remote source, injected latency, a retry's backoff)?  A
    #: session reads it once per request, before plan 1: only a
    #: blocking backend gets the producer and worker threads, because
    #: only its waits leave the interpreter free to order ahead.
    blocking: bool = True

    @abstractmethod
    def execute(
        self, executable: ConjunctiveQuery, database: Database
    ) -> frozenset[tuple[object, ...]]:
        """All answers of *executable*; may raise
        :class:`~repro.errors.TransientExecutionError` for retryable
        failures."""


class InMemoryBackend(ExecutionBackend):
    """The default: direct evaluation, never fails."""

    #: CPU-bound Python under one GIL: threads would add start-ups and
    #: hand-offs to a request, never overlap.
    blocking = False

    def execute(
        self, executable: ConjunctiveQuery, database: Database
    ) -> frozenset[tuple[object, ...]]:
        return frozenset(evaluate_conjunctive_query(executable, database))

    def __repr__(self) -> str:
        return "<InMemoryBackend>"


class FlakyBackend(ExecutionBackend):
    """Failure-injecting wrapper around another backend.

    Each execution attempt independently fails with ``failure_prob``,
    like one source access in
    :class:`~repro.execution.simulator.ExecutionSimulator`.  Attempts
    are numbered per plan query, and the failure draw for attempt ``n``
    is seeded from ``(seed, signature, n)``, so a retrying caller sees
    the same failure pattern on every run regardless of concurrency.
    """

    def __init__(
        self,
        inner: Optional[ExecutionBackend] = None,
        *,
        failure_prob: float = 0.3,
        seed: int = 0,
        fail_first: int = 0,
    ) -> None:
        if not 0.0 <= failure_prob <= 1.0:
            raise ValueError(f"failure_prob must be in [0, 1]: {failure_prob}")
        self.inner = inner if inner is not None else InMemoryBackend()
        self.failure_prob = failure_prob
        self.seed = seed
        #: The first ``fail_first`` attempts per query fail
        #: unconditionally — a deterministic handle for retry tests.
        self.fail_first = fail_first
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()
        self.failures_injected = 0

    @staticmethod
    def _signature(executable: ConjunctiveQuery) -> str:
        return str(executable)

    def attempts_for(self, executable: ConjunctiveQuery) -> int:
        """How many attempts this backend has seen for *executable*."""
        with self._lock:
            return self._attempts.get(self._signature(executable), 0)

    def execute(
        self, executable: ConjunctiveQuery, database: Database
    ) -> frozenset[tuple[object, ...]]:
        signature = self._signature(executable)
        with self._lock:
            attempt = self._attempts.get(signature, 0) + 1
            self._attempts[signature] = attempt
        fails = False
        if attempt <= self.fail_first:
            fails = True
        elif self.failure_prob > 0.0:
            fails = deterministic_draw(self.seed, signature, attempt) < self.failure_prob
        if fails:
            with self._lock:
                self.failures_injected += 1
            raise TransientExecutionError(
                f"injected source failure (attempt {attempt}) for {signature}"
            )
        return self.inner.execute(executable, database)

    def __repr__(self) -> str:
        with self._lock:
            failures = self.failures_injected
        return (
            f"<FlakyBackend p={self.failure_prob} seed={self.seed} "
            f"failures={failures}>"
        )
