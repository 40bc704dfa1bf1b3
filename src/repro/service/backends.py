"""Execution backends for the service layer.

The sequential mediator always evaluates plans in-process over the
in-memory source instances.  The service layer routes execution
through a small backend interface instead, for two reasons:

* executor *workers* run concurrently, so the backend contract is
  explicit about what they receive — an executable source-level query
  and a **read-only** database view;
* whether a request gets those workers at all is the backend's call:
  ``blocking`` says whether ``execute`` can wait, and only a wait
  leaves ordering something to overlap with.

Real sources flake; :class:`~repro.resilience.chaos.ChaosBackend`
wraps a backend to inject per-source faults.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

from repro.datalog.query import ConjunctiveQuery
from repro.execution.engine import evaluate_conjunctive_query

__all__ = ["ExecutionBackend", "InMemoryBackend"]

#: Read-only database view handed to backends.
Database = Mapping[str, set[tuple[object, ...]]]


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
