"""Exception hierarchy for the repro library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DatalogError(ReproError):
    """Malformed datalog constructs (unsafe rules, bad arities, ...)."""


class ParseError(DatalogError):
    """Raised when datalog text cannot be parsed."""


class CatalogError(ReproError):
    """Inconsistent source catalog (unknown relations, bad stats, ...)."""


class ReformulationError(ReproError):
    """Raised when query reformulation cannot proceed."""


class UtilityError(ReproError):
    """Raised when a utility measure is used outside its contract."""


class OrderingError(ReproError):
    """Raised when a plan orderer is misconfigured or misused."""


class NotApplicableError(OrderingError):
    """An ordering algorithm's preconditions do not hold.

    Examples: Greedy on a utility measure that is not fully monotonic,
    or Streamer on a measure without utility-diminishing returns.
    """


class ExecutionError(ReproError):
    """Raised by the plan execution engine and the mediator."""


class TransientExecutionError(ExecutionError):
    """A plan execution failed in a retryable way (source flake).

    The service layer's retry policy treats this — and only this —
    error as recoverable; anything else aborts the request.
    """


class SourceFailureError(TransientExecutionError):
    """A transient failure attributed to one specific source.

    Carrying the source name lets the resilience layer feed the right
    :class:`~repro.resilience.health.SourceHealthTracker` entry and
    circuit breaker instead of blaming the whole plan.
    """

    def __init__(self, source: str, message: str) -> None:
        super().__init__(message)
        self.source = source


class PermanentSourceError(ExecutionError):
    """A source is down for good (chaos outage, decommissioned feed).

    Deliberately *not* transient: retrying a dead source burns the
    retry budget for nothing, so the retry policy lets this error
    through immediately and the circuit breaker opens instead.
    """

    def __init__(self, source: str, message: str) -> None:
        super().__init__(message)
        self.source = source


class InternalError(ReproError):
    """An internal invariant the library relies on was violated.

    Replaces production ``assert`` statements, which vanish under
    ``python -O``: an impossible state must fail loudly in every
    interpreter mode (enforced by the ``production-assert`` lint rule).
    """


class AnalysisError(ReproError):
    """Raised by the static-analysis layer (bad rule ids, baselines, ...)."""


class ObservabilityError(ReproError):
    """Raised by the observability layer (journal schema violations, ...)."""


class ServiceError(ReproError):
    """Raised by the concurrent query service layer."""


class ServiceOverloadedError(ServiceError):
    """The admission gate is full, running and waiting (backpressure)."""


class ProtocolError(ServiceError):
    """A malformed record on the JSON-lines wire protocol."""
