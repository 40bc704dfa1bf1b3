"""The utility-measure interface.

Following the paper's general notion of utility (Section 2), the
utility of a plan is a number that may depend on the plans already
executed: ``u(p | p1, ..., pl, Q)``.  The executed set and any derived
state (result caches, covered tuples) live in an
:class:`ExecutionContext`; measures evaluate plans *against* a context
and record executions *into* it.

Plans are duck-typed: anything with a ``sources`` tuple of
:class:`~repro.sources.catalog.SourceDescription` (one per query
subgoal, in subgoal order) is a concrete plan.  Abstract plans are
represented to measures as ``slots``: a tuple of tuples of member
sources, one inner tuple per subgoal.

Structural properties (paper, Section 3) are exposed as attributes so
ordering algorithms can check their own applicability:

``is_fully_monotonic``
    Per-bucket total orders exist such that upgrading a source always
    improves the plan, regardless of the executed set (enables Greedy).
``has_diminishing_returns``
    A plan's utility never increases as more plans are executed
    (required by Streamer).
``context_free``
    Utility is independent of the executed set entirely (implies
    diminishing returns; makes every plan pair independent).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol, Sequence

from repro.errors import UtilityError
from repro.sources.catalog import SourceDescription
from repro.utility.intervals import Interval


class PlanLike(Protocol):
    """Anything with one chosen source per query subgoal."""

    @property
    def sources(self) -> tuple[SourceDescription, ...]: ...


#: Abstract plans are handed to measures as per-slot member tuples.
Slots = tuple[tuple[SourceDescription, ...], ...]


class ExecutionContext:
    """Mutable record of the plans executed so far.

    Subclasses add measure-specific derived state (covered-tuple
    unions, cached source operations).  Contexts are created by
    :meth:`UtilityMeasure.new_context` and mutated only through
    :meth:`record`.
    """

    def __init__(self) -> None:
        self.executed: list[PlanLike] = []

    def record(self, plan: PlanLike) -> None:
        """Mark *plan* as executed."""
        self.executed.append(plan)

    def __len__(self) -> int:
        return len(self.executed)


class UtilityMeasure(ABC):
    """Base class for all utility measures.

    Higher utility is better; cost-based measures return negated costs
    so that a single "find the maximum" convention serves every
    orderer.
    """

    #: Short name used in experiment tables.
    name: str = "utility"

    #: Full monotonicity (Section 3); enables the Greedy algorithm.
    is_fully_monotonic: bool = False

    #: Utility-diminishing returns (Section 3); required by Streamer.
    has_diminishing_returns: bool = True

    #: True when utility ignores the executed set entirely.
    context_free: bool = True

    @property
    def cacheable(self) -> bool:
        """May a memoized value of this measure be reused?

        Only a context-free one: an orderer re-evaluates a plan only
        after its context has recorded another, so a context-dependent
        value could hit only in another run with the same executed
        prefix.  Wrappers forward their inner measure's answer, and a
        health-aware one says False (composition rule:
        :mod:`repro.resilience.measure`).
        """
        return self.context_free

    # -- contexts ---------------------------------------------------------------

    def new_context(self) -> ExecutionContext:
        """Create an empty execution context for this measure."""
        return ExecutionContext()

    # -- evaluation ---------------------------------------------------------------

    @abstractmethod
    def evaluate(self, plan: PlanLike, context: ExecutionContext) -> float:
        """Utility of a concrete plan given the executed set."""

    @abstractmethod
    def evaluate_slots(self, slots: Slots, context: ExecutionContext) -> Interval:
        """Sound utility interval for an abstract plan.

        The returned interval must contain ``evaluate(p, context)`` for
        every concrete plan ``p`` obtainable by picking one member per
        slot.
        """

    # -- independence -----------------------------------------------------------

    def independent(self, first: PlanLike, second: PlanLike) -> bool:
        """Sound pairwise independence test (paper, Section 3).

        True means executing one plan provably never changes the
        other's utility.  Context-free measures are trivially fully
        independent.
        """
        if self.context_free:
            return True
        raise NotImplementedError

    def has_independent_witness(
        self, slots: Slots, executed: Sequence[PlanLike]
    ) -> bool:
        """Is some concrete plan in *slots* independent of all *executed*?

        Sound but not necessarily complete (paper, Section 3): a True
        answer must be correct; False may be conservative.  Used by
        Streamer's dominance-link validity check.
        """
        if self.context_free:
            return True
        raise NotImplementedError

    def all_members_independent(self, slots: Slots, plan: PlanLike) -> bool:
        """Is *every* concrete plan in *slots* independent of *plan*?

        Sound in the conservative direction: True must be correct,
        False may be pessimistic.  Streamer uses this to decide whether
        a node's cached utility interval survives the removal of
        *plan* ("set u(e) <- nil" in Figure 5).
        """
        if self.context_free:
            return True
        raise NotImplementedError

    # -- monotonicity hooks --------------------------------------------------------

    def source_preference_key(self, bucket: int, source: SourceDescription) -> float:
        """Per-bucket preference key for fully monotonic measures.

        Greedy ranks a bucket's sources by this key, higher = better.
        Measures that are not fully monotonic raise
        :class:`~repro.errors.UtilityError`.
        """
        raise UtilityError(
            f"measure {self.name!r} is not fully monotonic; "
            "it defines no per-source preference key"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class DelegatingMeasure(UtilityMeasure):
    """A measure that wraps another and forwards everything to it.

    Mirrors the inner measure's name and structural flags, so an
    orderer's applicability checks see the true measure, and forwards
    every hook verbatim; a wrapper overrides only what it changes.
    Which wrappers may stack, and in what order, is the composition
    rule in :mod:`repro.resilience.measure`.
    """

    def __init__(self, inner: UtilityMeasure) -> None:
        self.inner = inner
        self.name = inner.name
        self.is_fully_monotonic = inner.is_fully_monotonic
        self.has_diminishing_returns = inner.has_diminishing_returns
        self.context_free = inner.context_free

    @property
    def cacheable(self) -> bool:
        return self.inner.cacheable

    def new_context(self) -> ExecutionContext:
        return self.inner.new_context()

    def evaluate(self, plan: PlanLike, context: ExecutionContext) -> float:
        return self.inner.evaluate(plan, context)

    def evaluate_slots(self, slots: Slots, context: ExecutionContext) -> Interval:
        return self.inner.evaluate_slots(slots, context)

    def independent(self, first: PlanLike, second: PlanLike) -> bool:
        return self.inner.independent(first, second)

    def has_independent_witness(
        self, slots: Slots, executed: Sequence[PlanLike]
    ) -> bool:
        return self.inner.has_independent_witness(slots, executed)

    def all_members_independent(self, slots: Slots, plan: PlanLike) -> bool:
        return self.inner.all_members_independent(slots, plan)

    def source_preference_key(self, bucket: int, source: SourceDescription) -> float:
        return self.inner.source_preference_key(bucket, source)
