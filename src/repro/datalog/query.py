"""Conjunctive queries.

A conjunctive query has the form ``Q(Y) :- R1(Y1), ..., Rm(Ym)`` where
the ``Ri`` are relations and the ``Yi`` are tuples of variables and
constants (paper, Section 2).  The same class represents user queries,
source descriptions, and query plans: they are all conjunctive queries
over different vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DatalogError
from repro.datalog.terms import Atom, Substitution, Variable


@dataclass(frozen=True)
class ConjunctiveQuery:
    """An immutable conjunctive query ``head :- body``."""

    head: Atom
    body: tuple[Atom, ...]
    #: What depends only on this query and the views or catalog an entry
    #: names: slot certificates, free variables and search verdicts
    #: (``soundness.plan_query``), the bucket space
    #: (``Mediator.reformulate``), the compiled join (``engine._solve``).
    #: Kept like ``SourceDescription.renamed_view`` keeps renamed views,
    #: for every request holding the object.  No lock: two threads
    #: racing to fill an entry write equal values.
    _prepared: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise DatalogError(f"query {self.head} has an empty body")

    # -- structural accessors -------------------------------------------------

    @property
    def name(self) -> str:
        return self.head.predicate

    @property
    def subgoals(self) -> tuple[Atom, ...]:
        """Alias for the body; the paper calls body atoms *subgoals*."""
        return self.body

    def subgoal(self, index: int) -> Atom:
        return self.body[index]

    def __len__(self) -> int:
        return len(self.body)

    def variables(self) -> tuple[Variable, ...]:
        """All variables, head first, in order of first occurrence."""
        seen: dict[Variable, None] = {}
        for var in self.head.variables():
            seen.setdefault(var, None)
        for atom in self.body:
            for var in atom.variables():
                seen.setdefault(var, None)
        return tuple(seen)

    def predicates(self) -> tuple[str, ...]:
        """Distinct body predicates in order of first occurrence."""
        seen: dict[str, None] = {}
        for atom in self.body:
            seen.setdefault(atom.predicate, None)
        return tuple(seen)

    # -- validity --------------------------------------------------------------

    def is_safe(self) -> bool:
        """A query is safe when every head variable occurs in the body."""
        body_vars = {v for atom in self.body for v in atom.variables()}
        return all(v in body_vars for v in self.head.variables())

    def check_safe(self) -> None:
        if not self.is_safe():
            raise DatalogError(f"unsafe query: {self}")

    # -- transformations --------------------------------------------------------

    def substitute(self, subst: Substitution) -> "ConjunctiveQuery":
        return ConjunctiveQuery(
            self.head.substitute(subst),
            tuple(a.substitute(subst) for a in self.body),
        )

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """Rename every variable by appending *suffix*.

        Used to avoid accidental variable capture when combining the
        bodies of several source descriptions into a plan expansion.
        """
        mapping = {v: Variable(v.name + suffix) for v in self.variables()}
        return self.substitute(mapping)

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}"
