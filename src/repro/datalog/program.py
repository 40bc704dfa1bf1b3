"""Datalog rules and programs.

A :class:`Program` is a set of (possibly mutually recursive) rules over
intensional (IDB) predicates, evaluated against extensional (EDB)
facts.  The inverse-rules reformulation algorithm produces programs
whose rule heads may contain Skolem :class:`~repro.datalog.terms.FunctionTerm`
terms; the engine handles these transparently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DatalogError
from repro.datalog.terms import Atom


@dataclass(frozen=True)
class Rule:
    """A datalog rule ``head :- body``."""

    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    def is_safe(self) -> bool:
        """Every head variable (incl. inside Skolems) occurs in the body."""
        body_vars = {v for atom in self.body for v in atom.variables()}
        return all(v in body_vars for v in self.head.variables())

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}"


@dataclass(frozen=True)
class Program:
    """An ordered collection of datalog rules."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not rule.is_safe():
                raise DatalogError(f"unsafe rule: {rule}")

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)

    def __len__(self) -> int:
        return len(self.rules)
