"""Terms and atoms of the conjunctive-query language.

The language has three kinds of terms:

* :class:`Variable` -- logical variables, written ``X``, ``Movie``, ...
* :class:`Constant` -- ground values, written ``"ford"`` or ``42``.
* :class:`FunctionTerm` -- function applications.  The only producer of
  function terms in this library is the inverse-rules reformulation
  algorithm, which uses them as Skolem terms standing for unknown
  existential values.

An :class:`Atom` is a predicate symbol applied to a tuple of terms,
e.g. ``play_in(A, M)``.  All objects in this module are immutable and
hashable so they can be used as dictionary keys and set members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

Term = Union["Variable", "Constant", "FunctionTerm"]

#: A substitution maps variables to arbitrary terms.
Substitution = Mapping["Variable", Term]


@dataclass(frozen=True, slots=True)
class Variable:
    """A logical variable identified by its name."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True)
class Constant:
    """A ground value.  Values must be hashable (str, int, tuple, ...)."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass(frozen=True, slots=True)
class FunctionTerm:
    """A function application ``functor(arg1, ..., argn)``.

    Used as Skolem terms by the inverse-rules algorithm: the unknown
    movie joined through source ``V`` becomes ``f_V_M(a, b)`` where
    ``(a, b)`` is the source tuple it came from.
    """

    functor: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.functor}({inner})"

    def __repr__(self) -> str:
        return f"FunctionTerm({self.functor!r}, {self.args!r})"


def term_variables(term: Term) -> Iterator[Variable]:
    """Yield every variable occurring in *term* (with repetitions)."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, FunctionTerm):
        for arg in term.args:
            yield from term_variables(arg)


def substitute_term(term: Term, subst: Substitution) -> Term:
    """Apply *subst* to *term*, leaving unmapped variables in place."""
    if isinstance(term, Variable):
        return subst.get(term, term)
    if isinstance(term, FunctionTerm):
        return FunctionTerm(
            term.functor, tuple(substitute_term(a, subst) for a in term.args)
        )
    return term


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to a tuple of terms, e.g. ``play_in(A, M)``."""

    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> tuple[Variable, ...]:
        """All variables of the atom, in order of first occurrence."""
        seen: dict[Variable, None] = {}
        for arg in self.args:
            for var in term_variables(arg):
                seen.setdefault(var, None)
        return tuple(seen)

    def substitute(self, subst: Substitution) -> "Atom":
        """Return a copy of the atom with *subst* applied to its args."""
        return Atom(self.predicate, tuple(substitute_term(a, subst) for a in self.args))

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {self.args!r})"
