"""Conjunctive-query and datalog substrate.

This subpackage implements the logical machinery the paper's
reformulation layer depends on: terms, atoms, conjunctive queries,
unification, query containment, and a small bottom-up datalog engine
used both to execute concrete query plans and to evaluate inverse-rule
programs.
"""

from repro.datalog.containment import is_contained
from repro.datalog.parser import parse_atom, parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Constant, Variable

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "Variable",
    "is_contained",
    "parse_atom",
    "parse_query",
]
