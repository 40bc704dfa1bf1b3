"""Conjunctive-query containment.

Query ``q1`` is contained in ``q2`` (``q1 subseteq q2``) iff there is a
*containment mapping* from ``q2`` to ``q1``: a substitution of ``q2``'s
variables by terms of ``q1`` that maps ``q2``'s head onto ``q1``'s head
and every body atom of ``q2`` onto some body atom of ``q1`` (Chandra &
Merlin).  Plan soundness (paper, Section 2) reduces to checking that
the expansion of a plan is contained in the user query.

The search is a backtracking homomorphism search with two standard
prunings: subgoals of ``q2`` are matched most-constrained-first, and
candidate target atoms are pre-indexed by predicate.
"""

from __future__ import annotations

from typing import Optional

from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Constant, Term, Variable


def _extend(
    source: Atom, target: Atom, mapping: dict[Variable, Term]
) -> Optional[dict[Variable, Term]]:
    """Try to extend *mapping* so that mapping(source) == target.

    Unlike unification this is one-directional: only variables of
    *source* may be bound, and they may be bound to any term of the
    target query (including its variables).
    """
    if source.predicate != target.predicate or source.arity != target.arity:
        return None
    extended = dict(mapping)
    for s_arg, t_arg in zip(source.args, target.args):
        if isinstance(s_arg, Variable):
            bound = extended.get(s_arg)
            if bound is None:
                extended[s_arg] = t_arg
            elif bound != t_arg:
                return None
        elif isinstance(s_arg, Constant):
            if not isinstance(t_arg, Constant) or s_arg.value != t_arg.value:
                return None
        else:  # FunctionTerm in the mapped query: require syntactic equality
            if s_arg != t_arg:
                return None
    return extended


def find_containment_mapping(
    outer: ConjunctiveQuery, inner: ConjunctiveQuery
) -> Optional[dict[Variable, Term]]:
    """Find a containment mapping from *outer* into *inner*.

    Returns a substitution ``h`` with ``h(outer.head) == inner.head``
    and ``h(atom) in inner.body`` for every body atom of *outer*, or
    None when no such mapping exists.  The existence of the mapping
    proves ``inner subseteq outer``.
    """
    if outer.head.arity != inner.head.arity:
        return None
    mapping = _extend(outer.head, inner.head, {})
    if mapping is None:
        return None

    by_predicate: dict[str, list[Atom]] = {}
    for atom in inner.body:
        by_predicate.setdefault(atom.predicate, []).append(atom)

    # Most-constrained-first: match subgoals with the fewest candidate
    # targets first so dead ends are discovered early.
    subgoals = sorted(
        outer.body, key=lambda a: len(by_predicate.get(a.predicate, ()))
    )
    for subgoal in subgoals:
        if subgoal.predicate not in by_predicate:
            return None

    def search(index: int, mapping: dict[Variable, Term]) -> Optional[dict[Variable, Term]]:
        if index == len(subgoals):
            return mapping
        subgoal = subgoals[index]
        for target in by_predicate[subgoal.predicate]:
            extended = _extend(subgoal, target, mapping)
            if extended is not None:
                result = search(index + 1, extended)
                if result is not None:
                    return result
        return None

    return search(0, mapping)


def is_contained(inner: ConjunctiveQuery, outer: ConjunctiveQuery) -> bool:
    """Return True iff every answer of *inner* is an answer of *outer*.

    ``is_contained(q1, q2)`` decides ``q1 subseteq q2`` on all databases.
    """
    return find_containment_mapping(outer, inner) is not None
