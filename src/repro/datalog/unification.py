"""Unification of terms and atoms.

:func:`unify_terms` / :func:`unify_atoms` compute a most general
unifier (MGU).  The bucket algorithm uses them to decide whether a
source atom can cover a query subgoal, and the soundness test to
assemble a plan's expansion.
"""

from __future__ import annotations

from typing import Optional

from repro.datalog.terms import Atom, Constant, FunctionTerm, Term, Variable


def _walk(term: Term, subst: dict[Variable, Term]) -> Term:
    """Follow variable bindings in *subst* until a non-bound term."""
    while isinstance(term, Variable) and term in subst:
        term = subst[term]
    return term


def _occurs(var: Variable, term: Term, subst: dict[Variable, Term]) -> bool:
    """Occurs check: does *var* appear inside *term* under *subst*?"""
    term = _walk(term, subst)
    if term == var:
        return True
    if isinstance(term, FunctionTerm):
        return any(_occurs(var, a, subst) for a in term.args)
    return False


def unify_terms(
    left: Term, right: Term, subst: Optional[dict[Variable, Term]] = None
) -> Optional[dict[Variable, Term]]:
    """Unify two terms, extending *subst*.  Return None on failure.

    The returned substitution is in triangular form; use
    :func:`resolve` to fully apply it to a term.
    """
    if subst is None:
        subst = {}
    left = _walk(left, subst)
    right = _walk(right, subst)
    if left == right:
        return subst
    if isinstance(left, Variable):
        if _occurs(left, right, subst):
            return None
        subst[left] = right
        return subst
    if isinstance(right, Variable):
        if _occurs(right, left, subst):
            return None
        subst[right] = left
        return subst
    if isinstance(left, Constant) and isinstance(right, Constant):
        return subst if left.value == right.value else None
    if isinstance(left, FunctionTerm) and isinstance(right, FunctionTerm):
        if left.functor != right.functor or len(left.args) != len(right.args):
            return None
        for l_arg, r_arg in zip(left.args, right.args):
            subst = unify_terms(l_arg, r_arg, subst)
            if subst is None:
                return None
        return subst
    return None


def unify_atoms(
    left: Atom, right: Atom, subst: Optional[dict[Variable, Term]] = None
) -> Optional[dict[Variable, Term]]:
    """Unify two atoms predicate-wise; return the extended MGU or None."""
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    if subst is None:
        subst = {}
    for l_arg, r_arg in zip(left.args, right.args):
        subst = unify_terms(l_arg, r_arg, subst)
        if subst is None:
            return None
    return subst


def resolve(term: Term, subst: dict[Variable, Term]) -> Term:
    """Fully apply a triangular substitution to *term*."""
    term = _walk(term, subst)
    if isinstance(term, FunctionTerm):
        return FunctionTerm(term.functor, tuple(resolve(a, subst) for a in term.args))
    return term


def resolve_atom(atom: Atom, subst: dict[Variable, Term]) -> Atom:
    """Fully apply a triangular substitution to every argument of *atom*."""
    return Atom(atom.predicate, tuple(resolve(a, subst) for a in atom.args))
