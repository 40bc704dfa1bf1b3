"""Tests for unification and matching."""

from repro.datalog.terms import Atom, Constant, FunctionTerm, Variable
from repro.datalog.unification import (
    resolve,
    resolve_atom,
    unify_atoms,
    unify_terms,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestUnifyTerms:
    def test_identical_constants(self):
        assert unify_terms(Constant(1), Constant(1)) == {}

    def test_conflicting_constants(self):
        assert unify_terms(Constant(1), Constant(2)) is None

    def test_variable_binds_to_constant(self):
        subst = unify_terms(X, Constant("a"))
        assert resolve(X, subst) == Constant("a")

    def test_variable_to_variable(self):
        subst = unify_terms(X, Y)
        assert resolve(X, subst) == resolve(Y, subst)

    def test_transitive_bindings(self):
        subst = unify_terms(X, Y)
        subst = unify_terms(Y, Constant(5), subst)
        assert resolve(X, subst) == Constant(5)

    def test_occurs_check_rejects_cyclic(self):
        term = FunctionTerm("f", (X,))
        assert unify_terms(X, term) is None

    def test_function_terms_unify_argwise(self):
        left = FunctionTerm("f", (X, Constant(1)))
        right = FunctionTerm("f", (Constant(2), Y))
        subst = unify_terms(left, right)
        assert resolve(X, subst) == Constant(2)
        assert resolve(Y, subst) == Constant(1)

    def test_function_terms_different_functors(self):
        assert unify_terms(FunctionTerm("f", (X,)), FunctionTerm("g", (X,))) is None


class TestUnifyAtoms:
    def test_same_predicate_unifies(self):
        subst = unify_atoms(
            Atom("r", (X, Constant(1))), Atom("r", (Constant(2), Y))
        )
        assert resolve(X, subst) == Constant(2)

    def test_different_predicates_fail(self):
        assert unify_atoms(Atom("r", (X,)), Atom("s", (X,))) is None

    def test_different_arities_fail(self):
        assert unify_atoms(Atom("r", (X,)), Atom("r", (X, Y))) is None

    def test_repeated_variable_constraint(self):
        # r(X, X) cannot unify with r(1, 2).
        assert (
            unify_atoms(Atom("r", (X, X)), Atom("r", (Constant(1), Constant(2))))
            is None
        )

    def test_resolve_atom_applies_fully(self):
        subst = unify_atoms(Atom("r", (X, Y)), Atom("r", (Y, Constant(3))))
        resolved = resolve_atom(Atom("r", (X, Y)), subst)
        assert resolved == Atom("r", (Constant(3), Constant(3)))
