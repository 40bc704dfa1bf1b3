"""Tests for terms, atoms and substitutions."""

from repro.datalog.terms import (
    Atom,
    Constant,
    FunctionTerm,
    Variable,
    substitute_term,
    term_variables,
)


class TestVariablesAndConstants:
    def test_variable_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_variable_hashable(self):
        assert len({Variable("X"), Variable("X"), Variable("Y")}) == 2

    def test_constant_equality_by_value(self):
        assert Constant("ford") == Constant("ford")
        assert Constant(1) != Constant(2)

    def test_constant_str_quotes_strings(self):
        assert str(Constant("ford")) == '"ford"'
        assert str(Constant(42)) == "42"

    def test_variable_str(self):
        assert str(Variable("Movie")) == "Movie"


class TestFunctionTerms:
    def test_function_term_str(self):
        term = FunctionTerm("f_v1_M", (Variable("A"), Constant(1)))
        assert str(term) == "f_v1_M(A, 1)"

    def test_term_variables_recurses(self):
        term = FunctionTerm("f", (Variable("X"), FunctionTerm("g", (Variable("Y"),))))
        assert set(term_variables(term)) == {Variable("X"), Variable("Y")}


class TestSubstitution:
    def test_substitute_variable(self):
        assert substitute_term(Variable("X"), {Variable("X"): Constant(3)}) == Constant(3)

    def test_substitute_unmapped_variable_untouched(self):
        assert substitute_term(Variable("X"), {}) == Variable("X")

    def test_substitute_inside_function_term(self):
        term = FunctionTerm("f", (Variable("X"),))
        result = substitute_term(term, {Variable("X"): Constant("a")})
        assert result == FunctionTerm("f", (Constant("a"),))


class TestAtoms:
    def test_atom_arity(self):
        atom = Atom("play_in", (Variable("A"), Variable("M")))
        assert atom.arity == 2

    def test_atom_variables_in_order_without_duplicates(self):
        atom = Atom("r", (Variable("X"), Variable("Y"), Variable("X")))
        assert atom.variables() == (Variable("X"), Variable("Y"))

    def test_atom_substitute(self):
        atom = Atom("r", (Variable("X"), Variable("Y")))
        result = atom.substitute({Variable("X"): Constant(1)})
        assert result == Atom("r", (Constant(1), Variable("Y")))

    def test_atom_str(self):
        atom = Atom("play_in", (Constant("ford"), Variable("M")))
        assert str(atom) == 'play_in("ford", M)'

    def test_atom_equality_and_hash(self):
        a = Atom("r", (Variable("X"),))
        b = Atom("r", (Variable("X"),))
        assert a == b
        assert hash(a) == hash(b)
