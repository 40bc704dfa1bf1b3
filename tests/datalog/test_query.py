"""Tests for conjunctive queries."""

import pytest

from repro.errors import DatalogError
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Variable


class TestStructure:
    def test_subgoals_and_len(self):
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        assert len(query) == 2
        assert query.subgoal(0).predicate == "r"

    def test_variables_head_first(self):
        query = parse_query("q(B) :- r(A, B)")
        assert query.variables() == (Variable("B"), Variable("A"))

    def test_predicates_deduplicated(self):
        query = parse_query("q(X) :- r(X, Y), r(Y, X)")
        assert query.predicates() == ("r",)

    def test_empty_body_rejected(self):
        with pytest.raises(DatalogError):
            ConjunctiveQuery(Atom("q", (Variable("X"),)), ())


class TestSafety:
    def test_safe_query(self):
        assert parse_query("q(X) :- r(X)").is_safe()

    def test_unsafe_query_detected(self):
        query = ConjunctiveQuery(
            Atom("q", (Variable("X"), Variable("Z"))),
            (Atom("r", (Variable("X"),)),),
        )
        assert not query.is_safe()
        with pytest.raises(DatalogError):
            query.check_safe()


class TestTransformations:
    def test_rename_apart_changes_all_variables(self):
        query = parse_query("q(X) :- r(X, Y)")
        renamed = query.rename_apart("_s")
        assert renamed.head.args == (Variable("X_s"),)
        assert renamed.subgoal(0).args == (Variable("X_s"), Variable("Y_s"))

    def test_rename_apart_preserves_join_structure(self):
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        renamed = query.rename_apart("_1")
        # Y occurrences stay equal after renaming.
        assert renamed.subgoal(0).args[1] == renamed.subgoal(1).args[0]
