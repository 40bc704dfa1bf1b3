"""Tests for query/plan execution."""

import pytest

from repro.datalog.parser import parse_atom, parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.errors import ExecutionError
from repro.execution.engine import evaluate_conjunctive_query, execute_plan
from repro.reformulation.buckets import build_buckets
from repro.reformulation.plans import QueryPlan


class TestEvaluateQuery:
    def test_projection(self):
        query = parse_query("q(X) :- e(X, Y)")
        db = {"e": {(1, 2), (3, 4)}}
        assert evaluate_conjunctive_query(query, db) == {(1,), (3,)}

    def test_join(self):
        query = parse_query("q(X, Z) :- e(X, Y), e(Y, Z)")
        db = {"e": {(1, 2), (2, 3)}}
        assert evaluate_conjunctive_query(query, db) == {(1, 3)}

    def test_selection_with_constant(self):
        query = parse_query('q(Y) :- e("a", Y)')
        db = {"e": {("a", 1), ("b", 2)}}
        assert evaluate_conjunctive_query(query, db) == {(1,)}

    def test_constant_in_head(self):
        query = parse_query('q(X, "tag") :- e(X, Y)')
        db = {"e": {(1, 2)}}
        assert evaluate_conjunctive_query(query, db) == {(1, "tag")}

    def test_empty_relation(self):
        query = parse_query("q(X) :- e(X, Y)")
        assert evaluate_conjunctive_query(query, {}) == set()

    @pytest.mark.parametrize(
        "database",
        [{}, {"e": set()}, {"e": {(3, 4)}}, {"e": {(1, 2), (3, 4)}}],
        ids=["no relation", "empty relation", "no match", "a match"],
    )
    def test_unsafe_head_variable_fails_whatever_the_data(self, database):
        """Decided when the query is compiled: no fact is read first."""
        unsafe = ConjunctiveQuery(parse_atom("q(X, W)"), (parse_atom("e(X, 2)"),))
        with pytest.raises(ExecutionError) as raised:
            evaluate_conjunctive_query(unsafe, database)
        assert str(raised.value) == f"unbound head variable W in {unsafe}"


class TestExecutePlan:
    def test_sound_plan_executes(self, movies):
        space = build_buckets(movies.query, movies.catalog)
        v1 = movies.catalog.source("v1")
        v5 = movies.catalog.source("v5")
        result = execute_plan(
            movies.query, QueryPlan((v1, v5)), movies.source_facts
        )
        assert result == {
            ("star_wars", "a_space_opera_classic"),
            ("witness", "amish_thriller_that_works"),
        }

    def test_unsound_plan_returns_none(self):
        from repro.sources.catalog import Catalog

        catalog = Catalog({"r": 2, "s": 2})
        catalog.add_source("w(X, Y) :- r(X, Y)")
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        w = catalog.source("w")
        assert execute_plan(query, QueryPlan((w, w)), {"w": {(1, 2)}}) is None

    def test_selection_pushed_into_source_access(self, movies):
        """Only Ford rows survive even though v3 holds other actors."""
        v3 = movies.catalog.source("v3")
        v6 = movies.catalog.source("v6")
        result = execute_plan(
            movies.query, QueryPlan((v3, v6)), movies.source_facts
        )
        assert result == {
            ("blade_runner", "noir_masterpiece"),
            ("frantic", "tense_paris_mystery"),
        }
