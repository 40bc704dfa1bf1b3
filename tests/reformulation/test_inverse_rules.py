"""Tests for the inverse-rules reformulation."""

from repro.datalog.parser import parse_query
from repro.datalog.terms import FunctionTerm
from repro.reformulation.inverse_rules import (
    answer_with_inverse_rules,
    inverse_rules,
    inverse_rules_program,
)
from repro.sources.catalog import Catalog


class TestRuleGeneration:
    def test_one_rule_per_body_atom(self, movies):
        v1 = movies.catalog.source("v1")
        rules = inverse_rules(v1)
        assert [r.head.predicate for r in rules] == ["play_in", "american"]
        assert all(r.body[0].predicate == "v1" for r in rules)

    def test_head_variables_pass_through(self, movies):
        v3 = movies.catalog.source("v3")
        (rule,) = inverse_rules(v3)
        assert rule.head.args == rule.body[0].args

    def test_existential_variables_skolemized(self):
        catalog = Catalog({"r": 2})
        source = catalog.add_source("w(X) :- r(X, Y)")
        (rule,) = inverse_rules(source)
        skolem = rule.head.args[1]
        assert isinstance(skolem, FunctionTerm)
        assert skolem.functor == "f_w_Y"

    def test_program_includes_query_rule(self, movies):
        program = inverse_rules_program(movies.catalog, movies.query)
        assert program.rules[-1].head == movies.query.head


class TestCertainAnswers:
    def test_movie_domain_certain_answers(self, movies):
        answers = answer_with_inverse_rules(
            movies.catalog, movies.query, movies.source_facts
        )
        assert ("star_wars", "a_space_opera_classic") in answers
        assert all(len(row) == 2 for row in answers)

    def test_skolem_join_produces_certain_answer(self):
        """A source projecting away the join variable still yields
        certain answers when it covers both subgoals itself."""
        catalog = Catalog({"r": 2, "s": 2})
        catalog.add_source("w(X, Y) :- r(X, Z), s(Z, Y)")
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        answers = answer_with_inverse_rules(
            catalog, query, {"w": {("a", "b")}}
        )
        assert answers == {("a", "b")}

    def test_unjoinable_skolems_do_not_leak(self):
        """Skolems from different sources never join."""
        catalog = Catalog({"r": 2, "s": 2})
        catalog.add_source("w1(X) :- r(X, Z)")
        catalog.add_source("w2(Y) :- s(Z, Y)")
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        answers = answer_with_inverse_rules(
            catalog, query, {"w1": {("a",)}, "w2": {("b",)}}
        )
        assert answers == set()

    def test_matches_union_of_sound_plans(self, movies):
        """Inverse rules compute exactly the union over sound plans."""
        from repro.execution.engine import execute_plan
        from repro.reformulation.buckets import build_buckets

        space = build_buckets(movies.query, movies.catalog)
        union: set = set()
        for plan in space.plans():
            result = execute_plan(movies.query, plan, movies.source_facts)
            if result is not None:
                union |= result
        certain = answer_with_inverse_rules(
            movies.catalog, movies.query, movies.source_facts
        )
        assert union == certain
