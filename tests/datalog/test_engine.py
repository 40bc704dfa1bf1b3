"""Tests for the bottom-up datalog engine."""

from repro.datalog.engine import answer_query, evaluate_program, evaluate_rule_body
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.terms import FunctionTerm, Variable


class TestBodyEvaluation:
    def test_single_atom_bindings(self):
        body = (parse_atom("e(X, Y)"),)
        db = {"e": {(1, 2), (3, 4)}}
        bindings = list(evaluate_rule_body(body, db))
        assert len(bindings) == 2

    def test_join_across_atoms(self):
        body = (parse_atom("e(X, Y)"), parse_atom("e(Y, Z)"))
        db = {"e": {(1, 2), (2, 3), (3, 4)}}
        results = {
            (b[Variable("X")], b[Variable("Z")])
            for b in evaluate_rule_body(body, db)
        }
        assert results == {(1, 3), (2, 4)}

    def test_constant_filter(self):
        body = (parse_atom("e(1, Y)"),)
        db = {"e": {(1, 2), (3, 4)}}
        results = [b[Variable("Y")] for b in evaluate_rule_body(body, db)]
        assert results == [2]

    def test_arity_mismatch_skipped(self):
        body = (parse_atom("e(X)"),)
        db = {"e": {(1, 2)}}
        assert list(evaluate_rule_body(body, db)) == []


class TestFixpoint:
    def test_nonrecursive_projection(self):
        program = parse_program("p(X) :- e(X, Y)")
        db = evaluate_program(program, {"e": {(1, 2), (3, 4)}})
        assert db["p"] == {(1,), (3,)}

    def test_transitive_closure(self):
        program = parse_program(
            """
            t(X, Y) :- e(X, Y)
            t(X, Z) :- e(X, Y), t(Y, Z)
            """
        )
        db = evaluate_program(program, {"e": {(1, 2), (2, 3), (3, 4)}})
        assert db["t"] == {
            (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
        }

    def test_transitive_closure_on_cycle_terminates(self):
        program = parse_program(
            """
            t(X, Y) :- e(X, Y)
            t(X, Z) :- e(X, Y), t(Y, Z)
            """
        )
        db = evaluate_program(program, {"e": {(1, 2), (2, 1)}})
        assert db["t"] == {(1, 2), (2, 1), (1, 1), (2, 2)}

    def test_derived_facts_feed_other_rules(self):
        program = parse_program(
            """
            p(X) :- e(X)
            q(X) :- p(X)
            """
        )
        db = evaluate_program(program, {"e": {(7,)}})
        assert db["q"] == {(7,)}

    def test_skolem_terms_flow_through(self):
        # Inverse-rule shape: v(X) produces r(X, f(X)).
        program = parse_program("r(X, f_v_Y(X)) :- v(X)")
        db = evaluate_program(program, {"v": {(1,)}})
        (fact,) = db["r"]
        assert fact[0] == 1
        assert isinstance(fact[1], FunctionTerm)


class TestAnswerQuery:
    def test_skolem_answers_dropped(self):
        program = parse_program(
            """
            r(X, f_v_Y(X)) :- v(X)
            q(X, Y) :- r(X, Y)
            """
        )
        answers = answer_query(program, {"v": {(1,)}}, "q")
        assert answers == set()

    def test_skolem_join_recovers_certain_answer(self):
        # v stores pairs (A, B) projected from r1(A, C), r2(C, B); the
        # skolemized C joins consistently so (A, B) is certain.
        program = parse_program(
            """
            r1(A, f_v_C(A, B)) :- v(A, B)
            r2(f_v_C(A, B), B) :- v(A, B)
            q(X, Y) :- r1(X, Z), r2(Z, Y)
            """
        )
        answers = answer_query(program, {"v": {("a", "b")}}, "q")
        assert answers == {("a", "b")}
