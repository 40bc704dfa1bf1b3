"""Tests for datalog rules and programs."""

import pytest

from repro.errors import DatalogError
from repro.datalog.parser import parse_rule
from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, FunctionTerm, Variable


class TestRule:
    def test_safe_rule(self):
        assert parse_rule("q(X) :- r(X, Y)").is_safe()

    def test_unsafe_rule(self):
        rule = Rule(
            Atom("q", (Variable("Z"),)), (Atom("r", (Variable("X"),)),)
        )
        assert not rule.is_safe()

    def test_skolem_head_safety_counts_inner_variables(self):
        skolem = FunctionTerm("f", (Variable("X"),))
        rule = Rule(Atom("p", (skolem,)), (Atom("v", (Variable("X"),)),))
        assert rule.is_safe()

    def test_program_rejects_unsafe_rules(self):
        bad = Rule(Atom("q", (Variable("Z"),)), (Atom("r", (Variable("X"),)),))
        with pytest.raises(DatalogError):
            Program((bad,))
