"""Property tests for the datalog engine.

The semi-naive fixpoint must compute exactly the same model as a naive
reference fixpoint on random programs and databases.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.datalog.engine import evaluate_program, evaluate_rule_body
from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, Variable


def naive_fixpoint(program: Program, edb) -> dict:
    """Reference implementation: re-derive everything until stable."""
    database = {pred: set(rows) for pred, rows in edb.items()}
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            derived = set()
            for binding in evaluate_rule_body(rule.body, database):
                row = []
                for arg in rule.head.args:
                    if isinstance(arg, Variable):
                        row.append(binding[arg])
                    else:
                        row.append(arg.value)
                derived.add(tuple(row))
            known = database.setdefault(rule.head.predicate, set())
            fresh = derived - known
            if fresh:
                known.update(fresh)
                changed = True
    return database


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
VARS = (X, Y, Z)


@st.composite
def programs(draw):
    """Small random positive datalog programs over e/2, p/2, q/1."""
    rules = []
    n_rules = draw(st.integers(1, 4))
    for _ in range(n_rules):
        head_pred, head_arity = draw(
            st.sampled_from((("p", 2), ("q", 1)))
        )
        n_body = draw(st.integers(1, 3))
        body = []
        for _ in range(n_body):
            pred, arity = draw(
                st.sampled_from((("e", 2), ("p", 2), ("q", 1)))
            )
            args = tuple(draw(st.sampled_from(VARS)) for _ in range(arity))
            body.append(Atom(pred, args))
        body_vars = {v for atom in body for v in atom.variables()}
        head_args = tuple(
            draw(st.sampled_from(sorted(body_vars, key=lambda v: v.name)))
            for _ in range(head_arity)
        )
        rules.append(Rule(Atom(head_pred, head_args), tuple(body)))
    return Program(tuple(rules))


@st.composite
def databases(draw):
    values = ["a", "b", "c"]
    pairs = st.tuples(st.sampled_from(values), st.sampled_from(values))
    singles = st.tuples(st.sampled_from(values))
    return {
        "e": set(draw(st.lists(pairs, max_size=6))),
        "q": set(draw(st.lists(singles, max_size=3))),
    }


@given(programs(), databases())
@settings(max_examples=80, deadline=None)
def test_seminaive_matches_naive(program, edb):
    fast = evaluate_program(program, edb)
    slow = naive_fixpoint(program, edb)
    for pred in set(fast) | set(slow):
        assert fast.get(pred, set()) == slow.get(pred, set()), pred


@given(programs(), databases())
@settings(max_examples=50, deadline=None)
def test_fixpoint_is_a_model(program, edb):
    """Every rule must be satisfied by the computed database: firing
    any rule body over the fixpoint derives no new facts."""
    database = evaluate_program(program, edb)
    for rule in program.rules:
        for binding in evaluate_rule_body(rule.body, database):
            row = tuple(
                binding[a] if isinstance(a, Variable) else a.value
                for a in rule.head.args
            )
            assert row in database.get(rule.head.predicate, set())


@given(programs(), databases())
@settings(max_examples=50, deadline=None)
def test_monotone_in_edb(program, edb):
    """Datalog is monotone: more input facts, never fewer outputs."""
    smaller = {
        pred: set(itertools.islice(sorted(rows), max(0, len(rows) - 1)))
        for pred, rows in edb.items()
    }
    big = evaluate_program(program, edb)
    small = evaluate_program(program, smaller)
    for pred, rows in small.items():
        assert rows <= big.get(pred, set()), pred
