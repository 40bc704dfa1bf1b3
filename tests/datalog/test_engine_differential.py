"""The compiled join kernel against the interpretive engine it replaced.

``tests/datalog/reference_engine.py`` is the old engine, verbatim.  The
kernel must give the same bindings *in the same order* (result sets are
filled in that order, and seeded scenario sampling iterates them), the
same query answers and the same program fixpoints.
"""

import itertools

import pytest

from repro.datalog.engine import evaluate_program, evaluate_rule, evaluate_rule_body
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, Constant, FunctionTerm, Variable
from repro.errors import ReformulationError
from repro.execution.engine import evaluate_conjunctive_query
from repro.reformulation.buckets import build_buckets
from repro.reformulation.inverse_rules import inverse_rules_program
from repro.reformulation.soundness import plan_query
from repro.workloads.random_lav import random_scenario
from tests.datalog import reference_engine as reference

SEEDS = range(40)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def skolem(functor, *values):
    """A ground Skolem term as the engine builds them."""
    return FunctionTerm(functor, tuple(Constant(v) for v in values))


def pattern(functor, *args):
    return FunctionTerm(functor, tuple(args))


def atoms(*texts):
    return tuple(parse_atom(text) for text in texts)


#: Values that are falsy, equal across types, or None: a kernel that
#: tested slots by truth, or ``is``, would confuse them.
ODD = {(None, 0), (0, False), (False, ""), ("", None), (0, 0), (None, None), (1, True)}

NESTED = {
    (skolem("f", 1, 2), 1),
    (skolem("f", 2, 2), 2),
    (skolem("f", 3), 3),
    (skolem("g", 1, 2), 1),
    (FunctionTerm("f", (skolem("g", 1), Constant(1))), 1),
    (FunctionTerm("f", (skolem("g", 2), Constant(1))), 2),
    ("f(1, 2)", 1),
    (None, None),
}

#: ``(body, database)``: every argument shape the matcher knows.
BODIES = {
    "cross product": (atoms("a(X)", "b(Y)"), {"a": {(1,), (2,)}, "b": {(3,), (4,)}}),
    "chain join": (
        atoms("e(X, Y)", "e(Y, Z)", "e(Z, X)"),
        {"e": {(1, 2), (2, 3), (3, 1), (2, 2), (3, 4)}},
    ),
    "constants in the body": (
        atoms('e("a", Y)', "e(Y, 3)"),
        {"e": {("a", 1), ("a", "a"), (1, 3), ("a", 3), ("b", 3)}},
    ),
    "variable repeated inside an atom": (
        atoms("e(X, X)", "e(X, Y)"),
        {"e": {(1, 1), (1, 2), (2, 3), (3, 3)}},
    ),
    "repeat of a variable bound by an earlier atom": (
        atoms("a(X)", "e(X, X)"),
        {"a": {(1,), (2,), (3,)}, "e": {(1, 1), (2, 3), (3, 3)}},
    ),
    "facts of the wrong arity": (
        atoms("e(X, Y)", "a(Y)"),
        {"e": {(1, 2), (1,), (1, 2, 3), ()}, "a": {(2,), (2, 2), ()}},
    ),
    "empty predicate": (atoms("a(X)", "b(X)"), {"a": {(1,)}, "b": set()}),
    "missing predicate": (atoms("a(X)", "nowhere(X)"), {"a": {(1,)}}),
    "None, 0, False and the empty string": (
        atoms("o(X, Y)", "o(Y, Z)"),
        {"o": ODD},
    ),
    "odd values against constants": (
        (Atom("o", (Constant(0), X)), Atom("o", (X, Constant(None)))),
        {"o": ODD},
    ),
    "function-term pattern": (
        (Atom("s", (pattern("f", X, Y), Z)),),
        {"s": NESTED},
    ),
    "pattern variable bound before, inside and after": (
        (
            Atom("a", (X,)),
            Atom("s", (pattern("f", X, Y), Y)),
            Atom("s", (pattern("f", Y, Z), Z)),
        ),
        {"a": {(1,), (2,), (3,)}, "s": NESTED},
    ),
    "variable bound in a pattern, tested at top level": (
        (Atom("s", (pattern("f", X, X), X)),),
        {"s": NESTED},
    ),
    "top-level variable tested inside a later pattern": (
        (Atom("t", (X, pattern("f", X, Constant(2)))),),
        {"t": {(1, skolem("f", 1, 2)), (2, skolem("f", 1, 2)), (True, skolem("f", 1, 2))}},
    ),
    "nested pattern with a constant": (
        (Atom("s", (pattern("f", pattern("g", X), Constant(1)), Y)),),
        {"s": NESTED},
    ),
}


def sound_plan_queries(scenario, limit=200):
    """The executable query of every sound plan (of the first *limit*)."""
    try:
        space = build_buckets(scenario.query, scenario.catalog)
    except ReformulationError:  # some subgoal has no covering source
        return []
    plans = itertools.islice(space.plans(), limit)
    queries = (plan_query(scenario.query, plan) for plan in plans)
    return [query for query in queries if query is not None]


def bindings(body, database, delta=None):
    return list(evaluate_rule_body(body, database, delta))


def reference_bindings(body, database, delta=None):
    return list(reference.evaluate_rule_body(body, database, delta))


@pytest.mark.parametrize("name", BODIES)
def test_hand_built_bodies_bind_the_same_in_the_same_order(name):
    body, database = BODIES[name]
    expected = reference_bindings(body, database)
    assert bindings(body, database) == expected
    # Each binding is the caller's own dict, not a view of shared state.
    got = bindings(body, database)
    assert len({id(b) for b in got}) == len(got)


def test_hand_built_bodies_are_not_vacuous():
    matched = [name for name, (b, db) in BODIES.items() if reference_bindings(b, db)]
    assert len(matched) >= len(BODIES) - 2  # all but the empty/missing predicate


def test_bound_value_is_the_first_occurrence():
    """``1 == True``: which of two equal values a variable keeps is
    decided by argument order, as in the oracle."""
    body = (Atom("t", (pattern("f", X, Y), X)),)
    database = {"t": {(skolem("f", True, 2), 1)}}
    (got,) = bindings(body, database)
    (expected,) = reference_bindings(body, database)
    assert got[X] is expected[X] is True


@pytest.mark.parametrize("name", BODIES)
def test_semi_naive_restriction_matches(name):
    body, database = BODIES[name]
    for keep in (0, 1, 2):
        # A deterministic slice of each relation plays the new facts.
        delta = {
            pred: {row for i, row in enumerate(sorted(rows, key=repr)) if i % 3 == keep}
            for pred, rows in database.items()
        }
        assert bindings(body, database, delta) == reference_bindings(body, database, delta)


def test_empty_body_has_one_empty_solution():
    assert bindings((), {}) == reference_bindings((), {}) == [{}]
    fact = Rule(parse_atom("p(1, 2)"), ())
    assert evaluate_rule(fact, {}) == reference._fire_rule(fact, {}, None) == {(1, 2)}


@pytest.mark.parametrize("seed", SEEDS)
def test_random_lav_bodies_views_and_plans(seed):
    scenario = random_scenario(seed)
    sources = scenario.catalog.sources
    for query, database in [(scenario.query, scenario.schema_facts)] + [
        (source.view, scenario.schema_facts) for source in sources
    ]:
        assert bindings(query.body, database) == reference_bindings(query.body, database)
        got = evaluate_conjunctive_query(query, database)
        assert got == reference.evaluate_conjunctive_query(query, database)
        # Same rows in the same insertion order: the sets iterate alike.
        assert list(got) == list(reference.evaluate_conjunctive_query(query, database))
    for executable in sound_plan_queries(scenario):
        assert evaluate_conjunctive_query(
            executable, scenario.source_facts
        ) == reference.evaluate_conjunctive_query(executable, scenario.source_facts)


def test_the_scenarios_have_sound_plans_with_answers():
    plans = answered = 0
    for seed in SEEDS:
        scenario = random_scenario(seed)
        for executable in sound_plan_queries(scenario):
            plans += 1
            answered += bool(
                evaluate_conjunctive_query(executable, scenario.source_facts)
            )
    assert plans >= 50 and answered >= 20


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_rule_programs_reach_the_same_fixpoint(seed):
    scenario = random_scenario(seed)
    program = inverse_rules_program(scenario.catalog, scenario.query)
    edb = scenario.source_facts
    assert evaluate_program(program, edb) == reference.evaluate_program(program, edb)


def test_recursive_program_with_constants_and_skolem_heads():
    program = Program(
        parse_program(
            """
            t(X, Y) :- e(X, Y)
            t(X, Z) :- t(X, Y), e(Y, Z)
            r(X, "seen") :- t(1, X)
            """
        ).rules
        + (Rule(Atom("w", (X, pattern("sk", X, Constant("c")))), atoms("t(X, X)")),)
    )
    edb = {"e": {(1, 2), (2, 3), (3, 1), (3, 4)}}
    got = evaluate_program(program, edb)
    assert got == reference.evaluate_program(program, edb)
    assert (4, "seen") in got["r"] and (1, skolem("sk", 1, "c")) in got["w"]


class CountingSet(set):
    """A set that counts how often a difference is taken from it."""

    differences = 0

    def __sub__(self, other):
        CountingSet.differences += 1
        return set(self) - other


def test_old_facts_are_subtracted_once_per_atom_not_per_outer_binding():
    body = atoms("e(X, Y)", "e(Y, Z)", "e(Z, W)")
    rows = {(i, (i + 1) % 6) for i in range(6)}
    database = {"e": CountingSet(rows)}
    delta = {"e": {(0, 1), (3, 4)}}
    expected = reference_bindings(body, {"e": set(rows)}, delta)

    CountingSet.differences = 0
    assert bindings(body, database, delta) == expected
    # Positions 1 and 2 need the old facts of atoms 0 and 0-1: two
    # differences, shared between the positions.
    assert CountingSet.differences == 2

    CountingSet.differences = 0
    assert reference_bindings(body, database, delta) == expected
    assert CountingSet.differences > 2  # what the oracle pays: one per outer binding

    # A delta without facts for the body costs no difference at all.
    CountingSet.differences = 0
    assert bindings(body, database, {"other": {(1,)}}) == []
    assert CountingSet.differences == 0
