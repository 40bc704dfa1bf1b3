"""Tests for conjunctive-query containment."""

from hypothesis import given, settings, strategies as st

from repro.datalog import containment
from repro.datalog.containment import (
    find_containment_mapping,
    is_contained,
)
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Variable


def test_the_most_constrained_subgoal_is_matched_first(monkeypatch):
    # s(Y) has one target and r(X, Y) three.  Binding Y through s first
    # leaves one r to match; body order would retry s under every r.
    steps = []
    extend = containment._extend
    monkeypatch.setattr(
        containment, "_extend", lambda *args: steps.append(args) or extend(*args)
    )
    outer = parse_query("q(X) :- r(X, Y), s(Y)")
    inner = parse_query("q(a) :- r(a, 1), r(a, 2), r(a, 3), s(3)")
    assert is_contained(inner, outer)
    assert len(steps) == 5  # the head, s, then r against its three targets


class TestBasicContainment:
    def test_reflexive(self):
        q = parse_query("q(X) :- r(X, Y), s(Y)")
        assert is_contained(q, q)

    def test_more_constrained_is_contained(self):
        general = parse_query("q(X) :- r(X, Y)")
        specific = parse_query("q(X) :- r(X, Y), s(Y)")
        assert is_contained(specific, general)
        assert not is_contained(general, specific)

    def test_constant_specialization(self):
        general = parse_query("q(M, R) :- play_in(A, M), review_of(R, M)")
        specific = parse_query('q(M, R) :- play_in("ford", M), review_of(R, M)')
        assert is_contained(specific, general)
        assert not is_contained(general, specific)

    def test_join_pattern_matters(self):
        chain = parse_query("q(X, Z) :- r(X, Y), r(Y, Z)")
        cross = parse_query("q(X, Z) :- r(X, U), r(V, Z)")
        # The chain is more constrained: chain ⊆ cross but not vice versa.
        assert is_contained(chain, cross)
        assert not is_contained(cross, chain)

    def test_head_must_map(self):
        q1 = parse_query("q(X) :- r(X, Y)")
        q2 = parse_query("q(Y) :- r(X, Y)")
        # Different output columns of the same relation.
        assert not is_contained(q1, q2)
        assert not is_contained(q2, q1)

    def test_different_arity_heads(self):
        q1 = parse_query("q(X) :- r(X, Y)")
        q2 = parse_query("q(X, Y) :- r(X, Y)")
        assert not is_contained(q1, q2)

    def test_missing_predicate(self):
        q1 = parse_query("q(X) :- r(X)")
        q2 = parse_query("q(X) :- s(X)")
        assert not is_contained(q1, q2)


class TestEquivalence:
    def test_duplicate_atom_equivalence(self):
        q1 = parse_query("q(X) :- r(X, Y)")
        q2 = parse_query("q(X) :- r(X, Y), r(X, Z)")
        # The duplicated atom is redundant: the queries are equivalent.
        assert is_contained(q1, q2) and is_contained(q2, q1)

    def test_renamed_variables_equivalent(self):
        q1 = parse_query("q(X) :- r(X, Y), s(Y)")
        q2 = parse_query("q(A) :- r(A, B), s(B)")
        assert is_contained(q1, q2) and is_contained(q2, q1)


class TestMapping:
    def test_mapping_witnesses_containment(self):
        outer = parse_query("q(X) :- r(X, Y)")
        inner = parse_query("q(X) :- r(X, Y), s(Y)")
        mapping = find_containment_mapping(outer, inner)
        assert mapping is not None
        # The mapping sends outer's head variable to inner's.
        assert mapping[Variable("X")] == Variable("X")

    def test_no_mapping_when_not_contained(self):
        outer = parse_query("q(X) :- r(X, Y), s(Y)")
        inner = parse_query("q(X) :- r(X, Y)")
        assert find_containment_mapping(outer, inner) is None


class TestExpansionScenario:
    """The containment checks that plan soundness relies on."""

    def test_movie_plan_expansion_is_contained(self):
        query = parse_query('q(M, R) :- play_in("ford", M), review_of(R, M)')
        expansion = parse_query(
            'q(M, R) :- play_in("ford", M), american(M), review_of(R, M)'
        )
        assert is_contained(expansion, query)

    def test_wrong_join_not_contained(self):
        query = parse_query('q(M, R) :- play_in("ford", M), review_of(R, M)')
        broken = parse_query(
            'q(M, R) :- play_in("ford", M), review_of(R, M2), r_pad(M, M2)'
        )
        assert not is_contained(query, broken)


@st.composite
def random_query(draw):
    """Small random conjunctive queries over a fixed vocabulary."""
    variables = [Variable(name) for name in "XYZUV"]
    n_atoms = draw(st.integers(1, 4))
    body = []
    for _ in range(n_atoms):
        pred = draw(st.sampled_from(["r", "s"]))
        args = tuple(draw(st.sampled_from(variables)) for _ in range(2))
        body.append(Atom(pred, args))
    body_vars = [v for atom in body for v in atom.variables()]
    head = Atom("q", (draw(st.sampled_from(body_vars)),))
    return ConjunctiveQuery(head, tuple(body))


@given(random_query())
@settings(max_examples=60, deadline=None)
def test_containment_is_reflexive(query):
    assert is_contained(query, query)


@given(random_query(), random_query(), random_query())
@settings(max_examples=60, deadline=None)
def test_containment_is_transitive(q1, q2, q3):
    if is_contained(q1, q2) and is_contained(q2, q3):
        assert is_contained(q1, q3)


@given(random_query())
@settings(max_examples=60, deadline=None)
def test_adding_atoms_restricts(query):
    extended = ConjunctiveQuery(
        query.head, query.body + (query.body[0],)
    )
    assert is_contained(extended, query)
    assert is_contained(query, extended)  # duplicate atom adds nothing
