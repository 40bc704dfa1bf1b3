"""Containment edge cases: repeated head variables, constants, self-joins.

These shapes are exactly where a naive equivalence test goes wrong —
and where the redundant-view lint rule (SCN005) must not false-positive.
"""

from repro.datalog.containment import (
    find_containment_mapping,
    is_contained,
)
from repro.datalog.parser import parse_query


class TestRepeatedHeadVariables:
    def test_diagonal_is_contained_in_general_query(self):
        diagonal = parse_query("q(X, X) :- r(X, X)")
        general = parse_query("q(X, Y) :- r(X, Y)")
        assert is_contained(diagonal, general)

    def test_general_query_not_contained_in_diagonal(self):
        diagonal = parse_query("q(X, X) :- r(X, X)")
        general = parse_query("q(X, Y) :- r(X, Y)")
        assert not is_contained(general, diagonal)

    def test_mapping_must_respect_repeated_positions(self):
        # The head (X, X) forces both columns through one variable; a
        # mapping from the general query must bind X and Y to the same
        # term, which r(X, Y) alone cannot justify.
        diagonal = parse_query("q(X, X) :- r(X, X)")
        general = parse_query("q(X, Y) :- r(X, Y)")
        assert find_containment_mapping(general, diagonal) is not None
        assert find_containment_mapping(diagonal, general) is None


class TestConstantsInBodies:
    def test_selection_is_contained_in_projection(self):
        selected = parse_query("q(X) :- r(X, c)")
        projected = parse_query("q(X) :- r(X, Y)")
        assert is_contained(selected, projected)
        assert not is_contained(projected, selected)

    def test_different_constants_are_incomparable(self):
        first = parse_query("q(X) :- r(X, c)")
        second = parse_query("q(X) :- r(X, d)")
        assert not is_contained(first, second)
        assert not is_contained(second, first)

    def test_same_constant_same_shape_is_equivalent(self):
        first = parse_query("q(X) :- r(X, c)")
        second = parse_query("q(A) :- r(A, c)")
        assert is_contained(first, second) and is_contained(second, first)

    def test_constant_in_head_position(self):
        pinned = parse_query("q(c, Y) :- r(c, Y)")
        general = parse_query("q(X, Y) :- r(X, Y)")
        assert is_contained(pinned, general)
        assert not is_contained(general, pinned)


class TestSelfJoins:
    def test_two_hop_and_one_hop_are_incomparable(self):
        one_hop = parse_query("q(X, Y) :- r(X, Y)")
        two_hop = parse_query("q(X, Y) :- r(X, Z), r(Z, Y)")
        assert not is_contained(one_hop, two_hop)
        assert not is_contained(two_hop, one_hop)

    def test_redundant_self_join_minimizes_away(self):
        redundant = parse_query("q(X) :- r(X, Y), r(X, Z)")
        minimal = parse_query("q(X) :- r(X, Y)")
        assert is_contained(redundant, minimal) and is_contained(minimal, redundant)

    def test_renamed_self_joins_are_equivalent(self):
        first = parse_query("q(X, Y) :- r(X, Z), r(Z, Y)")
        second = parse_query("q(A, B) :- r(A, M), r(M, B)")
        assert is_contained(first, second) and is_contained(second, first)

    def test_triangle_is_contained_in_path(self):
        # The triangle's closing edge only adds constraints.
        triangle = parse_query("q(X, Y) :- r(X, Z), r(Z, Y), r(X, Y)")
        path = parse_query("q(X, Y) :- r(X, Z), r(Z, Y)")
        assert is_contained(triangle, path)
        assert not is_contained(path, triangle)

    def test_self_join_collapsing_onto_a_loop(self):
        # A two-hop path maps onto a single reflexive edge: Z -> X = Y.
        path = parse_query("q(X, X) :- r(X, X)")
        two_hop = parse_query("q(X, Y) :- r(X, Z), r(Z, Y)")
        assert is_contained(path, two_hop)
