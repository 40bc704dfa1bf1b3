"""Tests for box arithmetic and the disjoint-box union."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UtilityError
from repro.utility.boxes import (
    Box,
    DisjointBoxUnion,
    box_is_empty,
    box_size,
    box_subtract,
    boxes_disjoint,
    enumerate_box,
)


class TestBoxBasics:
    def test_box_size(self):
        assert box_size((0b111, 0b11)) == 6
        assert box_size((0b111, 0)) == 0

    def test_box_is_empty(self):
        assert box_is_empty((0b1, 0))
        assert not box_is_empty((0b1, 0b1))

    def test_disjoint_needs_one_empty_dimension(self):
        assert boxes_disjoint((0b1, 0b1), (0b10, 0b1))
        assert not boxes_disjoint((0b11, 0b1), (0b10, 0b1))

    def test_enumerate_box(self):
        assert set(enumerate_box((0b101, 0b10))) == {(0, 1), (2, 1)}


class TestSubtract:
    def test_disjoint_subtract_returns_original(self):
        box = (0b1, 0b1)
        assert box_subtract(box, (0b10, 0b1)) == [box]

    def test_a_box_missed_in_a_later_dimension_stays_whole(self):
        # Splitting it would give the same tuples in more pieces, and
        # every coverage evaluation scans every piece of the union.
        box = (0b11, 0b1)
        assert box_subtract(box, (0b01, 0b10)) == [box]

    def test_full_subtract_returns_nothing(self):
        assert box_subtract((0b1, 0b1), (0b11, 0b11)) == []

    def test_fragments_are_disjoint_and_cover(self):
        box = (0b111, 0b11)
        other = (0b010, 0b01)
        fragments = box_subtract(box, other)
        tuples = [set(enumerate_box(f)) for f in fragments]
        # Pairwise disjoint...
        for i in range(len(tuples)):
            for j in range(i + 1, len(tuples)):
                assert not tuples[i] & tuples[j]
        # ... and together exactly box \ other.
        expected = set(enumerate_box(box)) - set(enumerate_box(other))
        assert set().union(*tuples) == expected


class TestDisjointBoxUnion:
    def test_empty_union(self):
        union = DisjointBoxUnion(2)
        assert union.size == 0
        assert union.covered_within((0b11, 0b11)) == 0
        assert union.residual((0b11, 0b11)) == 4

    def test_add_counts_new_tuples(self):
        union = DisjointBoxUnion(2)
        assert union.add((0b11, 0b1)) == 2
        assert union.add((0b01, 0b11)) == 1  # one tuple already covered
        assert union.size == 3

    def test_add_empty_box_is_noop(self):
        union = DisjointBoxUnion(1)
        assert union.add((0,)) == 0
        assert len(union) == 0

    def test_residual_after_adds(self):
        union = DisjointBoxUnion(2)
        union.add((0b11, 0b01))
        assert union.residual((0b11, 0b11)) == 2

    def test_covered_within_pair_matches_separate_queries(self):
        union = DisjointBoxUnion(2)
        union.add((0b011, 0b01))
        union.add((0b110, 0b11))
        inner = (0b010, 0b01)
        outer = (0b111, 0b11)
        pair = union.covered_within_pair(inner, outer)
        assert pair == (
            union.covered_within(inner),
            union.covered_within(outer),
        )

    def test_dimension_check(self):
        union = DisjointBoxUnion(2)
        with pytest.raises(UtilityError):
            union.add((0b1,))
        with pytest.raises(UtilityError):
            union.covered_within((0b1,))


# -- hypothesis: union behaves exactly like a set of tuples -------------------

small_mask = st.integers(0, 0b11111)


@st.composite
def boxes_2d(draw) -> Box:
    return (draw(small_mask), draw(small_mask))


@given(st.lists(boxes_2d(), min_size=1, max_size=8), boxes_2d())
@settings(max_examples=120, deadline=None)
def test_union_matches_bruteforce_sets(added, probe):
    union = DisjointBoxUnion(2)
    reference: set = set()
    for box in added:
        expected_new = len(set(enumerate_box(box)) - reference)
        assert union.add(box) == expected_new
        reference |= set(enumerate_box(box))
        assert union.size == len(reference)
    probe_tuples = set(enumerate_box(probe))
    assert union.covered_within(probe) == len(probe_tuples & reference)
    assert union.residual(probe) == len(probe_tuples - reference)


@given(st.lists(boxes_2d(), min_size=1, max_size=8))
@settings(max_examples=120, deadline=None)
def test_union_pieces_stay_disjoint(added):
    union = DisjointBoxUnion(2)
    for box in added:
        union.add(box)
    pieces = list(union)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert boxes_disjoint(pieces[i], pieces[j])


@given(boxes_2d(), boxes_2d())
@settings(max_examples=120, deadline=None)
def test_subtract_matches_set_semantics(box, other):
    fragments = box_subtract(box, other)
    got = set()
    for fragment in fragments:
        tuples = set(enumerate_box(fragment))
        assert not tuples & got, "fragments overlap"
        got |= tuples
    assert got == set(enumerate_box(box)) - set(enumerate_box(other))
