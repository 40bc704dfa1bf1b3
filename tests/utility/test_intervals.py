"""Tests for interval arithmetic, including hypothesis properties."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import UtilityError
from repro.utility.intervals import Interval


class TestConstruction:
    def test_point(self):
        point = Interval.point(3.0)
        assert point.lo == point.hi == 3.0
        assert point.is_point

    def test_empty_rejected(self):
        with pytest.raises(UtilityError):
            Interval(2.0, 1.0)

    def test_hull(self):
        hull = Interval.hull([Interval(0, 1), Interval(3, 4), Interval(-1, 0)])
        assert hull == Interval(-1, 4)

    def test_hull_of_nothing_rejected(self):
        with pytest.raises(UtilityError):
            Interval.hull([])


class TestPredicates:
    def test_contains(self):
        assert Interval(1, 3).contains(2)
        assert Interval(1, 3).contains(1)
        assert not Interval(1, 3).contains(3.5)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 3))
        assert not Interval(0, 10).contains_interval(Interval(5, 11))

    def test_overlaps(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert not Interval(0, 1).overlaps(Interval(2, 3))

    def test_dominates(self):
        assert Interval(5, 6).dominates(Interval(1, 5))
        assert not Interval(4, 6).dominates(Interval(1, 5))
        assert Interval(5, 6).strictly_dominates(Interval(1, 4))
        assert not Interval(5, 6).strictly_dominates(Interval(1, 5))

    def test_width(self):
        assert Interval(1, 4).width == 3


class TestArithmetic:
    def test_addition(self):
        assert Interval(1, 2) + Interval(10, 20) == Interval(11, 22)
        assert Interval(1, 2) + 5 == Interval(6, 7)

    def test_negation(self):
        assert -Interval(1, 2) == Interval(-2, -1)

    def test_subtraction(self):
        assert Interval(5, 6) - Interval(1, 2) == Interval(3, 5)

    def test_multiplication_signs(self):
        assert Interval(-2, 3) * Interval(-1, 4) == Interval(-8, 12)
        assert Interval(2, 3) * 2 == Interval(4, 6)

    def test_division(self):
        assert Interval(4, 8) / Interval(2, 4) == Interval(1, 4)

    def test_division_by_zero_interval_rejected(self):
        with pytest.raises(UtilityError):
            Interval(1, 2) / Interval(-1, 1)

    def test_rsub_rdiv(self):
        assert 10 - Interval(1, 2) == Interval(8, 9)
        assert 8 / Interval(2, 4) == Interval(2, 4)

    def test_intersect(self):
        assert Interval(0, 5).intersect(Interval(3, 9)) == Interval(3, 5)

    def test_widen(self):
        assert Interval(1, 2).widen(0.5) == Interval(0.5, 2.5)
        with pytest.raises(UtilityError):
            Interval(1, 2).widen(-1)

    def test_widen_keeps_infinite_bounds(self):
        inf = float("inf")
        assert Interval(inf, inf).widen(inf) == Interval(inf, inf)
        assert Interval(-inf, 3).widen(1) == Interval(-inf, 4)
        assert Interval(0, 1).widen(inf) == Interval(-inf, inf)

    @pytest.mark.parametrize("lo,hi", [("nan", 1), (0, "nan"), ("nan", "nan")])
    def test_nan_bounds_rejected(self, lo, hi):
        with pytest.raises(UtilityError):
            Interval(float(lo), float(hi))


finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_and_member(draw):
    interval = draw(intervals())
    value = draw(st.floats(interval.lo, interval.hi, allow_nan=False))
    return interval, value


class TestProperties:
    """Outward-conservativeness: x op y lands in the result interval."""

    @given(interval_and_member(), interval_and_member())
    @settings(max_examples=150, deadline=None)
    def test_add_contains_members(self, first, second):
        (i1, x), (i2, y) = first, second
        assert (i1 + i2).contains(x + y)

    @given(interval_and_member(), interval_and_member())
    @settings(max_examples=150, deadline=None)
    def test_sub_contains_members(self, first, second):
        (i1, x), (i2, y) = first, second
        assert (i1 - i2).contains(x - y)

    @given(interval_and_member(), interval_and_member())
    @settings(max_examples=150, deadline=None)
    def test_mul_contains_members(self, first, second):
        (i1, x), (i2, y) = first, second
        product = (i1 * i2)
        # Tolerate float rounding at the very edges.
        slack = 1e-6 * max(1.0, abs(product.lo), abs(product.hi))
        assert product.widen(slack).contains(x * y)

    @given(interval_and_member(), interval_and_member())
    # The quotient overflows to inf, and widening [inf, inf] by inf
    # used to compute inf - inf = nan.
    @example(
        (Interval(260851.0, 260851.0), 260851.0),
        (Interval(6.3e-304, 6.3e-304), 6.3e-304),
    )
    @settings(max_examples=150, deadline=None)
    def test_div_contains_members(self, first, second):
        (i1, x), (i2, y) = first, second
        if i2.lo <= 0 <= i2.hi:
            return
        quotient = i1 / i2
        slack = 1e-6 * max(1.0, abs(quotient.lo), abs(quotient.hi))
        assert quotient.widen(slack).contains(x / y)

    @given(intervals())
    @settings(max_examples=100, deadline=None)
    def test_negation_involution(self, interval):
        assert -(-interval) == interval

    @given(intervals(), intervals())
    @settings(max_examples=100, deadline=None)
    def test_hull_contains_both(self, i1, i2):
        hull = Interval.hull([i1, i2])
        assert hull.contains_interval(i1)
        assert hull.contains_interval(i2)
