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


class TestPredicates:
    def test_contains(self):
        assert Interval(1, 3).contains(2)
        assert Interval(1, 3).contains(1)
        assert not Interval(1, 3).contains(3.5)

    def test_dominates(self):
        assert Interval(5, 6).dominates(Interval(1, 5))
        assert not Interval(4, 6).dominates(Interval(1, 5))

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


def holds_up_to_rounding(interval, value):
    """Is *value* in *interval*, tolerating float rounding at its edges?"""
    if interval.contains(value):
        return True  # also the overflow case, where inf - inf would be nan
    slack = 1e-6 * max(1.0, abs(interval.lo), abs(interval.hi))
    return interval.lo - slack <= value <= interval.hi + slack


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
        assert holds_up_to_rounding(i1 * i2, x * y)

    @given(interval_and_member(), interval_and_member())
    # The quotient overflows to [inf, inf].
    @example(
        (Interval(260851.0, 260851.0), 260851.0),
        (Interval(6.3e-304, 6.3e-304), 6.3e-304),
    )
    @settings(max_examples=150, deadline=None)
    def test_div_contains_members(self, first, second):
        (i1, x), (i2, y) = first, second
        if i2.lo <= 0 <= i2.hi:
            return
        assert holds_up_to_rounding(i1 / i2, x / y)

    @given(intervals())
    @settings(max_examples=100, deadline=None)
    def test_negation_involution(self, interval):
        assert -(-interval) == interval
