"""Closed-interval arithmetic.

Drips-family algorithms evaluate *abstract* plans to real-valued
intervals guaranteed to contain the utility of every concrete plan
they represent (paper, Section 5.1).  Evaluating an abstract plan "can
be carried out just like [a concrete one], but with interval rather
than point arithmetic" — this module supplies that arithmetic.

All operations are *outward-conservative*: the result interval contains
``x op y`` for every ``x`` in the first operand and ``y`` in the
second.  No rounding-direction control is attempted; binary-float
arithmetic is more than precise enough for plan ordering, and all
correctness tests compare orderers that share the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UtilityError


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        # Written as ``not <=`` so a NaN bound (every comparison with
        # NaN is false) is rejected by the same single comparison.
        if not self.lo <= self.hi:
            raise UtilityError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def point(value: float) -> "Interval":
        """The degenerate interval containing exactly *value*."""
        return Interval(value, value)

    # -- predicates --------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def dominates(self, other: "Interval") -> bool:
        """Drips dominance test: ``self.lo >= other.hi`` (paper, 5.1).

        When true, *every* value in self is at least every value in
        other, so the plans abstracted by *other* can be discarded.
        """
        return self.lo >= other.hi

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "Interval | float | int") -> "Interval":
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | float | int") -> "Interval":
        other = _coerce(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other: "Interval | float | int") -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other: "Interval | float | int") -> "Interval":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | float | int") -> "Interval":
        other = _coerce(other)
        if other.lo <= 0.0 <= other.hi:
            raise UtilityError(f"division by interval containing zero: {other}")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))

    def __rtruediv__(self, other: "Interval | float | int") -> "Interval":
        return _coerce(other) / self

    def __str__(self) -> str:
        if self.is_point:
            return f"[{self.lo:g}]"
        return f"[{self.lo:g}, {self.hi:g}]"


def _coerce(value: "Interval | float | int") -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(float(value))
