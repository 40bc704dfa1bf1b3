"""Utility measures and their supporting arithmetic.

The paper evaluates four utility measures for which full monotonicity
does not hold (Section 6), plus the fully monotonic linear cost used to
motivate Greedy (Section 3).  All measures implement the
:class:`~repro.utility.base.UtilityMeasure` interface, which exposes

* point evaluation of concrete plans given an execution context,
* sound interval evaluation of abstract plans (for Drips-family
  algorithms),
* the structural properties the ordering algorithms key off of
  (full monotonicity, diminishing returns, context freeness), and
* sound plan-independence oracles.
"""

from repro.utility.base import UtilityMeasure
from repro.utility.cost import BindJoinCost, LinearCost
from repro.utility.coverage import CoverageUtility
from repro.utility.intervals import Interval
from repro.utility.monetary import MonetaryCostPerTuple

__all__ = [
    "BindJoinCost",
    "CoverageUtility",
    "Interval",
    "LinearCost",
    "MonetaryCostPerTuple",
    "UtilityMeasure",
]
