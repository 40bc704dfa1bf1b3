"""Which algorithm for which measure: the paper's map, as one rule.

The paper's result maps a measure's structural properties (Section 3)
to an ordering algorithm, and Figure 6 is its evidence: enumeration
from the best plan down when the measure is fully monotonic (Section
4), Streamer under utility-diminishing returns (Figure 5), iDrips for
everything else (Figures 6.g-i).  ``pi`` is never the answer — it
evaluates the whole space before the first plan — but stays
addressable by name as the exact baseline; ``docs/ordering.md`` has
the measured cells, including the monetary ones it still wins.

The name → class table is :data:`repro.ordering.ORDERER_TABLE`; it
lives beside the classes because their own applicability guards quote
this rule (:func:`not_applicable`).
"""

from __future__ import annotations

from repro.errors import NotApplicableError
from repro.utility.base import UtilityMeasure

__all__ = ["AUTO_ORDERER", "not_applicable", "resolve_orderer_name"]

#: The measure-dependent pseudo-orderer: requests, configs and CLI
#: flags naming it resolve per measure via :func:`resolve_orderer_name`.
AUTO_ORDERER = "auto"


def resolve_orderer_name(name: str, utility: UtilityMeasure) -> str:
    """Resolve ``"auto"`` against a measure's structural flags.

    Every other name passes through untouched, so explicit choices
    (``--default-orderer pi``, a request's ``orderer``) mean what they
    say.  Wrappers mirror their inner measure's flags, so a cached or
    health-aware measure resolves as the measure it wraps.
    """
    if name != AUTO_ORDERER:
        return name
    if utility.is_fully_monotonic:
        return "anyk"
    if utility.has_diminishing_returns:
        return "streamer"
    return "idrips"


def not_applicable(
    algorithm: str, requirement: str, utility: UtilityMeasure
) -> NotApplicableError:
    """The error an orderer raises for a measure outside its regime."""
    return NotApplicableError(
        f"{algorithm} requires {requirement}, which {utility.name!r} does "
        f"not provide; 'auto' picks "
        f"{resolve_orderer_name(AUTO_ORDERER, utility)!r} for it"
    )
