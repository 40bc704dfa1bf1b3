"""Plan-ordering algorithms (the paper's contribution).

* :class:`~repro.ordering.greedy.GreedyOrderer` -- Section 4, for
  fully monotonic utility measures.
* :class:`~repro.ordering.drips.DripsPlanner` -- Section 5.1, finds the
  single best plan by abstraction (Haddawy, Doan & Goodwin).
* :class:`~repro.ordering.idrips.IDripsOrderer` -- Section 5.2, iterates
  Drips with plan-space splitting and per-iteration re-abstraction.
* :class:`~repro.ordering.streamer.StreamerOrderer` -- Section 5.2 /
  Figure 5, abstracts once and recycles dominance relations.
* :class:`~repro.ordering.bruteforce.PIOrderer` -- Section 6's baseline:
  exact brute force that reuses plan-independence information.
* :class:`~repro.ordering.bruteforce.ExhaustiveOrderer` -- naive brute
  force that recomputes everything each iteration (ablation).
* :class:`~repro.ordering.anyk.AnyKOrderer` -- any-k ranked
  enumeration by Lawler successors over the bucket lattice; emits the
  first plan without materializing or abstracting the product space.
* :class:`~repro.ordering.adaptive.AdaptiveOrderer` -- wraps any of
  the above and re-sorts the residual plan space mid-stream when the
  resilience layer's health epoch shows the ranking may have shifted.

Callers holding an orderer *name* (service, CLI, the mediator's default)
use :data:`ORDERER_TABLE` / :func:`orderer_class`; ``"auto"`` resolves
per measure by the one rule in :mod:`repro.ordering.regimes`.
"""

from repro.errors import OrderingError
from repro.ordering.abstraction import (
    ExtensionSimilarityHeuristic,
    OutputCountHeuristic,
    RandomHeuristic,
)
from repro.ordering.adaptive import AdaptiveOrderer
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.base import OrderedPlan, OrderingStats, PlanOrderer
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.drips import DripsPlanner
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.regimes import AUTO_ORDERER, resolve_orderer_name
from repro.ordering.streamer import StreamerOrderer
from repro.utility.base import UtilityMeasure

#: Every orderer addressable by name (CLI flags, wire requests).
ORDERER_TABLE: dict[str, type[PlanOrderer]] = {
    "pi": PIOrderer,
    "exhaustive": ExhaustiveOrderer,
    "idrips": IDripsOrderer,
    "streamer": StreamerOrderer,
    "greedy": GreedyOrderer,
    "anyk": AnyKOrderer,
}


def orderer_class(name: str, utility: UtilityMeasure) -> type[PlanOrderer]:
    """The orderer class called *name*, ``"auto"`` resolved for *utility*."""
    try:
        return ORDERER_TABLE[resolve_orderer_name(name, utility)]
    except KeyError:
        raise OrderingError(
            f"unknown orderer {name!r}; have {sorted(ORDERER_TABLE)}"
        ) from None


__all__ = [
    "AUTO_ORDERER",
    "AdaptiveOrderer",
    "DripsPlanner",
    "ExhaustiveOrderer",
    "ExtensionSimilarityHeuristic",
    "GreedyOrderer",
    "IDripsOrderer",
    "ORDERER_TABLE",
    "OrderedPlan",
    "OrderingStats",
    "OutputCountHeuristic",
    "PIOrderer",
    "PlanOrderer",
    "RandomHeuristic",
    "StreamerOrderer",
    "orderer_class",
    "resolve_orderer_name",
]
