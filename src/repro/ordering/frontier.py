"""The best-first frontier under Greedy, Drips/iDrips and AnyK.

The paper's Greedy (Section 4) and Drips (Section 5.1) and the any-k
enumerators (Lawler 1972; Tziavelis et al., PAPERS.md) are one search:
keep pieces of the plan space in a priority queue keyed by an upper
bound on the utility of every plan in the piece, pop the best, and
either *expand* it into smaller pieces (a region) or *emit* it (a
concrete plan, whose bound is its exact utility and therefore at least
every other candidate's whole interval).  The algorithms differ only in
what a candidate is, how it is scored and what it expands into; this
module is the part they share.

A **candidate** is any object with a deterministic tuple ``key`` and a
boolean ``is_concrete``; the frontier never looks further into it.

**The tie-break** is one total order for every algorithm: *bound
descending, concrete before region, key ascending*.  Concrete first,
because at equal bound the concrete plan is already a maximum and
expanding the region could only find its equals.  Keys are unique among
live candidates (the pieces are disjoint, or deduplicated by their
owner), so the insertion tick that follows the key in a heap entry
never decides an order — it only keeps the heap from comparing
candidates themselves.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, Iterator

from repro.errors import OrderingError

__all__ = ["Frontier", "best_first"]


class Frontier:
    """Max-heap of candidates by ``score(candidate)``, an upper bound.

    ``score`` evaluates in the caller's *current* execution context;
    after the context changed, :meth:`rescore` refreshes every bound
    (the dominance arguments of all three algorithms are
    context-independent, so only the keys need it).
    """

    __slots__ = ("_score", "_heap", "_tick", "peak")

    def __init__(self, score: Callable[[Any], float]) -> None:
        self._score = score
        self._heap: list[tuple] = []
        self._tick = itertools.count()
        #: Largest number of candidates held at once.
        self.peak = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, candidate: Any) -> None:
        bound = self._score(candidate)
        if bound != bound:
            # NaN compares false with everything: the heap would accept
            # it and silently mis-order the stream.
            raise OrderingError(
                f"utility bound of candidate {candidate.key} is NaN; "
                "cannot order it"
            )
        heap = self._heap
        heapq.heappush(
            heap,
            (
                -bound,
                not candidate.is_concrete,
                candidate.key,
                next(self._tick),
                candidate,
            ),
        )
        if len(heap) > self.peak:
            self.peak = len(heap)

    def pop(self) -> tuple[Any, float, bool]:
        """Remove the best candidate: ``(candidate, bound, is_region)``."""
        neg_bound, is_region, _key, _tick, candidate = heapq.heappop(self._heap)
        return candidate, -neg_bound, is_region

    def rescore(self) -> None:
        """Re-evaluate every candidate's bound; the candidates stay."""
        held, self._heap = self._heap, []
        for entry in held:
            self.push(entry[-1])


def best_first(
    frontier: Frontier,
    expand: Callable[[Any], Iterable[Any]],
) -> Iterator[tuple[Any, float]]:
    """Yield ``(concrete candidate, utility)`` in best-first order.

    A popped region is replaced by ``expand(region)``, which must cover
    every plan of the region; a popped concrete candidate surfaces.
    The caller may push to (and rescore) the frontier between
    resumptions — that is how an emission's successors enter.
    """
    while frontier:
        candidate, bound, is_region = frontier.pop()
        if is_region:
            for piece in expand(candidate):
                frontier.push(piece)
        else:
            yield candidate, bound
