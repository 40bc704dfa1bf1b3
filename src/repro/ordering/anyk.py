"""Any-k ranked plan enumeration over the bucket lattice.

The Greedy/iDrips/Streamer orderers all pay for the *whole* plan space
before (or while) emitting the first plan: Greedy evaluates one plan
per subspace split, but PI/iDrips/Streamer materialize or abstract the
full Cartesian product.  The any-k line of work (Lawler 1972;
Tziavelis et al., "Any-k Algorithms for Enumerating Ranked Answers to
Conjunctive Queries") shows that the next-best element of a product
space can be produced with near-constant delay without ever touching
more than a thin frontier of the product — for a ranking function that
is monotone over the lattice walked.  :class:`AnyKOrderer` brings that
to the plan-ordering problem (paper, Definition 2.1) for exactly those
measures, the *fully monotonic* ones
(:attr:`~repro.utility.base.UtilityMeasure.is_fully_monotonic`); for
the others the paper's own algorithms are the answer
(:mod:`repro.ordering.regimes`) and the constructor refuses, as
Greedy's does.

**Index-vector view.**  Fix, per bucket, a total order on its sources;
a concrete plan is then an index vector ``v`` (one index per bucket)
and the plan space is the product lattice of the vectors.  Sort
each bucket descending by the measure's
:meth:`~repro.utility.base.UtilityMeasure.source_preference_key`.
Full monotonicity makes utility antitone in every coordinate, in every
execution context: the plan at vector ``v`` is at least as good as any
``w >= v`` (componentwise).  The shared :mod:`~repro.ordering.frontier`
seeded with ``(0, .., 0)`` therefore enumerates exactly: pop the best
frontier plan, emit it, and push its *Lawler successors* — the vectors
deviating by ``+1`` in exactly one coordinate.  The emitted set stays
downward closed and the heap holds the minimal vectors of its
complement, so every unemitted plan is dominated by some heap entry.
Time to the first plan is one utility evaluation (after an ``O(n * m
log m)`` bucket sort); each further plan costs at most ``n``
evaluations; memory is ``O(popped * n)`` vectors for query length
``n``, never ``O(m^n)``.

**Tie-breaking** is the frontier's: utility descending, smaller plan
key first.  Any tie choice satisfies Definition 2.1; ``tests/ordering/
equivalence.py`` compares utility streams, not tied plans.

Observability: ``ordering.anyk.pops`` / ``successors`` /
``duplicates_skipped`` counters, an ``ordering.anyk.heap_peak`` gauge
and an ``ordering.anyk.delay`` histogram (seconds per emission, so
``Histogram.quantile`` yields delay percentiles) are registered on the
orderer's :class:`~repro.observability.metrics.MetricRegistry`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.observability.tracing import Stopwatch
from repro.ordering.base import EmitCallback, OrderedPlan, PlanOrderer
from repro.ordering.frontier import Frontier
from repro.ordering.regimes import not_applicable
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.utility.base import UtilityMeasure

__all__ = ["AnyKOrderer"]


class _SpaceLattice:
    """One plan space viewed as an index-vector lattice."""

    __slots__ = ("sources", "limits")

    def __init__(self, space: PlanSpace, utility: UtilityMeasure) -> None:
        # Descending preference: index 0 is the bucket's best source,
        # so utility is antitone in every coordinate.
        self.sources = tuple(
            tuple(
                sorted(
                    bucket.sources,
                    key=lambda s: (
                        utility.source_preference_key(bucket.index, s),
                        s.name,
                    ),
                    reverse=True,
                )
            )
            for bucket in space.buckets
        )
        self.limits = tuple(len(members) for members in self.sources)

    def successors(
        self, vector: tuple[int, ...]
    ) -> Iterator[tuple[int, ...]]:
        """The Lawler successors: deviate exactly one coordinate."""
        for i, j in enumerate(vector):
            if j + 1 < self.limits[i]:
                yield vector[:i] + (j + 1,) + vector[i + 1 :]


class _Cell:
    """A lattice vector in the frontier, standing in as its plan."""

    __slots__ = ("lattice", "vector", "plan", "key")
    is_concrete = True

    def __init__(self, lattice: _SpaceLattice, vector: tuple[int, ...]) -> None:
        self.lattice = lattice
        self.vector = vector
        self.plan = QueryPlan(
            tuple(lattice.sources[i][j] for i, j in enumerate(vector))
        )
        self.key = self.plan.key


class AnyKOrderer(PlanOrderer):
    """Ranked (any-k) enumeration by Lawler successors over buckets."""

    name = "anyk"

    def __init__(self, utility: UtilityMeasure, **instrumentation: object) -> None:
        if not utility.is_fully_monotonic:
            raise not_applicable("AnyK", "a fully monotonic measure", utility)
        super().__init__(utility, **instrumentation)
        self._pops = self.registry.counter("ordering.anyk.pops")
        self._successors = self.registry.counter("ordering.anyk.successors")
        self._duplicates = self.registry.counter(
            "ordering.anyk.duplicates_skipped"
        )
        self._heap_peak = self.registry.gauge("ordering.anyk.heap_peak")
        self._delay = self.registry.histogram("ordering.anyk.delay")

    def order_spaces(
        self,
        spaces: "list[PlanSpace] | tuple[PlanSpace, ...]",
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        self._check_k(k)
        context = self.utility.new_context()
        frontier = Frontier(
            lambda cell: self._evaluate_plan(cell.plan, context)
        )
        # Successor vectors are reachable along several coordinates;
        # the first copy carries the obligation.
        seen: set[tuple[_SpaceLattice, tuple[int, ...]]] = set()

        def successors(emitted: _Cell) -> Iterator[_Cell]:
            # The emitted set stays downward closed: its Lawler
            # successors are the new minimal unemitted vectors.
            lattice = emitted.lattice
            for vector in lattice.successors(emitted.vector):
                if (lattice, vector) in seen:
                    self._duplicates.inc()
                    continue
                seen.add((lattice, vector))
                self._successors.inc()
                yield _Cell(lattice, vector)

        for space in spaces:
            lattice = _SpaceLattice(space, self.utility)
            frontier.push(_Cell(lattice, (0,) * len(lattice.limits)))

        stream = self._emit_best_first(
            frontier, context, k, on_emit, uncover=successors
        )
        while True:
            # One delay = the resumption work after the previous plan
            # (report, re-score, successors) plus the pop to this one.
            with Stopwatch() as watch:
                entry = next(stream, None)
            if frontier.peak > self._heap_peak.value:
                self._heap_peak.set(frontier.peak)
            if entry is None:
                return
            self._pops.inc()
            self._delay.observe(watch.elapsed)
            yield entry
