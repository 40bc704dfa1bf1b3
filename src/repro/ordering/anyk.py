"""Any-k ranked plan enumeration over the bucket lattice.

The Greedy/iDrips/Streamer orderers all pay for the *whole* plan space
before (or while) emitting the first plan: Greedy evaluates one plan
per subspace split, but PI/iDrips/Streamer materialize or abstract the
full Cartesian product.  The any-k line of work (Lawler 1972;
Tziavelis et al., "Any-k Algorithms for Enumerating Ranked Answers to
Conjunctive Queries") shows that the next-best element of a product
space can be produced with near-constant delay without ever touching
more than a thin frontier of the product.  :class:`AnyKOrderer` brings
that to the plan-ordering problem (paper, Definition 2.1).

**Index-vector view.**  Fix, per bucket, a total order on its sources;
a concrete plan is then an index vector ``v`` (one index per bucket)
and the plan space is the product lattice of the vectors.  Two
enumeration modes share this view and one body — the shared
:mod:`~repro.ordering.frontier` with lattice cells as candidates:

**Lattice mode** — when the measure is *fully monotonic*
(:attr:`~repro.utility.base.UtilityMeasure.is_fully_monotonic`), sort
each bucket descending by the measure's
:meth:`~repro.utility.base.UtilityMeasure.source_preference_key`.
Full monotonicity makes utility antitone in every coordinate, in every
execution context: the plan at vector ``v`` is at least as good as any
``w >= v`` (componentwise).  A priority queue seeded with ``(0, ..,
0)`` therefore enumerates exactly: pop the best frontier plan, emit
it, and push its *Lawler successors* — the vectors deviating by ``+1``
in exactly one coordinate.  The emitted set stays downward closed and
the heap holds the minimal vectors of its complement, so every
unemitted plan is dominated by some heap entry.  Time to the first
plan is one utility evaluation (after an ``O(n * m log m)`` bucket
sort); each further plan costs at most ``n`` evaluations; memory is
``O(popped * n)`` vectors for query length ``n``, never ``O(m^n)``.

**Interval mode** — for every other measure (coverage, failure-aware
or caching costs, monetary), per-bucket preference orders do not
exist, so exact frontier pruning is impossible coordinate-wise.
Instead the heap mixes *concrete* entries (exact utility) with
*region* entries: the region at ``v`` stands for every plan ``w >= v``
and is keyed by the upper bound of the measure's sound
:meth:`~repro.utility.base.UtilityMeasure.evaluate_slots` interval
over the per-bucket suffix slots ``bucket_i[v_i:]`` — the same
dominance-interval machinery Drips uses (paper, Section 5.1), applied
to lattice cones instead of abstraction trees.  Popping a concrete
entry emits it (every other unemitted plan sits under some entry whose
upper bound is no larger); popping a region *refines* it into its
corner plan plus its one-coordinate successor regions.  Successor
regions overlap, which is harmless for upper bounds; a visited-vector
set creates each region (hence each corner) once, so memory again
stays ``O(popped * n)`` heap entries.

**Tie-breaking** is the frontier's: bound descending, concrete before
region, smaller plan key first (a region's key is its corner plan's).
Any tie choice satisfies Definition 2.1; ``tests/ordering/
equivalence.py`` compares utility streams, not tied plans.

Observability: ``ordering.anyk.pops`` / ``successors`` /
``duplicates_skipped`` counters, an ``ordering.anyk.heap_peak`` gauge
and an ``ordering.anyk.delay`` histogram (seconds per emission, so
``Histogram.quantile`` yields delay percentiles) are registered on the
orderer's :class:`~repro.observability.metrics.MetricRegistry`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.observability.tracing import Stopwatch
from repro.ordering.base import EmitCallback, OrderedPlan, PlanOrderer
from repro.ordering.frontier import Frontier
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.sources.catalog import SourceDescription
from repro.utility.base import Slots, UtilityMeasure

__all__ = ["AnyKOrderer"]


class _SpaceLattice:
    """One plan space viewed as an index-vector lattice.

    Holds the per-bucket source order and the precomputed suffix
    tuples ``sources[i][j:]`` so interval mode hands *identical* tuple
    objects to ``evaluate_slots`` for the same cone — which lets
    caching measures (e.g. ``CoverageUtility``'s slot cache,
    ``CachingUtilityMeasure``) recognize repeats.
    """

    __slots__ = ("sources", "suffixes", "limits")

    def __init__(
        self, space: PlanSpace, utility: UtilityMeasure, lattice: bool
    ) -> None:
        ordered: list[tuple[SourceDescription, ...]] = []
        for bucket in space.buckets:
            if lattice:
                # Descending preference: index 0 is the bucket's best
                # source, so utility is antitone in every coordinate.
                members = tuple(
                    sorted(
                        bucket.sources,
                        key=lambda s: (
                            utility.source_preference_key(bucket.index, s),
                            s.name,
                        ),
                        reverse=True,
                    )
                )
            else:
                members = bucket.sources
            ordered.append(members)
        self.sources = tuple(ordered)
        # Suffix tuples are an interval-mode concern; lattice mode
        # never touches them, keeping its first-plan setup to the sort.
        self.suffixes = (
            None
            if lattice
            else tuple(
                tuple(members[j:] for j in range(len(members)))
                for members in self.sources
            )
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
    """A lattice vector in the frontier.

    Concrete: the plan at the vector.  Region: the cone of every plan
    ``w >= vector``, keyed by its corner plan's key and scored over the
    per-bucket suffix slots.
    """

    __slots__ = ("lattice", "vector", "plan", "key")

    def __init__(
        self, lattice: _SpaceLattice, vector: tuple[int, ...], concrete: bool
    ) -> None:
        self.lattice = lattice
        self.vector = vector
        corner = tuple(lattice.sources[i][j] for i, j in enumerate(vector))
        self.plan = QueryPlan(corner) if concrete else None
        self.key = tuple(source.name for source in corner)

    @property
    def is_concrete(self) -> bool:
        return self.plan is not None

    def slots(self) -> Slots:
        suffixes = self.lattice.suffixes
        return tuple(suffixes[i][j] for i, j in enumerate(self.vector))


class AnyKOrderer(PlanOrderer):
    """Ranked (any-k) enumeration by Lawler successors over buckets."""

    name = "anyk"

    def __init__(self, utility: UtilityMeasure, **instrumentation: object) -> None:
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
        # Lattice mode spans the frontier with concrete cells, interval
        # mode with cones; everything else is shared.
        exact = self.utility.is_fully_monotonic

        def score(cell: _Cell) -> float:
            if cell.plan is not None:
                return self._evaluate_plan(cell.plan, context)
            # A cone's bound is the *upper* end of its utility
            # interval — sound for every plan in it.
            return self._evaluate_slots(cell.slots(), context).hi

        frontier = Frontier(score)
        # Successor vectors are reachable along several coordinates;
        # the first copy (or its expansion) carries the obligation.
        seen: set[tuple[_SpaceLattice, tuple[int, ...]]] = set()

        def successors(cell: _Cell) -> Iterator[_Cell]:
            lattice = cell.lattice
            for vector in lattice.successors(cell.vector):
                if (lattice, vector) in seen:
                    self._duplicates.inc()
                    continue
                seen.add((lattice, vector))
                self._successors.inc()
                yield _Cell(lattice, vector, concrete=exact)

        def expand(cone: _Cell) -> Iterator[_Cell]:
            # Any ``w >= v`` other than ``v`` exceeds it in some
            # coordinate ``i`` and so lies in the cone at ``v + e_i``:
            # corner plus successor cones cover the cone exactly.
            self._pops.inc()
            self.stats.refinements += 1
            yield _Cell(cone.lattice, cone.vector, concrete=True)
            yield from successors(cone)

        def uncover(emitted: _Cell) -> Iterable[_Cell]:
            # Lattice mode: the emitted set stays downward closed, its
            # Lawler successors are the new minimal unemitted vectors.
            # Interval mode: the cone that held the plan already
            # expanded into its successor cones.
            return successors(emitted) if exact else ()

        for space in spaces:
            lattice = _SpaceLattice(space, self.utility, lattice=exact)
            root = (0,) * len(lattice.limits)
            seen.add((lattice, root))
            frontier.push(_Cell(lattice, root, concrete=exact))

        stream = self._emit_best_first(
            frontier, context, k, on_emit, expand=expand, uncover=uncover
        )
        while True:
            # One delay = the resumption work after the previous plan
            # (report, re-score, successors) plus the pops to this one.
            with Stopwatch() as watch:
                entry = next(stream, None)
            if frontier.peak > self._heap_peak.value:
                self._heap_peak.set(frontier.peak)
            if entry is None:
                return
            self._pops.inc()
            self._delay.observe(watch.elapsed)
            yield entry
