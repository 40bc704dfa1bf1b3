"""Plan coverage: the paper's flagship non-monotonic utility.

Following the paper (Example 2.1, after [6]): the coverage of a plan
``p`` with respect to executed plans ``{p1, ..., pn}`` is the
probability that a tuple chosen uniformly among all answer tuples of
``Q`` is returned by ``p`` and by *no* ``pi``.

Under the extension model (:mod:`repro.sources.overlap`) a plan's
answer set is the cross-product box of its per-slot source extensions,
so coverage is computed *exactly*:

    coverage(p | executed) = |box(p) \\ union(executed boxes)| / |U|

where the union of executed boxes is maintained incrementally as a
:class:`~repro.utility.boxes.DisjointBoxUnion` in the execution
context.

Structural properties:

* coverage depends on the executed set (not context-free);
* utility-diminishing returns holds -- executing more plans can only
  shrink a candidate's residual (Section 3), so Streamer applies;
* two plans are independent iff their boxes are disjoint, which for
  product boxes happens iff two corresponding constituent sources do
  not overlap -- the paper's sound inspection procedure, which is in
  fact *complete* for this model;
* full monotonicity does not hold: replacing a source by a
  higher-coverage one can lower the plan's residual coverage once
  overlapping plans have executed.
"""

from __future__ import annotations

from typing import Sequence, cast

from repro.sources.catalog import SourceDescription
from repro.sources.overlap import OverlapModel
from repro.utility.base import ExecutionContext, PlanLike, Slots, UtilityMeasure
from repro.utility.boxes import Box, DisjointBoxUnion, box_size, boxes_disjoint
from repro.utility.intervals import Interval


class CoverageContext(ExecutionContext):
    """Execution context carrying the union of covered tuples."""

    def __init__(self, model: OverlapModel) -> None:
        super().__init__()
        self._model = model
        self.covered = DisjointBoxUnion(len(model.universe_sizes))

    def record(self, plan: PlanLike) -> None:
        super().record(plan)
        self.covered.add(plan_box(self._model, plan))


def plan_box(model: OverlapModel, plan: PlanLike) -> Box:
    """The cross-product box of a concrete plan's source extensions."""
    return tuple(
        model.extension(slot, source.name)
        for slot, source in enumerate(plan.sources)
    )


class CoverageUtility(UtilityMeasure):
    """Residual plan coverage over an :class:`OverlapModel`."""

    name = "coverage"
    is_fully_monotonic = False
    has_diminishing_returns = True
    context_free = False

    def __init__(self, model: OverlapModel) -> None:
        self.model = model
        self._total = model.total_universe_size()
        # (slot index, member tuple) -> (intersection mask, union mask,
        # min popcount, max popcount).  Member tuples are the immutable
        # AbstractSource.members tuples, re-queried many times during
        # an ordering run.
        self._slot_cache: dict[
            tuple[int, tuple[SourceDescription, ...]],
            tuple[int, int, int, int],
        ] = {}

    def _slot_masks(
        self, slot: int, members: tuple[SourceDescription, ...]
    ) -> tuple[int, int, int, int]:
        """Cached (intersection, union, min size, max size) of extensions."""
        key = (slot, members)
        cached = self._slot_cache.get(key)
        if cached is not None:
            return cached
        masks = [self.model.extension(slot, s.name) for s in members]
        inter = masks[0]
        union = masks[0]
        smallest = largest = masks[0].bit_count()
        for mask in masks[1:]:
            inter &= mask
            union |= mask
            count = mask.bit_count()
            smallest = min(smallest, count)
            largest = max(largest, count)
        self._slot_cache[key] = (inter, union, smallest, largest)
        return inter, union, smallest, largest

    def new_context(self) -> CoverageContext:
        return CoverageContext(self.model)

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, plan: PlanLike, context: ExecutionContext) -> float:
        covered = cast(CoverageContext, context).covered
        return covered.residual(plan_box(self.model, plan)) / self._total

    def evaluate_slots(self, slots: Slots, context: ExecutionContext) -> Interval:
        """Sound interval containing every member plan's coverage.

        For any member plan ``p`` with box ``B``, per-dimension the
        intersection box ``I`` and union box ``U`` of the slot members
        satisfy ``I <= B <= U``, hence:

        * ``|B|`` lies between the products of the per-slot minimum and
          maximum extension sizes (tighter than ``|I|``/``|U|``);
        * the already-covered part satisfies
          ``covered(I) <= covered(B) <= covered(U)`` (monotone in the
          box).

        Combining both gives bounds on ``residual(B) = |B| -
        covered(B)`` that are substantially tighter than the plain
        ``residual(I)``/``residual(U)`` pair, especially before many
        plans have executed.
        """
        covered = cast(CoverageContext, context).covered
        lower_box: list[int] = []
        upper_box: list[int] = []
        size_min = 1
        size_max = 1
        for slot, members in enumerate(slots):
            inter, union, smallest, largest = self._slot_masks(slot, members)
            lower_box.append(inter)
            upper_box.append(union)
            size_min *= smallest
            size_max *= largest
        inter_box = tuple(lower_box)
        union_box = tuple(upper_box)
        covered_inter, covered_union = covered.covered_within_pair(
            inter_box, union_box
        )
        lo = max(box_size(inter_box) - covered_inter, size_min - covered_union, 0)
        hi = min(box_size(union_box) - covered_union, size_max - covered_inter)
        return Interval(lo / self._total, max(lo, hi) / self._total)

    # -- independence --------------------------------------------------------------

    def independent(self, first: PlanLike, second: PlanLike) -> bool:
        return boxes_disjoint(
            plan_box(self.model, first), plan_box(self.model, second)
        )

    def has_independent_witness(
        self, slots: Slots, executed: Sequence[PlanLike]
    ) -> bool:
        """Sound witness check used by Streamer's link validation.

        If some slot ``i`` has a member ``v`` whose extension is
        disjoint from the slot-``i`` extension of *every* executed
        plan, then any concrete plan choosing ``v`` at slot ``i`` has a
        box disjoint from every executed box, hence is independent of
        them all.
        """
        if not executed:
            return True
        for slot, members in enumerate(slots):
            combined = 0
            for plan in executed:
                combined |= self.model.extension(slot, plan.sources[slot].name)
            for source in members:
                if self.model.extension(slot, source.name) & combined == 0:
                    return True
        return False

    def all_members_independent(self, slots: Slots, plan: PlanLike) -> bool:
        """True when some slot's member *union* is disjoint from the plan.

        Then every member combination has a disjoint box in that slot,
        so all concrete plans abstracted by *slots* are independent of
        *plan*.
        """
        for slot, members in enumerate(slots):
            union = self._slot_masks(slot, members)[1]
            if union & self.model.extension(slot, plan.sources[slot].name) == 0:
                return True
        return False
