"""Cross-product boxes over per-bucket bitmask universes.

Under the extension model of :mod:`repro.sources.overlap`, the answer
set of a query plan is the Cartesian product of its per-slot source
extensions — a *box* whose sides are bitmasks.  This module provides
exact arithmetic on such boxes:

* size, emptiness, disjointness (per-dimension bit operations);
* subtraction of one box from another into at most ``d`` disjoint
  fragments (the same recursive-splitting idea the paper's Greedy uses
  to remove a plan from a plan space, Section 4);
* :class:`DisjointBoxUnion`, an incrementally maintained union of
  disjoint boxes representing the tuples already returned by executed
  plans.  Residual coverage of a candidate plan ``p`` is then exactly

      |box(p)|  -  sum over pieces u of |box(p) & u|

  because the pieces are pairwise disjoint.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import UtilityError

#: A box is one bitmask per dimension (= per query subgoal / bucket).
Box = tuple[int, ...]


def box_size(box: Box) -> int:
    """Number of tuples in the box (product of per-side popcounts)."""
    total = 1
    for mask in box:
        total *= mask.bit_count()
        if total == 0:
            return 0
    return total


def box_is_empty(box: Box) -> bool:
    return any(mask == 0 for mask in box)


def boxes_disjoint(first: Box, second: Box) -> bool:
    """Product boxes are disjoint iff they are disjoint in some dimension."""
    return any((a & b) == 0 for a, b in zip(first, second))


def box_subtract(box: Box, other: Box) -> list[Box]:
    """Return disjoint boxes whose union is ``box \\ other``.

    The classic d-dimensional split: fragment ``i`` keeps dimensions
    ``< i`` restricted to the intersection, removes ``other`` from
    dimension ``i``, and leaves dimensions ``> i`` untouched.  At most
    ``d`` non-empty fragments are produced.
    """
    if boxes_disjoint(box, other):
        return [box]
    fragments: list[Box] = []
    for dim in range(len(box)):
        outside = box[dim] & ~other[dim]
        if outside == 0:
            continue
        sides = (
            tuple(box[j] & other[j] for j in range(dim))
            + (outside,)
            + tuple(box[j] for j in range(dim + 1, len(box)))
        )
        if not box_is_empty(sides):
            fragments.append(sides)
    return fragments


class DisjointBoxUnion:
    """An incrementally maintained union of pairwise-disjoint boxes.

    Used as the coverage utility's execution state: each executed
    plan's box is added, and candidates query how many of their tuples
    are *not yet* covered.
    """

    def __init__(self, dimensions: int) -> None:
        if dimensions <= 0:
            raise UtilityError("dimensions must be positive")
        self._dimensions = dimensions
        self._pieces: list[Box] = []
        self._size = 0

    @property
    def size(self) -> int:
        """Total number of tuples covered by the union."""
        return self._size

    def __len__(self) -> int:
        return len(self._pieces)

    def _check(self, box: Box) -> None:
        if len(box) != self._dimensions:
            raise UtilityError(
                f"box has {len(box)} dimensions, union has {self._dimensions}"
            )

    def covered_within(self, box: Box) -> int:
        """Number of tuples of *box* already covered by the union.

        This is the hot path of the coverage utility (one piece scan
        per plan evaluation), so the per-piece intersection is inlined.
        """
        self._check(box)
        covered = 0
        for piece in self._pieces:
            size = 1
            for mask, piece_mask in zip(box, piece):
                inter = mask & piece_mask
                if not inter:
                    size = 0
                    break
                size *= inter.bit_count()
            covered += size
        return covered

    def covered_within_pair(self, inner: Box, outer: Box) -> tuple[int, int]:
        """``(covered_within(inner), covered_within(outer))`` in one scan.

        Requires ``inner`` to be a per-dimension sub-box of ``outer``
        (the coverage utility's intersection- and union-boxes), which
        lets a piece disjoint from ``outer`` be skipped for both.
        """
        self._check(inner)
        self._check(outer)
        covered_inner = 0
        covered_outer = 0
        for piece in self._pieces:
            size_outer = 1
            size_inner = 1
            for in_mask, out_mask, piece_mask in zip(inner, outer, piece):
                meet_outer = out_mask & piece_mask
                if not meet_outer:
                    size_outer = size_inner = 0
                    break
                size_outer *= meet_outer.bit_count()
                if size_inner:
                    meet_inner = in_mask & piece_mask
                    size_inner = (
                        size_inner * meet_inner.bit_count() if meet_inner else 0
                    )
            covered_outer += size_outer
            covered_inner += size_inner
        return covered_inner, covered_outer

    def residual(self, box: Box) -> int:
        """Number of tuples of *box* not yet covered by the union."""
        return box_size(box) - self.covered_within(box)

    def add(self, box: Box) -> int:
        """Add *box* to the union; return the number of new tuples.

        The new region is decomposed into fragments disjoint from all
        existing pieces, preserving the pairwise-disjointness invariant.
        """
        self._check(box)
        if box_is_empty(box):
            return 0
        fresh: list[Box] = [box]
        for piece in self._pieces:
            next_fresh: list[Box] = []
            for fragment in fresh:
                next_fresh.extend(box_subtract(fragment, piece))
            fresh = next_fresh
        added = sum(box_size(f) for f in fresh)
        self._pieces.extend(fresh)
        self._size += added
        return added

    def __iter__(self) -> Iterator[Box]:
        return iter(self._pieces)


def enumerate_box(box: Box) -> Iterator[tuple[int, ...]]:
    """Yield every tuple of a box as per-dimension element indices.

    Exponential in the number of dimensions times popcounts; intended
    for tests and tiny instances only.
    """

    def bits(mask: int) -> list[int]:
        out = []
        index = 0
        while mask:
            if mask & 1:
                out.append(index)
            mask >>= 1
            index += 1
        return out

    def recurse(dim: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if dim == len(box):
            yield prefix
            return
        for element in bits(box[dim]):
            yield from recurse(dim + 1, prefix + (element,))

    yield from recurse(0, ())
