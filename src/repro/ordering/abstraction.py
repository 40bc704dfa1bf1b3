"""Source abstraction for Drips-family algorithms (paper, Section 5).

Sources of a bucket are organized into a binary *merge tree*: the root
is an abstract source representing the whole bucket, leaves are the
concrete sources, and refining an abstract source replaces it by its
two children.  An *abstract plan* picks one (abstract or concrete)
source per bucket and represents the Cartesian product of the member
sets; refining one slot splits it into two abstract plans.

Which sources get grouped together is the *abstraction heuristic*.
The paper's experiments group "sources based on their similarity wrt
the number of expected output tuples" (Section 6) —
:class:`OutputCountHeuristic`.  Two alternatives are provided for the
ablation study: grouping by extension similarity (good for coverage)
and random grouping (a worst case).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import OrderingError
from repro.reformulation.plans import Bucket, QueryPlan
from repro.sources.catalog import SourceDescription
from repro.sources.overlap import OverlapModel
from repro.utility.base import Slots


@dataclass(frozen=True)
class AbstractSource:
    """A node of a bucket's merge tree.

    ``members`` is the set of concrete sources below this node (in
    tree order); leaves have exactly one member and no children.
    """

    bucket_index: int
    members: tuple[SourceDescription, ...]
    children: tuple["AbstractSource", ...] = ()
    #: The member names, in tree order.
    key: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise OrderingError("abstract source with no members")
        object.__setattr__(self, "key", tuple(m.name for m in self.members))
        if self.children:
            child_members = tuple(
                m for child in self.children for m in child.members
            )
            if child_members != self.members:
                raise OrderingError(
                    "children members must concatenate to the parent's"
                )

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def source(self) -> SourceDescription:
        """The concrete source of a leaf node."""
        if not self.is_leaf or len(self.members) != 1:
            raise OrderingError("only leaves expose a concrete source")
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(self.key) + "}"


def balanced_tree(
    bucket_index: int, sources: Sequence[SourceDescription]
) -> AbstractSource:
    """Build a balanced binary merge tree over *sources* in the given order.

    Adjacent sources in the ordering end up under the same low-level
    abstract source, so heuristics work by choosing the ordering:
    similar sources should be adjacent.
    """
    if not sources:
        raise OrderingError("cannot abstract an empty bucket")
    if len(sources) == 1:
        return AbstractSource(bucket_index, (sources[0],))
    mid = len(sources) // 2
    left = balanced_tree(bucket_index, sources[:mid])
    right = balanced_tree(bucket_index, sources[mid:])
    return AbstractSource(bucket_index, tuple(sources), (left, right))


class AbstractionHeuristic(ABC):
    """Chooses how a bucket's sources are grouped into the merge tree."""

    name: str = "heuristic"

    @abstractmethod
    def order_bucket(self, bucket: Bucket) -> Sequence[SourceDescription]:
        """Return the bucket's sources so that similar ones are adjacent."""

    def build(self, bucket: Bucket) -> AbstractSource:
        return balanced_tree(bucket.index, tuple(self.order_bucket(bucket)))


class OutputCountHeuristic(AbstractionHeuristic):
    """The paper's heuristic: group by expected output-tuple count."""

    name = "output-count"

    def order_bucket(self, bucket: Bucket) -> Sequence[SourceDescription]:
        return sorted(bucket.sources, key=lambda s: (s.stats.n_tuples, s.name))


class ExtensionSimilarityHeuristic(AbstractionHeuristic):
    """Group by extension layout in the overlap model.

    Sources are ordered by the position of their extension's lowest
    set bit (a cheap proxy for "which region of the universe the
    source lives in"), then by size.  With the group-structured
    synthetic generator this clusters same-group sources, which have
    nearly identical extensions.
    """

    name = "extension-similarity"

    def __init__(self, model: OverlapModel) -> None:
        self.model = model

    def order_bucket(self, bucket: Bucket) -> Sequence[SourceDescription]:
        def sort_key(source: SourceDescription) -> tuple[int, int, str]:
            mask = self.model.extension(bucket.index, source.name)
            lowest = (mask & -mask).bit_length() if mask else 0
            return (lowest, mask.bit_count(), source.name)

        return sorted(bucket.sources, key=sort_key)


class RandomHeuristic(AbstractionHeuristic):
    """Random grouping: the ablation's no-information baseline."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def order_bucket(self, bucket: Bucket) -> Sequence[SourceDescription]:
        rng = random.Random(f"{self.seed}:{bucket.index}:{len(bucket)}")
        shuffled = list(bucket.sources)
        rng.shuffle(shuffled)
        return shuffled


@dataclass(frozen=True)
class AbstractPlan:
    """One (abstract or concrete) source per bucket.

    ``space_id`` tags which plan space the plan came from; iDrips uses
    it to know which space to split after a win.
    """

    slots: tuple[AbstractSource, ...]
    space_id: int = 0
    #: Deterministic identity used for tie-breaking.
    key: tuple[tuple[str, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    is_concrete: bool = field(init=False, repr=False, compare=False)
    _members: Slots = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Read on every heap comparison and evaluation: built once here.
        slots = self.slots
        object.__setattr__(self, "key", tuple(slot.key for slot in slots))
        object.__setattr__(
            self, "is_concrete", all(slot.is_leaf for slot in slots)
        )
        object.__setattr__(
            self, "_members", tuple(slot.members for slot in slots)
        )

    @property
    def size(self) -> int:
        """Number of concrete plans this abstract plan represents."""
        total = 1
        for slot in self.slots:
            total *= len(slot)
        return total

    def concrete_plan(self) -> QueryPlan:
        if not self.is_concrete:
            raise OrderingError(f"plan {self} is still abstract")
        return QueryPlan(tuple(slot.source for slot in self.slots))

    def slots_members(self) -> Slots:
        """The per-slot member tuples handed to utility measures."""
        return self._members

    def refinement_slot(self) -> int:
        """Default policy: refine the slot with the most members."""
        widths = [len(slot) if not slot.is_leaf else 0 for slot in self.slots]
        best = max(widths)
        if best == 0:
            raise OrderingError(f"plan {self} has nothing to refine")
        return widths.index(best)

    def refine(self, slot: Optional[int] = None) -> list["AbstractPlan"]:
        """Replace one abstract slot by its children (paper, 5.1)."""
        if slot is None:
            slot = self.refinement_slot()
        chosen = self.slots[slot]
        if chosen.is_leaf:
            raise OrderingError(f"slot {slot} of {self} is already concrete")
        return [
            AbstractPlan(
                self.slots[:slot] + (child,) + self.slots[slot + 1 :],
                self.space_id,
            )
            for child in chosen.children
        ]

    def __str__(self) -> str:
        return "".join(str(slot) for slot in self.slots)


def build_trees(
    buckets: Sequence[Bucket], heuristic: AbstractionHeuristic
) -> tuple[AbstractSource, ...]:
    """One merge tree per bucket."""
    return tuple(heuristic.build(bucket) for bucket in buckets)


def top_plan(
    buckets: Sequence[Bucket],
    heuristic: AbstractionHeuristic,
    space_id: int = 0,
) -> AbstractPlan:
    """The fully abstract plan representing a whole plan space."""
    return AbstractPlan(build_trees(buckets, heuristic), space_id)
