"""Plans, buckets, and plan spaces.

A *plan space* is the Cartesian product of a set of buckets (paper,
Section 4): bucket ``i`` holds the sources that can cover subgoal
``i``, and a concrete plan picks one source per bucket.  The key
structural operation is :meth:`PlanSpace.split_off`: removing a plan
from a space yields at most ``m`` disjoint subspaces that together
contain every other plan of the space — this is how both Greedy and
iDrips enumerate past already-emitted plans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import ReformulationError
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom
from repro.sources.catalog import SourceDescription


@dataclass(frozen=True)
class QueryPlan:
    """A concrete conjunctive query plan: one source per subgoal."""

    sources: tuple[SourceDescription, ...]
    #: The plan's identity: its source names in subgoal order.
    key: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.sources, tuple):
            object.__setattr__(self, "sources", tuple(self.sources))
        if not self.sources:
            raise ReformulationError("a plan needs at least one source")
        object.__setattr__(self, "key", tuple(s.name for s in self.sources))

    def __len__(self) -> int:
        return len(self.sources)

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryPlan):
            return NotImplemented
        return self.key == other.key

    def __str__(self) -> str:
        return "".join(f"[{name}]" for name in self.key)


@dataclass(frozen=True)
class Bucket:
    """The sources able to cover one query subgoal."""

    index: int
    sources: tuple[SourceDescription, ...]
    subgoal: Optional[Atom] = None

    def __post_init__(self) -> None:
        if not isinstance(self.sources, tuple):
            object.__setattr__(self, "sources", tuple(self.sources))
        names = [s.name for s in self.sources]
        if len(set(names)) != len(names):
            raise ReformulationError(
                f"bucket {self.index} contains duplicate sources"
            )

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self) -> Iterator[SourceDescription]:
        return iter(self.sources)

    def without(self, source: SourceDescription) -> "Bucket":
        """A copy of the bucket with *source* removed."""
        return Bucket(
            self.index,
            tuple(s for s in self.sources if s.name != source.name),
            self.subgoal,
        )

    def only(self, source: SourceDescription) -> "Bucket":
        """A singleton copy of the bucket holding just *source*."""
        if all(s.name != source.name for s in self.sources):
            raise ReformulationError(
                f"source {source.name!r} not in bucket {self.index}"
            )
        return Bucket(self.index, (source,), self.subgoal)

    def __str__(self) -> str:
        inner = ", ".join(s.name for s in self.sources)
        return f"B{self.index}{{{inner}}}"


@dataclass(frozen=True)
class PlanSpace:
    """The Cartesian product of a tuple of buckets.

    May carry the user query it was built for; synthetic experiment
    spaces have ``query=None``.
    """

    buckets: tuple[Bucket, ...]
    query: Optional[ConjunctiveQuery] = None

    def __post_init__(self) -> None:
        if not isinstance(self.buckets, tuple):
            object.__setattr__(self, "buckets", tuple(self.buckets))
        if not self.buckets:
            raise ReformulationError("a plan space needs at least one bucket")
        if any(len(b) == 0 for b in self.buckets):
            raise ReformulationError("plan spaces must not contain empty buckets")

    @property
    def width(self) -> int:
        """Number of buckets (= query length)."""
        return len(self.buckets)

    @property
    def size(self) -> int:
        """Number of concrete plans in the space."""
        total = 1
        for bucket in self.buckets:
            total *= len(bucket)
        return total

    def plans(self) -> Iterator[QueryPlan]:
        """Enumerate every plan, varying the last bucket fastest."""
        for combo in itertools.product(*(b.sources for b in self.buckets)):
            yield QueryPlan(combo)

    def contains(self, plan: QueryPlan) -> bool:
        if len(plan) != self.width:
            return False
        return all(
            any(s.name == chosen.name for s in bucket.sources)
            for bucket, chosen in zip(self.buckets, plan.sources)
        )

    def split_off(self, plan: QueryPlan) -> list["PlanSpace"]:
        """Remove *plan*, returning disjoint subspaces (paper, Section 4).

        Subspace ``i`` pins buckets ``< i`` to the plan's choices,
        removes the plan's choice from bucket ``i``, and keeps buckets
        ``> i`` whole.  The subspaces are pairwise disjoint and their
        union is exactly the space minus *plan*.  Buckets that become
        empty drop their subspace.
        """
        if not self.contains(plan):
            raise ReformulationError(f"plan {plan} is not in this space")
        subspaces: list[PlanSpace] = []
        for i, (bucket, chosen) in enumerate(zip(self.buckets, plan.sources)):
            if len(bucket) == 1:
                continue
            new_buckets = (
                tuple(
                    self.buckets[j].only(plan.sources[j]) for j in range(i)
                )
                + (bucket.without(chosen),)
                + self.buckets[i + 1 :]
            )
            subspaces.append(PlanSpace(new_buckets, self.query))
        return subspaces

    def __str__(self) -> str:
        return " x ".join(str(b) for b in self.buckets)
