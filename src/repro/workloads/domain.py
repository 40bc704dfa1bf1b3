"""One domain type for every bundled workload, and the one measure table.

A :class:`Domain` is what a workload generator returns: a catalog, the
user query, the bucket plan space, and whatever the paper's utility
measures read from it — the overlap model (coverage, Example 2.1), the
per-subgoal domain sizes (the bind-join and monetary measures of
Sections 3 and 6) and, for the domains that execute plans, the source
instances.

:data:`MEASURES` is the only place a bundled measure is built, keyed by
the names ``repro order --measure`` takes.  A domain offers exactly the
names whose inputs it has (:attr:`Domain.measure_names`): coverage
needs a model, the bind-join, failure and monetary measures need domain
sizes, linear cost needs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from repro.datalog.query import ConjunctiveQuery
from repro.errors import UtilityError
from repro.reformulation.plans import Bucket, PlanSpace
from repro.sources.catalog import Catalog
from repro.sources.overlap import OverlapModel
from repro.utility.base import UtilityMeasure
from repro.utility.cost import BindJoinCost, LinearCost
from repro.utility.coverage import CoverageUtility
from repro.utility.monetary import MonetaryCostPerTuple


@dataclass
class Domain:
    """A bundled workload: catalog, query, plan space and measure inputs.

    ``catalog`` is the catalog a mediator serves; ``space`` is the plan
    space the orderers rank.  Their sources are the same except on the
    random-LAV scenarios, whose space carries randomized statistics
    while the served catalog keeps the ``SourceStats()`` defaults.
    """

    catalog: Catalog
    query: ConjunctiveQuery
    space: PlanSpace
    model: Optional[OverlapModel] = None
    domain_sizes: Union[float, tuple[float, ...], None] = None
    source_facts: Optional[dict[str, set[tuple[object, ...]]]] = None
    #: Every source shares one transfer cost: the proviso under which
    #: the bind-join measure is fully monotonic (Section 3).
    uniform_transfer: bool = False

    @property
    def measure_names(self) -> tuple[str, ...]:
        """The :data:`MEASURES` names this domain has the inputs for."""
        return tuple(
            name
            for name, (needs, _build) in MEASURES.items()
            if all(getattr(self, field) is not None for field in needs)
        )

    def measure(self, name: str) -> UtilityMeasure:
        """A fresh measure (contexts are per run) built by :data:`MEASURES`."""
        try:
            needs, build = MEASURES[name]
        except KeyError:
            raise UtilityError(
                f"unknown measure {name!r}; have {', '.join(MEASURES)}"
            ) from None
        missing = [field for field in needs if getattr(self, field) is None]
        if missing:
            raise UtilityError(
                f"measure {name!r} needs {' and '.join(missing)}, "
                "which this domain lacks"
            )
        return build(self)


def _bind_join(domain: Domain, **options: bool) -> BindJoinCost:
    return BindJoinCost(
        access_overhead=1.0, domain_sizes=domain.domain_sizes, **options
    )


#: name -> (the Domain fields it needs, how to build it).
MEASURES: dict[
    str, tuple[tuple[str, ...], Callable[[Domain], UtilityMeasure]]
] = {
    "coverage": (("model",), lambda d: CoverageUtility(d.model)),
    "linear": ((), lambda d: LinearCost(access_overhead=1.0)),
    "bind-join": (
        ("domain_sizes",),
        lambda d: _bind_join(d, uniform_transfer=d.uniform_transfer),
    ),
    "failure": (("domain_sizes",), lambda d: _bind_join(d, failure_aware=True)),
    "failure-caching": (
        ("domain_sizes",),
        lambda d: _bind_join(d, failure_aware=True, caching=True),
    ),
    "monetary": (
        ("domain_sizes",),
        lambda d: MonetaryCostPerTuple(domain_sizes=d.domain_sizes),
    ),
    "monetary-caching": (
        ("domain_sizes",),
        lambda d: MonetaryCostPerTuple(domain_sizes=d.domain_sizes, caching=True),
    ),
}


def bucket_domain_sizes(buckets: Iterable[Bucket]) -> tuple[float, ...]:
    """Per subgoal, three times the largest source's tuple count."""
    return tuple(
        3.0 * max(source.stats.n_tuples for source in bucket.sources)
        for bucket in buckets
    )
