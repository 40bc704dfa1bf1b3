"""The running example of the paper's Sections 5.1-5.2 (Figure 3).

Two buckets of three sources each; sources are drawn as circles whose
overlaps mean extension overlaps.  We materialize one concrete overlap
model with the figure's qualitative layout:

* bucket 0: ``v1`` and ``v2`` are small and overlap each other and the
  large ``v3``;
* bucket 1: ``v4`` is large, ``v5`` overlaps both neighbours, and
  ``v6`` is disjoint from ``v4`` — the disjointness the paper uses to
  show link ``v3v56 -> v1v456`` staying valid after ``v3v4`` is
  removed ("``V6`` and ``V4`` do not overlap").

The best plan under coverage is ``v3 v4``, as in the paper's
walk-through, and the independence facts used by Streamer's recycling
argument hold by construction.
"""

from __future__ import annotations

from repro.execution.instances import product_query
from repro.reformulation.plans import Bucket, PlanSpace
from repro.sources.catalog import Catalog, SourceDescription
from repro.sources.overlap import OverlapModel
from repro.sources.statistics import SourceStats
from repro.workloads.domain import Domain

#: Universe size of each bucket.
_UNIVERSE = 20


def _mask(*ranges: tuple[int, int]) -> int:
    mask = 0
    for start, stop in ranges:
        for bit in range(start, stop):
            mask |= 1 << bit
    return mask


#: Extensions in the layout described in the module docstring.
_EXTENSIONS = {
    (0, "v1"): _mask((12, 18)),
    (0, "v2"): _mask((14, 20)),
    (0, "v3"): _mask((0, 16)),
    (1, "v4"): _mask((0, 14)),
    (1, "v5"): _mask((4, 16)),
    (1, "v6"): _mask((14, 20)),
}


def paper_example() -> Domain:
    """Build the Section 5.1/5.2 example domain."""
    catalog = Catalog({"r1": 1, "r2": 1})
    sources: dict[str, SourceDescription] = {}
    for (bucket, name), mask in _EXTENSIONS.items():
        relation = f"r{bucket + 1}"
        sources[name] = catalog.add_source(
            f"{name}(Y) :- {relation}(Y)",
            stats=SourceStats(n_tuples=mask.bit_count() * 5),
        )
    buckets = (
        Bucket(0, (sources["v1"], sources["v2"], sources["v3"])),
        Bucket(1, (sources["v4"], sources["v5"], sources["v6"])),
    )
    query = product_query(2)
    model = OverlapModel((_UNIVERSE, _UNIVERSE), _EXTENSIONS)
    return Domain(catalog, query, PlanSpace(buckets, query), model)
