"""The digital-camera domain sketched in the paper's Section 3.

Hundreds of online camera resellers fall into natural groups —
discount resellers, specialized stores, national electronics chains,
general retailers — and review sites split into free and paid groups.
This module builds a catalog with that group structure, group-coherent
statistics, and an overlap model whose extensions reflect each group's
product range.  It is the showcase domain for similarity-based
abstraction: an orderer that reasons about groups can discard entire
classes of resellers without inspecting each one.

Query: *"cameras on offer together with a review"*::

    q(C, R) :- offer(C), review_of(C, R)
"""

from __future__ import annotations

import random

from repro.datalog.parser import parse_query
from repro.reformulation.buckets import build_buckets
from repro.sources.catalog import Catalog
from repro.sources.overlap import OverlapModel
from repro.sources.statistics import SourceStats
from repro.workloads.domain import Domain, bucket_domain_sizes

#: (group name, member count, camera-range fraction, fee level, items)
_RESELLER_GROUPS = (
    ("discount", 10, 0.25, 0.2, 30),
    ("specialist", 8, 0.45, 1.5, 55),
    ("chain", 6, 0.70, 1.0, 90),
    ("retail", 8, 0.40, 0.6, 50),
)

_REVIEW_GROUPS = (
    ("free", 8, 0.50, 0.0, 60),
    ("paid", 6, 0.75, 2.0, 95),
)

#: Size of the camera-model universe (bucket 0) and the review-pair
#: universe (bucket 1) in the overlap model.
_CAMERAS = 96
_REVIEW_PAIRS = 128


def camera_domain(seed: int = 0) -> Domain:
    """Build the Section 3 camera domain (deterministic per seed).

    A source is named after its group: ``discount3`` is the fourth
    discount reseller.
    """
    rng = random.Random(seed)
    catalog = Catalog()
    catalog.add_relation("offer", 1)
    catalog.add_relation("review_of", 2)

    extensions: dict[tuple[int, str], int] = {}

    def add_group_sources(
        bucket: int,
        universe: int,
        view_template: str,
        group_name: str,
        count: int,
        range_fraction: float,
        fee_level: float,
        items: int,
    ) -> None:
        # Each group focuses on a contiguous band of the universe so
        # that same-group extensions overlap heavily.
        band_size = max(1, int(universe * range_fraction))
        band_start = rng.randrange(max(1, universe - band_size + 1))
        for member in range(count):
            name = f"{group_name}{member}"
            size = max(1, int(band_size * rng.uniform(0.6, 0.95)))
            mask = 0
            for bit in rng.sample(range(band_size), size):
                mask |= 1 << (band_start + bit)
            extensions[(bucket, name)] = mask
            stats = SourceStats(
                n_tuples=max(1, round(items * rng.uniform(0.8, 1.2))),
                transfer_cost=rng.uniform(0.5, 1.5),
                failure_prob=rng.uniform(0.0, 0.1),
                access_fee=fee_level * rng.uniform(0.8, 1.2),
                fee_per_item=fee_level * 0.05 * rng.uniform(0.8, 1.2),
            )
            catalog.add_source(view_template.format(name=name), stats=stats)

    for group_name, count, fraction, fee, items in _RESELLER_GROUPS:
        add_group_sources(
            0, _CAMERAS, "{name}(C) :- offer(C)", group_name, count, fraction,
            fee, items,
        )
    for group_name, count, fraction, fee, items in _REVIEW_GROUPS:
        add_group_sources(
            1, _REVIEW_PAIRS, "{name}(C, R) :- review_of(C, R)", group_name,
            count, fraction, fee, items,
        )

    query = parse_query("q(C, R) :- offer(C), review_of(C, R)")
    space = build_buckets(query, catalog)
    model = OverlapModel((_CAMERAS, _REVIEW_PAIRS), extensions)
    return Domain(
        catalog, query, space, model, bucket_domain_sizes(space.buckets)
    )
