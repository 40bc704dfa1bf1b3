"""Synthetic experiment domains (paper, Section 6).

The paper runs its experiments on synthetic data whose generator lives
in an unpublished tech report; this module provides a generator that
reproduces the *structure* the paper describes:

* buckets of configurable size (the x-axis of Figure 6), query length
  1-7 (3 by default);
* sources organized into *groups* of similar sources — the property
  that makes large domains "especially suited to abstraction
  techniques" (Section 3);
* an *overlap rate*: the fraction of source pairs (from different
  groups) whose extensions overlap — "each source in a bucket overlaps
  with 30% of other sources in the bucket" (Section 6);
* per-source statistics correlated within groups (tuple counts,
  transfer costs, failure probabilities) so the paper's
  output-count abstraction heuristic is informative for coverage and
  cost measures, and *uncorrelated* monetary fees, which make the
  heuristic weak for the average-monetary-cost measure — matching the
  paper's observations in Figures 6.j-l.

Layout of a bucket's universe: each group owns a contiguous block of
``bits_per_group`` bits.  A source's extension is a dense random
subset of its group's block (so same-group sources overlap heavily
and have similar sizes), plus a small sliver inside each *partner*
group's block (group pairs are partners with probability
``overlap_rate``), so cross-group overlap exists exactly for partner
pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReformulationError
from repro.execution.instances import product_query
from repro.reformulation.plans import Bucket, PlanSpace
from repro.sources.catalog import Catalog, SourceDescription
from repro.sources.overlap import OverlapModel
from repro.sources.statistics import SourceStats
from repro.workloads.domain import Domain, bucket_domain_sizes

#: Tuples a source reports per element of its own group's block.
_TUPLES_PER_ELEMENT = 4.0
#: How far a member's extension strays from its group core.
_MUTATION_RATE = 0.05


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs of the synthetic generator."""

    query_length: int = 3
    bucket_size: int = 24
    overlap_rate: float = 0.3
    groups_per_bucket: Optional[int] = None
    bits_per_group: int = 32
    seed: int = 0

    def resolved_groups(self) -> int:
        if self.groups_per_bucket is not None:
            return max(1, self.groups_per_bucket)
        return max(2, self.bucket_size // 6)

    def __post_init__(self) -> None:
        if self.query_length < 1:
            raise ReformulationError("query_length must be at least 1")
        if self.bucket_size < 1:
            raise ReformulationError("bucket_size must be at least 1")
        if not 0.0 <= self.overlap_rate <= 1.0:
            raise ReformulationError("overlap_rate must be in [0, 1]")


def generate_domain(
    params: Optional[SyntheticParams] = None, **overrides: object
) -> Domain:
    """Generate a reproducible synthetic domain.

    Either pass a :class:`SyntheticParams` or keyword overrides, e.g.
    ``generate_domain(bucket_size=48, overlap_rate=0.5, seed=7)``.
    """
    if params is None:
        params = SyntheticParams(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise TypeError("pass either params or keyword overrides, not both")

    rng = random.Random(params.seed)
    width = params.query_length
    groups = params.resolved_groups()
    block = params.bits_per_group
    universe = groups * block

    catalog = Catalog()
    for level in range(width):
        catalog.add_relation(f"r{level + 1}", 1)

    extensions: dict[tuple[int, str], int] = {}
    buckets: list[Bucket] = []
    for bucket_index in range(width):
        # Per-group characteristics: density drives both extension size
        # and tuple count, so the output-count heuristic clusters groups.
        density = [rng.uniform(0.3, 0.9) for _ in range(groups)]
        alpha = [rng.uniform(0.5, 2.0) for _ in range(groups)]
        failure = [rng.uniform(0.0, 0.15) for _ in range(groups)]
        # Partner group pairs share a fixed sliver of each other's
        # block: every member of g covers a few tuples of h's region,
        # so g-h source pairs overlap while non-partner pairs do not.
        # The sliver is per *pair*, not per member, keeping same-group
        # extensions nearly identical (tight abstraction intervals).
        sliver = max(1, block // 8)
        partners: dict[int, dict[int, int]] = {g: {} for g in range(groups)}
        for g in range(groups):
            for h in range(g + 1, groups):
                if rng.random() < params.overlap_rate:
                    partners[g][h] = _random_mask(rng, block, sliver / block)
                    partners[h][g] = _random_mask(rng, block, sliver / block)
        # Each group has a *core* extension its members closely share —
        # the source-similarity property that makes abstraction pay off
        # (paper, Section 3).
        cores = [
            _random_mask(rng, block, density[g]) for g in range(groups)
        ]

        members: list[SourceDescription] = []
        for j in range(params.bucket_size):
            group = j * groups // params.bucket_size
            name = f"v{bucket_index}_{j}"
            mask = _member_mask(rng, group, partners[group], cores, block)
            extensions[(bucket_index, name)] = mask
            own_bits = _popcount_in_block(mask, group, block)
            stats = SourceStats(
                n_tuples=max(
                    1,
                    round(
                        own_bits
                        * _TUPLES_PER_ELEMENT
                        * rng.uniform(0.95, 1.05)
                    ),
                ),
                transfer_cost=alpha[group] * rng.uniform(0.9, 1.1),
                failure_prob=min(0.8, failure[group] * rng.uniform(0.8, 1.2)),
                # Fees are i.i.d. across sources, deliberately
                # uncorrelated with groups (see module docstring).
                access_fee=rng.uniform(0.5, 3.0),
                fee_per_item=rng.uniform(0.01, 0.2),
            )
            members.append(
                catalog.add_source(
                    f"{name}(Y) :- r{bucket_index + 1}(Y)", stats=stats
                )
            )
        buckets.append(Bucket(bucket_index, tuple(members)))

    query = product_query(width)
    space = PlanSpace(tuple(buckets), query)
    model = OverlapModel([universe] * width, extensions)
    return Domain(
        catalog, query, space, model, bucket_domain_sizes(buckets)
    )


def _random_mask(rng: random.Random, block: int, density: float) -> int:
    """A random subset of a block with the given density (at least 1 bit)."""
    size = max(1, min(block, round(density * block)))
    mask = 0
    for bit in rng.sample(range(block), size):
        mask |= 1 << bit
    return mask


def _member_mask(
    rng: random.Random,
    group: int,
    partner_groups: dict[int, int],
    cores: list[int],
    block: int,
) -> int:
    """The group core, lightly mutated, plus slivers in partner blocks.

    A member keeps each core bit with probability ``1 - _MUTATION_RATE``
    and gains each non-core bit of its home block with probability
    ``_MUTATION_RATE * core_density`` — so members stay close to the
    core (tight abstraction intervals) while remaining distinct.
    """
    core = cores[group]
    core_size = core.bit_count()
    gain_rate = _MUTATION_RATE * core_size / max(1, block - core_size)
    own = 0
    for bit in range(block):
        present = bool(core >> bit & 1)
        if present and rng.random() >= _MUTATION_RATE:
            own |= 1 << bit
        elif not present and rng.random() < gain_rate:
            own |= 1 << bit
    if own == 0:
        own = core or 1
    mask = own << (group * block)
    for partner, sliver_mask in partner_groups.items():
        mask |= sliver_mask << (partner * block)
    return mask


def _popcount_in_block(mask: int, group: int, block: int) -> int:
    segment = (mask >> (group * block)) & ((1 << block) - 1)
    return segment.bit_count()
