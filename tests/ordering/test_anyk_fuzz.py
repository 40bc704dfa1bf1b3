"""Randomized cross-checks of AnyK against brute force.

Every :func:`~repro.workloads.random_lav.fuzz_ordering_space` draw is
a bucket product reformulation rarely produces — heavy-tailed bucket
sizes, adversarial fee structures, the degenerate single-bucket space
— capped at 2000 plans so :class:`ExhaustiveOrderer` stays a feasible
oracle.  Each assertion names the seed, so a failure replays with
``fuzz_ordering_space(seed)`` directly.
"""

from functools import partial

import pytest

from tests.ordering.equivalence import (
    assert_matches_bruteforce,
    assert_streams_equivalent,
    utility_stream,
)

from repro.errors import NotApplicableError, ReformulationError
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.bruteforce import ExhaustiveOrderer
from repro.reformulation.plans import Bucket, PlanSpace
from repro.workloads.random_lav import fuzz_ordering_space

#: 28 seeds cover all four fee profiles (seed mod 4) and hit the
#: single-bucket degenerate draw (seed mod 7 == 3) four times.
FUZZ_SEEDS = tuple(range(28))

#: Linear cost is fully monotonic on every draw, bind-join on the
#: uniform-transfer draws; on the others AnyK must refuse.
MEASURES = ("linear", "bind-join")

MAX_PLANS = 2000


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
@pytest.mark.parametrize("measure_name", MEASURES)
def test_anyk_matches_bruteforce_on_fuzz_space(seed, measure_name):
    fuzz = fuzz_ordering_space(seed, max_plans=MAX_PLANS)
    label = f"fuzz_ordering_space({seed}), measure={measure_name}"
    assert fuzz.space.size <= MAX_PLANS, label
    make = partial(fuzz.measure, measure_name)
    if not make().is_fully_monotonic:
        with pytest.raises(NotApplicableError):
            AnyKOrderer(make())
        return
    k = min(10, fuzz.space.size)
    assert_matches_bruteforce(
        AnyKOrderer,
        fuzz.space,
        make,
        k,
        label=label,
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_anyk_full_drain_matches_bruteforce(seed):
    """Exhausting the whole space (not just top-k) agrees with the
    oracle — the successor lattice must reach every plan exactly once."""
    fuzz = fuzz_ordering_space(seed, max_plans=200)
    k = fuzz.space.size
    candidate = utility_stream(AnyKOrderer(fuzz.measure("linear")), fuzz.space, k)
    reference = utility_stream(
        ExhaustiveOrderer(fuzz.measure("linear")), fuzz.space, k
    )
    label = f"fuzz_ordering_space({seed})"
    assert len(candidate) == k, label
    assert_streams_equivalent(candidate, reference, label=label)


def test_fuzz_family_draws_single_bucket_spaces():
    widths = {
        fuzz_ordering_space(seed).space.width for seed in FUZZ_SEEDS
    }
    assert 1 in widths, "no degenerate single-bucket draw in the family"
    assert widths - {1}, "family collapsed to single-bucket spaces only"


def fees(fuzz):
    """Every source's (access fee, fee per item)."""
    return {
        (source.stats.access_fee, source.stats.fee_per_item)
        for bucket in fuzz.space.buckets
        for source in bucket.sources
    }


def test_fuzz_family_covers_every_fee_profile():
    drawn = [fees(fuzz_ordering_space(seed)) for seed in FUZZ_SEEDS]
    assert {(0.0, 0.0)} in drawn, "no all-free draw"
    assert {(1.5, 0.1)} in drawn, "no all-tied draw"
    spreads = [
        max(access for access, _ in pairs) / min(access for access, _ in pairs)
        for pairs in drawn
        if len(pairs) > 1
    ]
    assert max(spreads) > 100, "no fees spanning orders of magnitude"
    assert min(spreads) < 6, "no i.i.d. fees in [0.5, 3.0]"


def test_fuzz_spaces_are_deterministic_per_seed():
    first = fuzz_ordering_space(5)
    second = fuzz_ordering_space(5)
    assert fees(first) == fees(second)
    assert first.uniform_transfer == second.uniform_transfer
    assert [p.key for p in first.space.plans()] == [
        p.key for p in second.space.plans()
    ]


def test_empty_bucket_space_is_rejected():
    """The documented boundary: a bucket with no covering sources has
    no conjunctive plans, and the space refuses to exist."""
    with pytest.raises(ReformulationError):
        PlanSpace((Bucket(0, ()),))
