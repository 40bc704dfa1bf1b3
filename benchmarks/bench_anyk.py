"""Any-k ranked enumeration: first-plan delay and peak memory.

AnyK seeds one lattice root per plan space and pays per *pop*, so its
time-to-first-plan and its peak allocation stay near-flat while
iDrips' grow with the product space (iDrips abstracts over the
materialized buckets before it can emit).  These cells reproduce the
measured table in ``docs/ordering.md``, with per-cell counters for
diffing.  The gate is deterministic and lives in tier-1:
``tests/ordering/test_call_counts.py`` holds AnyK's first plan to
``1 + width`` distinct evaluations on the 12^3 and 47^3 spaces.

Bucket sizes 22 / 47 / 100 at query length 3 give 10^4, ~10^5 and
10^6-plan spaces.
"""

import tracemalloc

import pytest

from benchmarks.conftest import cached_domain
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.idrips import IDripsOrderer

#: (bucket size, plans) — 22^3, 47^3, 100^3 at query length 3.
SPACES = (22, 47, 100)

ALGORITHMS = {"AnyK": AnyKOrderer, "iDrips": IDripsOrderer}


def _first_plan(make, domain):
    orderer = make(domain.linear_cost())
    generator = orderer.order(domain.space, 1)
    entry = next(generator)
    generator.close()
    return orderer, entry


@pytest.mark.parametrize("bucket_size", SPACES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_first_plan_delay(benchmark, algorithm, bucket_size):
    """Time from query issue to the single best plan."""
    domain = cached_domain(bucket_size)
    make = ALGORITHMS[algorithm]

    def once():
        return _first_plan(make, domain)

    orderer, entry = benchmark.pedantic(
        once, rounds=5, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["space_size"] = domain.space.size
    benchmark.extra_info["plans_evaluated"] = orderer.stats.plans_evaluated
    benchmark.extra_info["first_plan_evaluations"] = (
        orderer.stats.first_plan_evaluations
    )
    assert entry.rank == 1


@pytest.mark.parametrize("bucket_size", SPACES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_first_plan_peak_memory(benchmark, algorithm, bucket_size):
    """tracemalloc peak over one first-plan pull.

    Timed under tracemalloc, so the *seconds* here are inflated for
    both algorithms — the number that matters is ``peak_kib``.
    """
    domain = cached_domain(bucket_size)
    make = ALGORITHMS[algorithm]
    holder = {}

    def once():
        tracemalloc.start()
        try:
            result = _first_plan(make, domain)
            holder["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result

    _orderer, entry = benchmark.pedantic(once, rounds=3, iterations=1)
    benchmark.extra_info["space_size"] = domain.space.size
    benchmark.extra_info["peak_kib"] = holder["peak"] / 1024.0
    assert entry.rank == 1


def test_anyk_matches_idrips_top_k(benchmark):
    """Same utility stream as iDrips on the 10^4-plan space (k=25)."""
    domain = cached_domain(22)

    def once():
        return AnyKOrderer(domain.linear_cost()).order_list(domain.space, 25)

    anyk_results = benchmark.pedantic(once, rounds=1, iterations=1)
    idrips_results = IDripsOrderer(domain.linear_cost()).order_list(
        domain.space, 25
    )
    assert [r.utility for r in anyk_results] == pytest.approx(
        [r.utility for r in idrips_results]
    )
