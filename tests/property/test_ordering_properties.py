"""Cross-cutting ordering properties checked over random domains."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.workloads.synthetic import SyntheticParams, generate_domain


def small_domains():
    return st.builds(
        lambda seed, overlap: generate_domain(
            SyntheticParams(
                query_length=2, bucket_size=5, overlap_rate=overlap, seed=seed
            )
        ),
        seed=st.integers(0, 30),
        overlap=st.sampled_from([0.0, 0.3, 0.7]),
    )


ORDERER_FACTORIES = {
    "PI": (PIOrderer, "coverage"),
    "Exhaustive": (ExhaustiveOrderer, "coverage"),
    "iDrips": (IDripsOrderer, "coverage"),
    "Streamer": (StreamerOrderer, "coverage"),
    "Greedy": (GreedyOrderer, "linear"),
}


def make(domain, name):
    cls, measure = ORDERER_FACTORIES[name]
    utility = domain.measure("coverage") if measure == "coverage" else domain.measure("linear")
    return cls(utility)


@given(small_domains(), st.sampled_from(sorted(ORDERER_FACTORIES)))
@settings(max_examples=40, deadline=None)
def test_prefix_stability(domain, name):
    """Asking for more plans never changes the earlier ones.

    This is what lets the mediator start executing the first plans
    while the ordering continues — the property the paper's lazy
    formulation relies on.
    """
    short = make(domain, name).order_list(domain.space, 4)
    long = make(domain, name).order_list(domain.space, 12)
    assert [r.plan.key for r in long[:4]] == [r.plan.key for r in short]
    assert [r.utility for r in long[:4]] == pytest.approx(
        [r.utility for r in short]
    )


@given(small_domains(), st.sampled_from(sorted(ORDERER_FACTORIES)))
@settings(max_examples=40, deadline=None)
def test_no_duplicates_and_membership(domain, name):
    results = make(domain, name).order_list(domain.space, domain.space.size)
    keys = [r.plan.key for r in results]
    assert len(keys) == len(set(keys)) == domain.space.size
    assert all(domain.space.contains(r.plan) for r in results)


@given(small_domains(), st.sampled_from(["PI", "iDrips", "Streamer"]))
@settings(max_examples=40, deadline=None)
def test_determinism(domain, name):
    first = make(domain, name).order_list(domain.space, 8)
    second = make(domain, name).order_list(domain.space, 8)
    assert [r.plan.key for r in first] == [r.plan.key for r in second]
    assert [r.utility for r in first] == [r.utility for r in second]


@given(small_domains())
@settings(max_examples=30, deadline=None)
def test_coverage_orderings_all_valid(domain):
    """PI, iDrips and Streamer each emit a Definition 2.1 ordering.

    Exact utility *sequences* may legitimately diverge once an exact
    tie occurs (different tie picks change later residuals), so the
    invariant is step-wise optimality, not sequence equality.
    """
    from tests.conftest import assert_valid_ordering

    k = 8
    for name in ("PI", "iDrips", "Streamer"):
        results = make(domain, name).order_list(domain.space, k)
        assert_valid_ordering(results, domain.space, domain.measure("coverage"))
