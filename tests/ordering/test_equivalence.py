"""Cross-algorithm equivalence: every orderer solves Definition 2.1.

For random domains and every applicable (algorithm, measure) pair, the
emitted sequence must be a valid greedy-max ordering; on tie-free
measures all algorithms must produce identical utility sequences.

The shared machinery (orderer rosters, utility-stream assertions, the
20-seed LAV sweep parameters) lives in the reusable kit
``tests/ordering/equivalence.py``; this suite drives it.
"""

from functools import partial

import pytest

from tests.conftest import assert_valid_ordering
from tests.ordering.equivalence import (
    MONOTONIC_SWEEP_MEASURES,
    SWEEP_MEASURES,
    SWEEP_SEEDS,
    applicable_orderers,
    assert_matches_bruteforce,
    assert_streams_equivalent,
    lav_scenario,
    utility_stream,
)

from repro.ordering.anyk import AnyKOrderer
from repro.ordering.bruteforce import PIOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.workloads.synthetic import SyntheticParams, generate_domain

SEEDS = [1, 2, 3, 4]


def domain_for(seed: int, overlap: float = 0.3):
    return generate_domain(
        SyntheticParams(
            query_length=2, bucket_size=6, overlap_rate=overlap, seed=seed
        )
    )


MEASURES = {
    "coverage": lambda d: d.measure("coverage"),
    "failure": lambda d: d.measure("failure"),
    "failure+caching": lambda d: d.measure("failure-caching"),
    "monetary": lambda d: d.measure("monetary"),
    "monetary+caching": lambda d: d.measure("monetary-caching"),
    "linear": lambda d: d.measure("linear"),
    "bind-join": lambda d: d.measure("bind-join"),
}


def orderers_for(measure_name, domain):
    return applicable_orderers(lambda: MEASURES[measure_name](domain))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("measure_name", sorted(MEASURES))
def test_every_orderer_emits_valid_ordering(seed, measure_name):
    domain = domain_for(seed)
    k = 12
    for orderer in orderers_for(measure_name, domain):
        results = orderer.order_list(domain.space, k)
        assert len(results) == k, f"{orderer.name} returned too few plans"
        assert_valid_ordering(
            results, domain.space, MEASURES[measure_name](domain)
        ), f"{orderer.name} on {measure_name}, seed {seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "measure_name", ["failure", "monetary", "linear", "bind-join"]
)
def test_tie_free_measures_identical_sequences(seed, measure_name):
    """Context-free measures with float-valued stats essentially never
    tie, so all algorithms must agree plan for plan."""
    domain = domain_for(seed)
    k = 12
    sequences = []
    for orderer in orderers_for(measure_name, domain):
        results = orderer.order_list(domain.space, k)
        sequences.append([r.utility for r in results])
    for other in sequences[1:]:
        assert other == pytest.approx(sequences[0])


@pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
def test_coverage_agreement_across_overlap_rates(overlap):
    domain = domain_for(seed=11, overlap=overlap)
    k = 10
    pi = PIOrderer(domain.measure("coverage")).order_list(domain.space, k)
    streamer = StreamerOrderer(domain.measure("coverage")).order_list(domain.space, k)
    idrips = IDripsOrderer(domain.measure("coverage")).order_list(domain.space, k)
    assert [r.utility for r in streamer] == pytest.approx(
        [r.utility for r in pi]
    )
    assert [r.utility for r in idrips] == pytest.approx(
        [r.utility for r in pi]
    )


#: Satellite property sweep: random LAV scenarios, >= 20 seeds.
RANDOM_LAV_SEEDS = list(SWEEP_SEEDS)

#: The four utility-measure families, via Domain factories.
RANDOM_LAV_MEASURES = SWEEP_MEASURES


def lav_orderers(scenario, measure_name):
    """Every applicable orderer, brute force first (see the kit)."""
    return applicable_orderers(partial(scenario.measure, measure_name))


@pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS)
@pytest.mark.parametrize("measure_name", RANDOM_LAV_MEASURES)
def test_random_lav_orderings_valid(seed, measure_name):
    """Definition 2.1 holds on bucket spaces of random LAV scenarios,
    not just on the synthetic generator's."""
    scenario = lav_scenario(seed)
    k = min(6, scenario.space.size)
    for orderer in lav_orderers(scenario, measure_name):
        results = orderer.order_list(scenario.space, k)
        assert len(results) == k, f"{orderer.name} returned too few plans"
        assert_valid_ordering(
            results, scenario.space, scenario.measure(measure_name)
        ), f"{orderer.name} on {measure_name}, seed {seed}"


@pytest.mark.parametrize("seed", RANDOM_LAV_SEEDS)
@pytest.mark.parametrize("measure_name", RANDOM_LAV_MEASURES)
def test_random_lav_same_topk_utilities(seed, measure_name):
    """All applicable algorithms emit the same top-k utility sequence.

    Utility sequences (not plan sequences) are tie-robust for the
    monotone measures; the fixed seeds keep the context-sensitive
    cases deterministic.
    """
    scenario = lav_scenario(seed)
    k = min(6, scenario.space.size)
    sequences = []
    for orderer in lav_orderers(scenario, measure_name):
        results = orderer.order_list(scenario.space, k)
        sequences.append([r.utility for r in results])
    for other in sequences[1:]:
        assert other == pytest.approx(sequences[0]), (
            f"{measure_name}, seed {seed}"
        )


def test_random_lav_greedy_applies_to_both_monotone_measures():
    """The uniform-transfer construction really yields fully monotonic
    bind-join costs (Section 3's proviso)."""
    scenario = lav_scenario(0)
    assert scenario.measure("linear").is_fully_monotonic
    assert scenario.measure("bind-join").is_fully_monotonic
    assert not scenario.measure("coverage").is_fully_monotonic
    assert not scenario.measure("monetary").is_fully_monotonic


class TestAnyKStreamEquivalence:
    """The tentpole's acceptance sweep, via the shared kit.

    AnyK must be utility-equivalent to brute force and to iDrips on
    every small space under the fully monotonic measures (20 seeds ×
    2 measures) — the only ones it accepts.
    """

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    @pytest.mark.parametrize("measure_name", MONOTONIC_SWEEP_MEASURES)
    def test_anyk_matches_bruteforce(self, seed, measure_name):
        scenario = lav_scenario(seed)
        k = min(8, scenario.space.size)
        assert_matches_bruteforce(
            AnyKOrderer,
            scenario.space,
            partial(scenario.measure, measure_name),
            k,
            label=f"anyk vs bruteforce, {measure_name}, seed {seed}",
        )

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    @pytest.mark.parametrize("measure_name", MONOTONIC_SWEEP_MEASURES)
    def test_anyk_matches_idrips_on_monotonic(self, seed, measure_name):
        scenario = lav_scenario(seed)
        make = partial(scenario.measure, measure_name)
        assert make().is_fully_monotonic
        k = min(8, scenario.space.size)
        assert_streams_equivalent(
            utility_stream(AnyKOrderer(make()), scenario.space, k),
            utility_stream(IDripsOrderer(make()), scenario.space, k),
            label=f"anyk vs idrips, {measure_name}, seed {seed}",
        )


def test_query_length_one():
    domain = generate_domain(
        SyntheticParams(query_length=1, bucket_size=10, seed=6)
    )
    k = 5
    pi = PIOrderer(domain.measure("coverage")).order_list(domain.space, k)
    streamer = StreamerOrderer(domain.measure("coverage")).order_list(domain.space, k)
    assert [r.utility for r in streamer] == pytest.approx([r.utility for r in pi])


def test_query_length_four():
    domain = generate_domain(
        SyntheticParams(query_length=4, bucket_size=4, seed=6)
    )
    k = 8
    pi = PIOrderer(domain.measure("coverage")).order_list(domain.space, k)
    streamer = StreamerOrderer(domain.measure("coverage")).order_list(domain.space, k)
    idrips = IDripsOrderer(domain.measure("coverage")).order_list(domain.space, k)
    assert [r.utility for r in streamer] == pytest.approx([r.utility for r in pi])
    assert [r.utility for r in idrips] == pytest.approx([r.utility for r in pi])
