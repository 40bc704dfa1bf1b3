"""Reusable property-based stream-equivalence kit.

Every orderer — current or future — is validated the same way: its
emitted utility stream must match brute force (and therefore every
other exact orderer) rank for rank.  Plan *identity* may differ
wherever utilities tie, since each orderer documents its own
tie-breaking; utility values may not.  Suites import this kit instead
of hand-rolling sweeps:

* ``SWEEP_SEEDS`` × ``SWEEP_MEASURES`` — the 20-seed × 4-measure
  property sweep over random LAV scenarios;
* :func:`applicable_orderers` — every algorithm sound for a measure,
  brute force first, so cross-checks always include the oracle;
* :func:`assert_matches_bruteforce` /
  :func:`assert_streams_equivalent` — the equivalence assertions,
  with a caller-supplied label printed on failure for replay.

This module is a library, not a test file — pytest does not collect
it.  The suites that drive it live in ``test_equivalence.py`` (the
sweep) and ``test_anyk_fuzz.py`` (randomized bucket products).
"""

from __future__ import annotations

import functools

import pytest

from repro.ordering.anyk import AnyKOrderer
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.workloads.random_lav import ordering_scenario

#: The property sweep: 20 random LAV scenarios ...
SWEEP_SEEDS = tuple(range(20))

#: ... under the four utility-measure families (factory names on the
#: scenario/domain objects).
SWEEP_MEASURES = ("linear", "bind-join", "coverage", "monetary")

#: The fully monotonic subset on LAV scenarios (uniform transfer makes
#: bind-join monotonic there) — where iDrips, Greedy and AnyK are
#: all exact and comparable.
MONOTONIC_SWEEP_MEASURES = ("linear", "bind-join")


@functools.lru_cache(maxsize=None)
def lav_scenario(seed: int):
    """The sweep's scenario at *seed*, cached across parametrizations."""
    return ordering_scenario(seed)


def applicable_orderers(make_measure):
    """Every orderer sound for the measure, brute force (the oracle)
    first.

    Exhaustive, PI and iDrips handle any measure; Streamer needs
    diminishing returns, Greedy and AnyK full monotonicity (paper,
    Sections 4-5), so they join only when the measure's flags allow.
    """
    orderers = [
        ExhaustiveOrderer(make_measure()),
        PIOrderer(make_measure()),
        IDripsOrderer(make_measure()),
    ]
    probe = make_measure()
    if probe.has_diminishing_returns:
        orderers.append(StreamerOrderer(make_measure()))
    if probe.is_fully_monotonic:
        orderers.append(GreedyOrderer(make_measure()))
        orderers.append(AnyKOrderer(make_measure()))
    return orderers


def utility_stream(orderer, space, k: int) -> list[float]:
    """The first *k* emitted utilities of *orderer* on *space*."""
    return [entry.utility for entry in orderer.order_list(space, k)]


def assert_streams_equivalent(candidate, reference, label: str = "") -> None:
    """Utility-equivalence: the same value at every rank.

    Robust to ties by construction — any tie-breaking permutation of
    equal-utility plans produces the same utility sequence.
    """
    assert candidate == pytest.approx(reference), (
        f"{label}: utility stream {candidate} != reference {reference}"
    )


def assert_matches_bruteforce(
    make_orderer, space, make_measure, k: int, label: str = ""
) -> None:
    """*make_orderer*'s stream equals brute force's on *space*."""
    reference = utility_stream(ExhaustiveOrderer(make_measure()), space, k)
    candidate = utility_stream(make_orderer(make_measure()), space, k)
    assert_streams_equivalent(candidate, reference, label)
