"""Property tests: abstract-plan intervals contain every member's utility.

This is the single invariant the Drips family's exactness rests on
(paper, Section 5.1): the interval of an abstract plan must contain
the utility of *all* concrete plans it represents, in every execution
context.  The oracle for it and for the measures' other declared flags
is the ``SCN006`` lint rule (:mod:`repro.analysis.scenario`), run here
over every plan of small random synthetic spaces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.scenario import ScenarioContext, check_measure_properties
from repro.workloads.synthetic import SyntheticParams, generate_domain


def domains():
    return st.builds(
        lambda seed, overlap, length: generate_domain(
            SyntheticParams(
                query_length=length,
                bucket_size=4,
                overlap_rate=overlap,
                seed=seed,
            )
        ),
        seed=st.integers(0, 50),
        overlap=st.sampled_from([0.0, 0.3, 0.8]),
        length=st.integers(1, 3),
    )


def measures_of(domain):
    return [
        domain.measure("coverage"),
        domain.measure("linear"),
        domain.measure("bind-join"),
        domain.measure("failure"),
        domain.measure("failure-caching"),
        domain.measure("monetary"),
        domain.measure("monetary-caching"),
    ]


def measure_findings(domain, kind):
    """SCN006's findings of one *kind* on the domain, every plan sampled."""
    context = ScenarioContext(
        name="synthetic",
        catalog=domain.catalog,
        query=domain.query,
        measures=tuple(measures_of(domain)),
    )
    findings = list(check_measure_properties(context))
    return [d.message for d in findings if kind in d.message]


@given(domains())
@settings(max_examples=40, deadline=None)
def test_interval_contains_every_member(domain):
    assert measure_findings(domain, "interval evaluation is unsound") == []


@given(domains())
@settings(max_examples=30, deadline=None)
def test_singleton_slots_give_point_interval_equal_to_evaluate(domain):
    assert measure_findings(domain, "not to the plan's own utility") == []


@given(domains())
@settings(max_examples=30, deadline=None)
def test_refinement_narrows_intervals(domain):
    """Child slots (subset of members) yield sub-intervals; this is
    what lets dominance links transfer from a refined parent."""
    slots = tuple(tuple(b.sources) for b in domain.space.buckets)
    for measure in measures_of(domain):
        context = measure.new_context()
        parent = measure.evaluate_slots(slots, context)
        half = tuple(
            members[: max(1, len(members) // 2)] for members in slots
        )
        child = measure.evaluate_slots(half, context)
        slack = 1e-9 * max(1.0, abs(parent.lo), abs(parent.hi))
        assert parent.lo - slack <= child.lo
        assert child.hi <= parent.hi + slack


@given(domains(), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_independence_oracle_is_sound(domain, probe_index):
    """If a measure declares two plans independent, executing one must
    not change the other's utility."""
    plans = list(domain.space.plans())
    probe = plans[probe_index % len(plans)]
    for measure in measures_of(domain):
        for other in plans[:6]:
            if not measure.independent(probe, other):
                continue
            fresh = measure.new_context()
            before = measure.evaluate(probe, fresh)
            fresh.record(other)
            after = measure.evaluate(probe, fresh)
            assert after == pytest.approx(before), (
                f"{measure.name} claimed {probe} independent of {other}"
            )


@given(domains())
@settings(max_examples=25, deadline=None)
def test_diminishing_returns_flag_is_honest(domain):
    """Measures advertising diminishing returns must never increase a
    plan's utility as more plans execute."""
    assert measure_findings(domain, "claims diminishing returns") == []
