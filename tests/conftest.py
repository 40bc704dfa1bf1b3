"""Shared fixtures and ordering-correctness helpers."""

from __future__ import annotations

import pytest

from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.ordering.base import OrderedPlan
from repro.reformulation.plans import PlanSpace
from repro.resilience.breaker import CircuitBreaker
from repro.sources.catalog import Catalog
from repro.utility.base import UtilityMeasure
from repro.workloads.domain import Domain
from repro.workloads.movies import movie_domain
from repro.workloads.synthetic import SyntheticParams, generate_domain


def shared(model, bucket: int, first: str, second: str) -> int:
    """How many universe elements two sources' extensions share."""
    return (model.extension(bucket, first) & model.extension(bucket, second)).bit_count()


@pytest.fixture
def movies() -> Domain:
    return movie_domain()


@pytest.fixture
def tiny_domain() -> Domain:
    """A 3x3 plan space, like the paper's running example."""
    return generate_domain(
        SyntheticParams(query_length=2, bucket_size=3, seed=7)
    )


@pytest.fixture
def small_domain() -> Domain:
    """A two-bucket space small enough for brute-force cross-checks."""
    return generate_domain(
        SyntheticParams(query_length=2, bucket_size=8, seed=3)
    )


@pytest.fixture
def medium_domain() -> Domain:
    """Query length 3, as in the paper's experiments."""
    return generate_domain(
        SyntheticParams(query_length=3, bucket_size=6, seed=5)
    )


def clone_catalog(
    clones: int = 16, width: int = 3, bucket_size: int = 16
) -> tuple[Catalog, list[ConjunctiveQuery]]:
    """*clones* disjoint copies of a width x bucket_size domain in one
    catalog (the shape of the end-to-end benchmark's catalogs), with
    the product query of each clone: a request touches one clone, the
    catalog holds all of them."""
    catalog = Catalog()
    queries = []
    for clone in range(clones):
        for slot in range(width):
            catalog.add_relation(f"d{clone}r{slot}", 1)
            for member in range(bucket_size):
                catalog.add_source(
                    f"d{clone}v{slot}_{member}(Y) :- d{clone}r{slot}(Y)"
                )
        head = ", ".join(f"Y{slot}" for slot in range(width))
        body = ", ".join(f"d{clone}r{slot}(Y{slot})" for slot in range(width))
        queries.append(parse_query(f"q({head}) :- {body}"))
    return catalog, queries


@pytest.fixture
def rename_calls(monkeypatch) -> list[str]:
    """The suffix of every ``ConjunctiveQuery.rename_apart`` call made
    during the test: a deterministic count of reformulation work."""
    calls: list[str] = []
    rename_apart = ConjunctiveQuery.rename_apart

    def counting(self, suffix):
        calls.append(suffix)
        return rename_apart(self, suffix)

    monkeypatch.setattr(ConjunctiveQuery, "rename_apart", counting)
    return calls


@pytest.fixture
def state_reads(monkeypatch) -> list[int]:
    """``[n]``: the ``CircuitBreaker.state`` reads made during the test."""
    reads = [0]
    state = CircuitBreaker.state

    def counting(self):
        reads[0] += 1
        return state.fget(self)

    monkeypatch.setattr(CircuitBreaker, "state", property(counting))
    return reads


def assert_valid_ordering(
    results: list[OrderedPlan],
    space: PlanSpace,
    utility: UtilityMeasure,
    tolerance: float = 1e-9,
) -> None:
    """Check Definition 2.1: each emitted plan maximizes the
    conditional utility over the not-yet-emitted plans.

    Robust to ties: any tie-breaking choice is a correct ordering, so
    we verify optimality step by step instead of comparing against one
    specific reference sequence.
    """
    context = utility.new_context()
    remaining = {plan.key: plan for plan in space.plans()}
    for entry in results:
        assert entry.plan.key in remaining, f"{entry.plan} emitted twice"
        value = utility.evaluate(entry.plan, context)
        assert value == pytest.approx(entry.utility, abs=tolerance), (
            f"reported utility {entry.utility} != recomputed {value} "
            f"for {entry.plan}"
        )
        best = max(
            utility.evaluate(plan, context) for plan in remaining.values()
        )
        assert value == pytest.approx(best, abs=tolerance), (
            f"{entry.plan} has utility {value}, but {best} was available"
        )
        del remaining[entry.plan.key]
        context.record(entry.plan)


def assert_descending(results: list[OrderedPlan]) -> None:
    """Context-free orderings must be non-increasing in utility."""
    utilities = [entry.utility for entry in results]
    assert utilities == sorted(utilities, reverse=True)
