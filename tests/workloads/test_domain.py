"""The one Domain type and the one measure table."""

import pytest

from repro.cli import main
from repro.errors import ServiceError, UtilityError
from repro.service.workloads import service_workload
from repro.utility.cost import BindJoinCost, LinearCost
from repro.workloads import (
    MEASURES,
    camera_domain,
    generate_domain,
    movie_domain,
    paper_example,
)
from repro.workloads.domain import Domain, bucket_domain_sizes
from repro.workloads.random_lav import fuzz_ordering_space, ordering_scenario

#: Every bundled generator, with the measure names its domain offers.
BUNDLED = {
    "synthetic": (
        lambda: generate_domain(bucket_size=4, query_length=2, seed=1),
        tuple(MEASURES),
    ),
    "random-lav": (lambda: ordering_scenario(0), tuple(MEASURES)),
    "fuzz": (lambda: fuzz_ordering_space(5), tuple(MEASURES)),
    "cameras": (camera_domain, tuple(MEASURES)),
    "movies": (movie_domain, tuple(n for n in MEASURES if n != "coverage")),
    "paper-example": (paper_example, ("coverage", "linear")),
}


def test_order_measure_choices_are_the_table(capsys):
    with pytest.raises(SystemExit):
        main(["order", "--measure", "no-such-measure"])
    error = capsys.readouterr().err
    choices = error.split("choose from ", 1)[1].strip().rstrip(")")
    assert [c.strip(" '") for c in choices.split(",")] == list(MEASURES)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_every_offered_measure_evaluates_the_first_plan(name):
    make, offered = BUNDLED[name]
    domain = make()
    assert isinstance(domain, Domain)
    assert domain.measure_names == offered
    plan = next(domain.space.plans())
    for measure_name in offered:
        measure = domain.measure(measure_name)
        assert isinstance(measure.evaluate(plan, measure.new_context()), float)
    for measure_name in set(MEASURES) - set(offered):
        with pytest.raises(UtilityError, match="needs"):
            domain.measure(measure_name)


def test_an_unknown_measure_is_refused():
    with pytest.raises(UtilityError, match="unknown measure 'nope'"):
        paper_example().measure("nope")


def test_each_workload_serves_its_measures():
    names = {
        workload: list(service_workload(workload, 0)[2])
        for workload in ("movies", "random-lav")
    }
    assert names == {
        "movies": ["linear", "failure"],
        "random-lav": ["linear", "bind-join", "coverage", "monetary"],
    }


def test_an_unknown_workload_is_refused():
    with pytest.raises(ServiceError, match="unknown workload 'nope'"):
        service_workload("nope", 0)


class TestParameters:
    """Each measure keeps the parameters its domain gave it before the
    table was one."""

    def test_served_movie_failure_is_the_default_failure_aware_cost(self):
        served = service_workload("movies", 0)[2]["failure"]()
        assert vars(served) == vars(BindJoinCost(failure_aware=True))

    def test_linear_pays_one_per_access(self):
        served = service_workload("random-lav", 0)[2]["linear"]()
        assert vars(served) == vars(LinearCost(access_overhead=1.0))

    def test_random_lav_bind_join_assumes_uniform_transfer(self):
        assert ordering_scenario(0).measure("bind-join").uniform_transfer
        synthetic = generate_domain(bucket_size=4, query_length=2, seed=1)
        assert not synthetic.measure("bind-join").uniform_transfer

    def test_domain_sizes_are_three_times_the_largest_source(self):
        domain = generate_domain(bucket_size=4, query_length=2, seed=1)
        assert domain.domain_sizes == tuple(
            3.0 * max(s.stats.n_tuples for s in bucket.sources)
            for bucket in domain.space.buckets
        )
        assert bucket_domain_sizes(domain.space.buckets) == domain.domain_sizes

    def test_random_lav_serves_the_raw_catalog(self):
        # The drawn scenario's sources keep the SourceStats() defaults;
        # only the ordering space carries the random statistics.
        domain = ordering_scenario(0)
        assert {s.stats.n_tuples for s in domain.catalog} == {100}
        assert {
            s.stats.n_tuples
            for bucket in domain.space.buckets
            for s in bucket.sources
        } != {100}


def test_every_public_top_level_name_is_exported():
    """What ``repro/__init__.py`` imports for its users is in ``__all__``
    (``OverlapModel`` once was not)."""
    import inspect

    import repro

    public = {
        name
        for name, value in vars(repro).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(repro.__all__)
