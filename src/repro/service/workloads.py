"""Named service workloads: catalog + facts + measures + a query.

One resolver shared by everything that boots a service around a
bundled workload — :func:`repro.cluster.worker.build_worker_service`,
which ``serve`` and every cluster worker process use (a worker must
rebuild its service from a picklable name+seed, not from live
objects), and ``bench-serve``'s query mix.
"""

from __future__ import annotations

from typing import Callable

from repro.datalog.query import ConjunctiveQuery
from repro.errors import ServiceError
from repro.sources.catalog import Catalog

__all__ = ["WORKLOAD_NAMES", "service_workload"]

#: Names accepted by :func:`service_workload` (and the CLI flags).
WORKLOAD_NAMES = ("movies", "random-lav")


def service_workload(
    name: str, seed: int
) -> tuple[Catalog, dict, dict[str, Callable], ConjunctiveQuery]:
    """(catalog, source_facts, measure factories, canonical query)."""
    if name == "movies":
        from repro.utility.cost import BindJoinCost, LinearCost
        from repro.workloads.movies import movie_domain

        domain = movie_domain()
        # "failure" is the health-reactive option: a failure-aware
        # bind-join cost that, behind a resilience manager's
        # HealthAwareMeasure, re-ranks plans as observed failure rates
        # move — the measure the adaptive chaos jobs serve with.
        measures: dict[str, Callable] = {
            "linear": LinearCost,
            "failure": lambda: BindJoinCost(failure_aware=True),
        }
        return (
            domain.catalog,
            domain.source_facts,
            measures,
            domain.query,
        )
    if name != "random-lav":
        raise ServiceError(
            f"unknown workload {name!r}; have {', '.join(WORKLOAD_NAMES)}"
        )
    from repro.workloads.random_lav import ordering_scenario

    scenario = ordering_scenario(seed)
    measures = {
        "linear": scenario.linear_cost,
        "bind-join": scenario.bind_join_cost,
        "coverage": scenario.coverage,
        "monetary": scenario.monetary,
    }
    return (
        scenario.scenario.catalog,
        scenario.scenario.source_facts,
        measures,
        scenario.scenario.query,
    )
