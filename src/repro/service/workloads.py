"""Named service workloads: catalog + facts + measures + a query.

One resolver shared by everything that boots a service around a
bundled workload — :func:`repro.cluster.worker.build_worker_service`,
which ``serve`` and every cluster worker process use (a worker must
rebuild its service from a picklable name+seed, not from live
objects), and ``bench-serve``'s query mix.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.datalog.query import ConjunctiveQuery
from repro.errors import ServiceError
from repro.sources.catalog import Catalog

__all__ = ["SERVED_MEASURES", "WORKLOAD_NAMES", "service_workload"]

#: The measures each workload serves, by :data:`repro.workloads.MEASURES`
#: name; a workload's first is its default.  The movie workload's
#: "failure" is the health-reactive option: a failure-aware bind-join
#: cost that, behind a resilience manager's HealthAwareMeasure,
#: re-ranks plans as observed failure rates move — the measure the
#: adaptive chaos jobs serve with.
SERVED_MEASURES: dict[str, tuple[str, ...]] = {
    "movies": ("linear", "failure"),
    "random-lav": ("linear", "bind-join", "coverage", "monetary"),
}

#: Names accepted by :func:`service_workload` (and the CLI flags).
WORKLOAD_NAMES = tuple(SERVED_MEASURES)


def service_workload(
    name: str, seed: int
) -> tuple[Catalog, dict, dict[str, Callable], ConjunctiveQuery]:
    """(catalog, source_facts, measure factories, canonical query)."""
    if name == "movies":
        from repro.workloads.movies import movie_domain

        domain = movie_domain()
    elif name == "random-lav":
        from repro.workloads.random_lav import ordering_scenario

        domain = ordering_scenario(seed)
    else:
        raise ServiceError(
            f"unknown workload {name!r}; have {', '.join(WORKLOAD_NAMES)}"
        )
    measures = {
        measure: partial(domain.measure, measure)
        for measure in SERVED_MEASURES[name]
    }
    return domain.catalog, domain.source_facts, measures, domain.query
