"""The movie domain of the paper's Figure 1.

Schema relations ``play_in(A, M)``, ``review_of(R, M)``,
``american(M)``, ``russian(M)``; six sources ``v1..v6``; and the
sample query *"reviews of movies starring Harrison Ford"*::

    q(M, R) :- play_in(ford, M), review_of(R, M)

The module also ships a small hand-made instance so the end-to-end
examples and tests can execute real plans: sources are deliberately
*incomplete* and overlapping, as in the paper's setting.
"""

from __future__ import annotations

from repro.datalog.parser import parse_query
from repro.reformulation.buckets import build_buckets
from repro.sources.catalog import Catalog
from repro.sources.statistics import SourceStats
from repro.workloads.domain import Domain


def movie_domain() -> Domain:
    """Build the Figure 1 domain with a runnable instance.

    Its cost measures assume 1000 values per join attribute; it has no
    overlap model, so it offers no coverage measure.
    """
    catalog = Catalog()
    catalog.add_relation("play_in", 2)
    catalog.add_relation("review_of", 2)
    catalog.add_relation("american", 1)
    catalog.add_relation("russian", 1)

    catalog.add_source(
        "v1(A, M) :- play_in(A, M), american(M)",
        stats=SourceStats(n_tuples=40, transfer_cost=1.0),
    )
    catalog.add_source(
        "v2(A, M) :- play_in(A, M), russian(M)",
        stats=SourceStats(n_tuples=15, transfer_cost=1.2),
    )
    catalog.add_source(
        "v3(A, M) :- play_in(A, M)",
        stats=SourceStats(n_tuples=90, transfer_cost=0.8),
    )
    catalog.add_source(
        "v4(R, M) :- review_of(R, M)",
        stats=SourceStats(n_tuples=60, transfer_cost=1.5),
    )
    catalog.add_source(
        "v5(R, M) :- review_of(R, M)",
        stats=SourceStats(n_tuples=35, transfer_cost=0.6),
    )
    catalog.add_source(
        "v6(R, M) :- review_of(R, M)",
        stats=SourceStats(n_tuples=80, transfer_cost=1.1),
    )

    query = parse_query("q(M, R) :- play_in(ford, M), review_of(R, M)")

    # Harrison Ford filmography fragment plus decoys; sources are
    # incomplete and overlap partially.
    source_facts: dict[str, set[tuple[object, ...]]] = {
        "v1": {  # american movies only
            ("ford", "star_wars"),
            ("ford", "witness"),
            ("ford", "the_fugitive"),
            ("fisher", "star_wars"),
        },
        "v2": {  # russian movies only
            ("mashkov", "thief"),
            ("menshikov", "east_west"),
        },
        "v3": {  # anyone, any movie (incomplete)
            ("ford", "star_wars"),
            ("ford", "blade_runner"),
            ("ford", "frantic"),
            ("mashkov", "thief"),
        },
        "v4": {
            ("a_space_opera_classic", "star_wars"),
            ("a_gripping_chase", "the_fugitive"),
            ("noir_masterpiece", "blade_runner"),
        },
        "v5": {
            ("a_space_opera_classic", "star_wars"),
            ("amish_thriller_that_works", "witness"),
        },
        "v6": {
            ("noir_masterpiece", "blade_runner"),
            ("tense_paris_mystery", "frantic"),
            ("heartfelt_wartime_drama", "east_west"),
        },
    }
    return Domain(
        catalog,
        query,
        build_buckets(query, catalog),
        domain_sizes=1000.0,
        source_facts=source_facts,
    )
