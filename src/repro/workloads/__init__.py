"""Workload construction: synthetic experiment domains and the paper's
named domains (movies from Figure 1, digital cameras from Section 3).

Every generator returns one :class:`Domain`; :data:`MEASURES` is the
one table of the utility measures a domain offers.
"""

from repro.workloads.cameras import camera_domain
from repro.workloads.domain import MEASURES, Domain
from repro.workloads.movies import movie_domain
from repro.workloads.paper_example import paper_example
from repro.workloads.random_lav import certain_answers_three_ways, random_scenario
from repro.workloads.synthetic import SyntheticParams, generate_domain

__all__ = [
    "MEASURES",
    "Domain",
    "SyntheticParams",
    "camera_domain",
    "certain_answers_three_ways",
    "generate_domain",
    "movie_domain",
    "paper_example",
    "random_scenario",
]
