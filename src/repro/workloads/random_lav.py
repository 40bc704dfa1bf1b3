"""Random local-as-view scenarios for cross-validation.

Generates random mediated schemas, random conjunctive views over them,
random conjunctive queries, and random source instances.  The point is
adversarial testing of the reformulation stack: on any such scenario
the three independent pipelines —

1. bucket algorithm + soundness test + plan execution,
2. MiniCon rewritings + execution,
3. inverse rules + datalog evaluation,

are cross-checked.  MiniCon and inverse rules are *complete* for
conjunctive queries, so their answers must coincide exactly; the
bucket pipeline builds only one-source-per-subgoal conjunctive plans,
which is sound but famously incomplete when a view covers several
subgoals through a hidden join variable (the very gap MiniCon was
invented to close), so its answers must be a subset.  A violation of
either relation pinpoints a reformulation bug that hand-written
examples would likely miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Variable
from repro.errors import ReformulationError
from repro.execution.instances import product_query
from repro.reformulation.plans import Bucket, PlanSpace
from repro.sources.catalog import Catalog, SourceDescription
from repro.sources.overlap import OverlapModel
from repro.sources.statistics import SourceStats
from repro.workloads.domain import Domain, bucket_domain_sizes

#: Constants in a random schema instance, facts drawn per relation,
#: and the chance a view's tuple is kept in its source (sources are
#: incomplete, as in the paper).
_DOMAIN_SIZE = 5
_FACTS_PER_RELATION = 8
_SOURCE_COMPLETENESS = 0.7
#: The smallest plan space :func:`ordering_scenario` accepts, and the
#: universe width of its overlap model.
_MIN_PLANS = 6
_SCENARIO_UNIVERSE_BITS = 24
#: The universe width of :func:`fuzz_ordering_space`'s overlap model.
_FUZZ_UNIVERSE_BITS = 16


@dataclass
class RandomScenario:
    """One random LAV setup with a concrete instance."""

    catalog: Catalog
    query: ConjunctiveQuery
    source_facts: dict[str, set[tuple[object, ...]]]
    schema_facts: dict[str, set[tuple[object, ...]]]


def random_scenario(
    seed: int,
    n_relations: int = 3,
    n_sources: int = 5,
    query_subgoals: int = 2,
    view_subgoals: int = 2,
) -> RandomScenario:
    """Build a random scenario; deterministic per seed.

    Views are conjunctions of 1..``view_subgoals`` schema atoms whose
    heads expose a random nonempty subset of the body variables; the
    query is a conjunction of ``query_subgoals`` atoms with a random
    nonempty head.  Source instances are random subsets of the views'
    exact extensions over a random schema instance, so sources are
    incomplete (as in the paper's setting) and every source tuple
    genuinely satisfies its description.
    """
    rng = random.Random(seed)
    catalog = Catalog()
    arities = {}
    for index in range(n_relations):
        arity = rng.choice((1, 2, 2))  # binary-heavy, as usual
        name = f"rel{index}"
        catalog.add_relation(name, arity)
        arities[name] = arity

    # Random schema instance.
    domain = [f"c{i}" for i in range(_DOMAIN_SIZE)]
    schema_facts: dict[str, set[tuple[object, ...]]] = {}
    for name, arity in arities.items():
        rows = set()
        for _ in range(_FACTS_PER_RELATION):
            rows.add(tuple(rng.choice(domain) for _ in range(arity)))
        schema_facts[name] = rows

    variables = [Variable(f"X{i}") for i in range(6)]

    def random_body(n_atoms: int) -> tuple[Atom, ...]:
        body = []
        for _ in range(n_atoms):
            name = rng.choice(list(arities))
            args = tuple(
                rng.choice(variables[: 2 * n_atoms]) for _ in range(arities[name])
            )
            body.append(Atom(name, args))
        return tuple(body)

    # Random views + their exact extensions + sampled instances.
    from repro.execution.engine import evaluate_conjunctive_query

    source_facts: dict[str, set[tuple[object, ...]]] = {}
    for index in range(n_sources):
        body = random_body(rng.randint(1, view_subgoals))
        body_vars = sorted(
            {v for atom in body for v in atom.variables()},
            key=lambda v: v.name,
        )
        head_size = rng.randint(1, len(body_vars))
        head_vars = tuple(rng.sample(body_vars, head_size))
        name = f"src{index}"
        # Safe by construction: the head takes only body variables.
        view = ConjunctiveQuery(Atom(name, head_vars), body)
        catalog.add_source(view)
        extension = evaluate_conjunctive_query(view, schema_facts)
        kept = {
            row
            for row in extension
            if rng.random() < _SOURCE_COMPLETENESS
        }
        source_facts[name] = kept

    # Random query; retried until it is safe (always, by construction).
    body = random_body(query_subgoals)
    body_vars = sorted(
        {v for atom in body for v in atom.variables()}, key=lambda v: v.name
    )
    head_size = rng.randint(1, min(3, len(body_vars)))
    head_vars = tuple(rng.sample(body_vars, head_size))
    query = ConjunctiveQuery(Atom("q", head_vars), body)

    return RandomScenario(catalog, query, source_facts, schema_facts)


def ordering_scenario(seed: int) -> Domain:
    """A random LAV scenario whose plan space supports ordering tests.

    Draws :func:`random_scenario` instances at seeds derived
    deterministically from *seed* until the bucket algorithm yields a
    plan space with at least six plans, then enriches its space:

    * every source gets randomized :class:`SourceStats` (one
      description per source *name*: a source appearing in several
      buckets keeps its last draw) with uniform transfer cost, so the
      uniform-transfer bind-join measure really is fully monotonic
      (Section 3's proviso) on these scenarios;
    * every (bucket, source) pair gets a random extension bitmask in a
      24-bit universe, forming the :class:`OverlapModel`.

    The domain's catalog, query and instances are the drawn
    scenario's, whose sources keep the ``SourceStats()`` defaults; only
    its space carries the random statistics.
    """
    from repro.reformulation.buckets import build_buckets

    # Distinct stream from the scenario seeds; int-seeded so it stays
    # deterministic across processes (str/tuple seeding hashes).
    rng = random.Random(seed * 7919 + 13)
    scenario = None
    space = None
    for attempt in range(100):
        candidate_seed = seed * 1009 + attempt
        candidate = random_scenario(candidate_seed)
        try:
            candidate_space = build_buckets(candidate.query, candidate.catalog)
        except ReformulationError:
            continue
        if candidate_space.size >= _MIN_PLANS:
            scenario, space = candidate, candidate_space
            break
    if scenario is None or space is None:
        raise ReformulationError(
            f"no random scenario with >= {_MIN_PLANS} plans near seed {seed}"
        )

    enriched: dict[str, SourceDescription] = {}
    for bucket in space.buckets:
        for source in bucket.sources:
            stats = SourceStats(
                n_tuples=rng.randint(1, 200),
                transfer_cost=1.0,
                failure_prob=rng.uniform(0.0, 0.3),
                access_fee=rng.uniform(0.5, 3.0),
                fee_per_item=rng.uniform(0.01, 0.2),
            )
            enriched[source.name] = SourceDescription(
                source.name, source.view, stats
            )

    buckets = tuple(
        Bucket(
            bucket.index,
            tuple(enriched[source.name] for source in bucket.sources),
            bucket.subgoal,
        )
        for bucket in space.buckets
    )
    rich_space = PlanSpace(buckets, space.query)

    extensions = {
        (bucket.index, source.name): (
            rng.getrandbits(_SCENARIO_UNIVERSE_BITS) or 1
        )
        for bucket in buckets
        for source in bucket.sources
    }
    return Domain(
        scenario.catalog,
        scenario.query,
        rich_space,
        OverlapModel([_SCENARIO_UNIVERSE_BITS] * len(buckets), extensions),
        bucket_domain_sizes(buckets),
        scenario.source_facts,
        uniform_transfer=True,
    )


#: Adversarial fee structures the fuzz generator cycles through.
FEE_PROFILES = ("iid", "tied", "zero", "extreme")


def _fuzz_fees(rng: random.Random, profile: str) -> tuple[float, float]:
    """(access_fee, fee_per_item) under an adversarial fee structure."""
    if profile == "tied":
        # Identical for every source: the monetary measure ties on
        # every plan with the same output estimate.
        return 1.5, 0.1
    if profile == "zero":
        # Free sources: MonetaryCostPerTuple's output floor keeps the
        # per-tuple division defined; utilities collapse to 0.
        return 0.0, 0.0
    if profile == "extreme":
        # Several orders of magnitude, so one bucket coordinate can
        # dominate every other choice.
        return 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-4, 1)
    return rng.uniform(0.5, 3.0), rng.uniform(0.01, 0.2)


def _fuzz_bucket_sizes(
    rng: random.Random, width: int, max_plans: int
) -> list[int]:
    """Heavy-tailed sizes whose product stays at or below *max_plans*."""
    sizes = [1 + min(60, int(rng.paretovariate(0.9))) for _ in range(width)]
    while True:
        product = 1
        for size in sizes:
            product *= size
        if product <= max_plans:
            return sizes
        largest = max(range(width), key=lambda i: sizes[i])
        sizes[largest] = max(1, sizes[largest] // 2)


def fuzz_ordering_space(seed: int, max_plans: int = 2000) -> Domain:
    """A randomized plan space for brute-force cross-checks.

    Unlike :func:`ordering_scenario` there is no LAV reformulation in
    the loop: the buckets are fabricated, which lets the generator
    reach shapes reformulation rarely produces — heavy-tailed bucket
    sizes (one giant bucket next to singletons), adversarial fee
    structures (:data:`FEE_PROFILES`, one per seed in turn), non-uniform
    transfer costs, and the degenerate single-bucket space.

    Deterministic per *seed*.  Every seventh seed draws the degenerate
    single-bucket space; the rest draw 2–4 buckets with heavy-tailed
    (Pareto) sizes, clamped so the product never exceeds *max_plans*
    and stays brute-forceable.  The *empty*-bucket degenerate case
    cannot be represented: :class:`PlanSpace` rejects it at
    construction.
    """
    rng = random.Random(seed * 9973 + 29)
    width = 1 if seed % 7 == 3 else rng.randint(2, 4)
    sizes = _fuzz_bucket_sizes(rng, width, max_plans)
    fee_profile = FEE_PROFILES[seed % len(FEE_PROFILES)]
    uniform_transfer = rng.random() < 0.5

    catalog = Catalog()
    for level in range(width):
        catalog.add_relation(f"r{level + 1}", 1)
    buckets = []
    extensions: dict[tuple[int, str], int] = {}
    for bucket_index, size in enumerate(sizes):
        members = []
        for j in range(size):
            access_fee, fee_per_item = _fuzz_fees(rng, fee_profile)
            stats = SourceStats(
                # Heavy-tailed output estimates to stress abstraction
                # intervals and the per-tuple division.
                n_tuples=1 + min(10_000, int(3 * rng.paretovariate(1.2))),
                transfer_cost=(
                    1.0 if uniform_transfer else rng.uniform(0.5, 2.0)
                ),
                failure_prob=rng.uniform(0.0, 0.4),
                access_fee=access_fee,
                fee_per_item=fee_per_item,
            )
            name = f"f{bucket_index}_{j}"
            members.append(
                catalog.add_source(
                    f"{name}(Y) :- r{bucket_index + 1}(Y)", stats=stats
                )
            )
            extensions[(bucket_index, name)] = (
                rng.getrandbits(_FUZZ_UNIVERSE_BITS) or 1
            )
        buckets.append(Bucket(bucket_index, tuple(members)))

    query = product_query(width)
    return Domain(
        catalog,
        query,
        PlanSpace(tuple(buckets), query),
        OverlapModel([_FUZZ_UNIVERSE_BITS] * width, extensions),
        bucket_domain_sizes(buckets),
        uniform_transfer=uniform_transfer,
    )


def certain_answers_three_ways(
    scenario: RandomScenario,
) -> tuple[set, set, Optional[set]]:
    """(bucket+soundness, inverse rules, MiniCon) answers.

    The MiniCon entry is None when the bucket algorithm finds no
    covering sources for some subgoal (then both plan-based pipelines
    yield no plans, and inverse rules is the only generic oracle).
    """
    from repro.execution.engine import evaluate_conjunctive_query, execute_plan
    from repro.reformulation.buckets import build_buckets
    from repro.reformulation.inverse_rules import answer_with_inverse_rules
    from repro.reformulation.minicon import minicon_plan_queries

    inverse = answer_with_inverse_rules(
        scenario.catalog, scenario.query, scenario.source_facts
    )

    bucket_answers: set = set()
    try:
        space = build_buckets(scenario.query, scenario.catalog)
    except ReformulationError:
        space = None
    if space is not None:
        for plan in space.plans():
            result = execute_plan(scenario.query, plan, scenario.source_facts)
            if result is not None:
                bucket_answers |= result

    minicon_answers: set = set()
    for rewriting in minicon_plan_queries(scenario.query, scenario.catalog):
        minicon_answers |= evaluate_conjunctive_query(
            rewriting, scenario.source_facts
        )

    return bucket_answers, inverse, minicon_answers
