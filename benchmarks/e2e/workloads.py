"""The five workloads: generated inputs, request lists, service wiring.

Everything here is a pure function of ``(workload name, seed)``, so the
server subprocess, the client, the oracle and the traced run all
rebuild identical inputs independently.

What the seed controls, and what it must not: the driver (and
``compare``) gate every end-to-end metric on its spread *across seeds*,
so a seed may not change the amount of work.  The structure of each
workload (the synthetic domain behind the clones, the random-LAV
scenario and its 16-query mix) is therefore drawn from the fixed
``STRUCTURE_SEED``; the ``--seed`` argument draws what is
work-preserving: each clone's per-bucket permutation of universe
elements (so every mask, instance and answer tuple differs), the order
clones are queried in, and the order of the wire request sequence.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom
from repro.execution.instances import materialize_instances, product_query
from repro.observability.journal import EventJournal
from repro.reformulation.plans import Bucket, PlanSpace
from repro.resilience.manager import ResilienceManager
from repro.service import protocol
from repro.service.loadgen import build_query_mix
from repro.service.policy import RequestPolicy
from repro.service.server import QueryService, ServiceConfig
from repro.service.workloads import service_workload
from repro.sources.catalog import Catalog
from repro.sources.overlap import OverlapModel
from repro.utility.cost import LinearCost
from repro.utility.coverage import CoverageUtility
from repro.workloads.random_lav import RandomScenario
from repro.workloads.synthetic import SyntheticParams, generate_domain

#: Seed of everything that decides how much work a request is.
STRUCTURE_SEED = 0

#: Distinct queries in the ``wire-*`` mix.
MIX_SIZE = 16


@dataclass(frozen=True)
class Spec:
    """The fixed parameters of one workload (names are cited by issues)."""

    name: str
    why: str
    #: Longest request list of one server life; a round stops earlier
    #: when its time budget runs out.
    requests: int
    #: Requests of the traced passes at the default run length.
    trace_requests: int
    measure: Optional[str] = None
    orderer: Optional[str] = None
    max_plans: Optional[int] = None
    #: Untimed requests at the start of every server life (hot cache).
    warmup: int = 0
    clones: int = 0
    bucket_size: int = 0
    bits_per_group: int = 0
    #: Journal to a file + resilience manager + request tracing on.
    observed: bool = False

    @property
    def cold(self) -> bool:
        """The list queries each clone once: every request is first-seen."""
        return self.requests == self.clones


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "order-bound",
            "cold coverage/Streamer on a 4096-plan space: ordering and utility "
            "evaluation are most of the request, execution and encode are small",
            requests=16, trace_requests=12,
            measure="coverage", orderer="streamer", max_plans=20,
            clones=16, bucket_size=16, bits_per_group=4,
        ),
        Spec(
            "plan-stream",
            "500 tiny plans off the any-k lattice of a 103823-plan space: "
            "per-plan fixed costs (soundness, engine call, encode, hand-offs) dominate",
            requests=64, trace_requests=5,
            measure="linear", max_plans=500,
            clones=4, bucket_size=47, bits_per_group=4,
        ),
        Spec(
            "exec-bound",
            "10 big joins, ~8900 answers and ~1.5 MB per request: datalog "
            "execution and wire encode dominate, ordering is under 1 %",
            requests=64, trace_requests=6,
            measure="linear", max_plans=10,
            clones=4, bucket_size=16, bits_per_group=32,
        ),
        Spec(
            "wire-small",
            "16-query random-LAV mix, ~1.5 ms requests with few answers, hot cache: "
            "the fixed per-request price of the service layer and nothing else",
            requests=20000, trace_requests=800, warmup=48,
        ),
        Spec(
            "wire-observed",
            "wire-small traffic with journal file, resilience manager and request "
            "tracing on: prices every operator channel beside the bare path",
            requests=20000, trace_requests=800, warmup=48,
            observed=True,
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One query record of a request list."""

    text: str
    #: Which clone (or which query of the mix) this request addresses.
    key: int
    measure: Optional[str] = None
    orderer: Optional[str] = None
    max_plans: Optional[int] = None

    def record(self, request_id: str) -> dict:
        return protocol.request_record(
            self.text,
            request_id=request_id,
            measure=self.measure,
            orderer=self.orderer,
            max_plans=self.max_plans,
        )


@dataclass
class Workload:
    """Generated inputs of one workload at one seed."""

    spec: Spec
    seed: int
    catalog: Catalog
    facts: dict[str, set[tuple[object, ...]]]
    measures: dict[str, Callable]
    requests: list[Request]
    #: Clone workloads: the one overlap model and each clone's space.
    model: Optional[OverlapModel] = None
    spaces: list[PlanSpace] = field(default_factory=list)
    #: ``wire-*``: the random-LAV scenario the mix was drawn over.
    scenario: Optional[RandomScenario] = None
    generate_s: float = 0.0
    materialize_s: float = 0.0

    def fresh_measure(self, name: Optional[str]):
        """An uncached measure, as the oracle needs it."""
        return self.measures[name or ServiceConfig().default_measure]()


def permute_mask(mask: int, permutation: list[int]) -> int:
    """Move bit ``e`` of *mask* to bit ``permutation[e]``."""
    out = 0
    element = 0
    while mask:
        if mask & 1:
            out |= 1 << permutation[element]
        mask >>= 1
        element += 1
    return out


def clone_query(clone: int, width: int) -> ConjunctiveQuery:
    """The product query over clone *clone*'s relations."""
    query = product_query(width)
    body = tuple(
        Atom(f"d{clone}{atom.predicate}", atom.args) for atom in query.body
    )
    return ConjunctiveQuery(query.head, body)


def _build_clones(spec: Spec, seed: int) -> Workload:
    """``spec.clones`` isomorphic copies of one domain in one catalog."""
    started = time.perf_counter()
    base = generate_domain(
        SyntheticParams(
            bucket_size=spec.bucket_size,
            bits_per_group=spec.bits_per_group,
            seed=STRUCTURE_SEED,
        )
    )
    rng = random.Random(seed)
    universe = base.model.universe_size(0)
    catalog = Catalog()
    extensions: dict[tuple[int, str], int] = {}
    spaces: list[PlanSpace] = []
    for clone in range(spec.clones):
        buckets = []
        for bucket in base.space.buckets:
            relation = f"d{clone}r{bucket.index + 1}"
            catalog.add_relation(relation, 1)
            permutation = list(range(universe))
            rng.shuffle(permutation)
            members = []
            for source in bucket.sources:
                name = f"d{clone}{source.name}"
                extensions[(bucket.index, name)] = permute_mask(
                    base.model.extension(bucket.index, source.name), permutation
                )
                members.append(
                    catalog.add_source(
                        f"{name}(Y) :- {relation}(Y)", stats=source.stats
                    )
                )
            buckets.append(Bucket(bucket.index, tuple(members)))
        spaces.append(PlanSpace(tuple(buckets)))
    model = OverlapModel([universe] * base.space.width, extensions)
    order = list(range(spec.clones))
    rng.shuffle(order)
    requests = [
        Request(
            str(clone_query(order[i % spec.clones], base.space.width)),
            order[i % spec.clones],
            spec.measure,
            spec.orderer,
            spec.max_plans,
        )
        for i in range(spec.requests)
    ]
    generated = time.perf_counter()
    facts: dict[str, set[tuple[object, ...]]] = {}
    for space in spaces:
        facts.update(materialize_instances(space, model)[0])
    materialized = time.perf_counter()
    return Workload(
        spec, seed, catalog, facts,
        {
            "coverage": lambda: CoverageUtility(model),
            "linear": lambda: LinearCost(access_overhead=1.0),
        },
        requests,
        model=model,
        spaces=spaces,
        generate_s=generated - started,
        materialize_s=materialized - generated,
    )


def _build_wire(spec: Spec, seed: int) -> Workload:
    """The bundled random-LAV catalog under a balanced 16-query mix."""
    if sys.flags.hash_randomization:
        # random_scenario samples source instances while iterating a
        # set of string tuples, so its output follows the hash seed.
        raise RuntimeError(
            "the wire-* workloads need PYTHONHASHSEED=0 to generate the same "
            "inputs in every process; the benchmark's entry points pin it"
        )
    started = time.perf_counter()
    catalog, facts, measures, canonical = service_workload(
        "random-lav", STRUCTURE_SEED
    )
    mix = build_query_mix(
        catalog, MIX_SIZE, seed=STRUCTURE_SEED, include=canonical
    )
    # Every block of MIX_SIZE requests holds each query once, so any
    # prefix of the list is (nearly) the same traffic at every seed.
    rng = random.Random(seed)
    requests: list[Request] = []
    while len(requests) < spec.requests:
        block = list(range(MIX_SIZE))
        rng.shuffle(block)
        requests.extend(Request(mix[key], key) for key in block)
    generated = time.perf_counter()
    scenario = RandomScenario(catalog, canonical, facts, {})
    return Workload(
        spec, seed, catalog, facts, measures, requests[: spec.requests],
        scenario=scenario,
        generate_s=generated - started,
        # service_workload materialises the instances while generating;
        # the two cannot be told apart from outside.
        materialize_s=0.0,
    )


def build_workload(name: str, seed: int) -> Workload:
    try:
        spec = SPECS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; have {', '.join(SPECS)}"
        ) from None
    return _build_clones(spec, seed) if spec.clones else _build_wire(spec, seed)


def make_service(
    workload: Workload,
    *,
    journal: Optional[EventJournal] = None,
    resilience: bool = False,
    trace_requests: bool = False,
) -> QueryService:
    """A ``QueryService`` configured as ``repro serve`` configures it."""
    config = ServiceConfig(
        max_concurrent=8,
        backlog=32,
        default_policy=RequestPolicy(deadline_s=None),
        trace_requests=trace_requests,
    )
    return QueryService(
        workload.catalog,
        workload.facts,
        measures=workload.measures,
        config=config,
        resilience=ResilienceManager(breakers=True) if resilience else None,
        journal=journal,
    )
