"""The perf-baseline harness behind ``repro profile``.

Runs the repository's hot paths headlessly — no pytest, no sockets
unless asked — and produces one JSON document (``BENCH_PR5.json`` in
CI) that later runs diff against:

* **ordering** — plans-per-second of the Greedy and PI orderers on
  the camera domain (the ``bench_greedy`` cell);
* **overhead** — the cost of the observability hooks on the mediator
  loop: the hooked ``Mediator.answer`` with journalling *off* (the
  default everyone pays) and *on*, and with tracing on, each as a
  ratio over a hand-inlined control loop with no journal hooks at
  all.  The ``journal_off_ratio`` is the number CI bounds (≤ 1.05):
  disabled instrumentation must stay within noise of free;
* **service** — time-to-first-answer and total latency percentiles of
  the in-process :class:`~repro.service.server.QueryService` under a
  concurrent query mix;
* **deterministic** — a timing-free fingerprint of the same workload
  (answer counts, journal event counts, an answer checksum), byte-
  reproducible under a fixed seed, so a diff separates "got slower"
  from "computes something else now".

Rounds are interleaved (control, hooked, control, ...) and medians
reported, which keeps the ratios stable on noisy CI machines.  This
module computes and returns; the CLI does the printing.
"""

from __future__ import annotations

import hashlib
import statistics
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from repro.datalog.parser import parse_query
from repro.execution.mediator import AnswerBatch, Mediator
from repro.resilience.chaos import ChaosBackend, ChaosProfile, FaultProfile
from repro.resilience.manager import ResilienceManager
from repro.observability.journal import EventJournal
from repro.observability.tracing import Stopwatch, Tracer
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.bruteforce import PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.service.loadgen import build_query_mix, percentile
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, QueryService, ServiceConfig
from repro.utility.cost import BindJoinCost, LinearCost
from repro.workloads.cameras import camera_domain
from repro.workloads.movies import movie_domain
from repro.workloads.synthetic import SyntheticParams, generate_domain

__all__ = [
    "run_profile",
    "check_profile",
    "run_anyk_profile",
    "check_anyk_profile",
    "run_cluster_profile",
    "check_cluster_profile",
    "run_adaptive_profile",
    "check_adaptive_profile",
    "adaptive_chaos_profile",
    "adaptive_scenario",
    "adaptive_trial",
    "adaptive_stream_digest",
    "BASELINE_SCHEMA_VERSION",
]

#: Bump when the document layout changes incompatibly.
BASELINE_SCHEMA_VERSION = 1

#: CI bound: hooked-but-disabled journalling may cost at most this
#: fraction over the no-hooks control loop (see ``check_profile``).
MAX_JOURNAL_OFF_OVERHEAD = 0.05

#: Bucket sizes for the AnyK first-plan baseline: 22^3 ≈ 10^4,
#: 47^3 ≈ 10^5 and 100^3 = 10^6 plans at query length 3.
ANYK_BUCKET_SIZES = (22, 47, 100)
ANYK_QUICK_BUCKET_SIZES = (12, 22)

#: CI bound: AnyK's time-to-first-plan must be at most 1/10th of
#: iDrips' on the gate space (see ``check_anyk_profile``).
MIN_ANYK_SPEEDUP = 10.0

#: The gate applies to the smallest measured space of at least this
#: many plans (the "10^5-plan space" of the acceptance criteria).
ANYK_GATE_MIN_SPACE = 100_000

#: Cluster scale-out arms measured by ``run_cluster_profile`` (worker
#: counts beyond the single-process baseline) and the CI bounds on
#: aggregate-throughput scaling for each arm.
CLUSTER_WORKER_COUNTS = (2, 4)
MIN_CLUSTER_SCALING = {2: 1.6, 4: 3.0}

#: The adaptive-vs-fixed baseline (``BENCH_PR9.json``) runs on the
#: random-LAV scenario at this seed: a 16-plan space whose statically
#: best-ranked prefix is dominated by one source, so an outage on it
#: strands a fixed order behind doomed plans while the adaptive
#: orderer routes around after the first failure.
ADAPTIVE_SCENARIO_SEED = 3

#: The source every top-ranked plan of that scenario touches.
ADAPTIVE_DOOMED_SOURCE = "src0"

#: Injected per-attempt stall on the doomed source: each access hangs
#: this long and then fails — a timing-out outage, the worst case for
#: an order that ranked the source's plans on top.
ADAPTIVE_CHAOS_LATENCY_S = 0.02

#: CI bound: the adaptive arm's time-to-first-answer p90 must be at
#: most this fraction of the fixed-order arm's under the outage chaos.
MAX_ADAPTIVE_TTFA_RATIO = 0.8

#: The cluster benchmark multiplies the bundled ``slow`` chaos
#: profile's per-source latency by this factor (10 ms -> 100 ms).  The
#: benchmark host has one CPU core, so CPU-bound serving cannot scale
#: with processes at all; what scale-out buys is *capacity* — each
#: worker admits ``max_concurrent`` requests, and with sleep-bound
#: sources N workers overlap N times as many source waits.  The
#: scaling numbers are honest for I/O-bound mediation (the paper's
#: setting: remote sources dominated by network latency) and say
#: nothing about CPU-bound ordering, which ``run_profile`` measures.
CLUSTER_CHAOS_SCALE = 10.0


def _median_of(fn: Callable[[], object], rounds: int) -> float:
    times = []
    for _ in range(rounds):
        with Stopwatch() as watch:
            fn()
        times.append(watch.elapsed)
    return statistics.median(times)


# -- ordering throughput ----------------------------------------------------------


def _ordering_section(seed: int, rounds: int, k: int) -> dict:
    domain = camera_domain(seed)
    section: dict[str, object] = {"k": k, "space_size": domain.space.size}
    for name, factory in (
        ("greedy", GreedyOrderer),
        ("pi", PIOrderer),
        ("anyk", AnyKOrderer),
    ):
        def once() -> None:
            factory(LinearCost()).order_list(domain.space, k)

        median_s = _median_of(once, rounds)
        section[name] = {
            "median_s": median_s,
            "plans_per_s": k / median_s if median_s > 0 else 0.0,
        }
    return section


# -- AnyK first-plan delay vs iDrips ----------------------------------------------


def _first_plan_memory(make_first_plan: Callable[[], None]) -> float:
    """Peak traced allocation (KiB) over one first-plan pull.

    Measured in a separate run from the timings: tracemalloc slows
    allocation severely, so timing under it would distort the delay
    medians (for both algorithms, but unevenly — iDrips allocates the
    whole product space, AnyK does not).
    """
    tracemalloc.start()
    try:
        make_first_plan()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def _anyk_space_section(bucket_size: int, seed: int, rounds: int) -> dict:
    domain = generate_domain(
        SyntheticParams(query_length=3, bucket_size=bucket_size, seed=seed)
    )
    space = domain.space
    section: dict[str, object] = {
        "bucket_size": bucket_size,
        "query_length": 3,
        "space_size": space.size,
    }
    for name, factory in (("anyk", AnyKOrderer), ("idrips", IDripsOrderer)):
        def first_plan(make=factory) -> None:
            generator = make(LinearCost()).order(space, 1)
            next(generator)
            generator.close()

        section[name] = {
            "first_plan_median_s": _median_of(first_plan, rounds),
            "first_plan_peak_kib": _first_plan_memory(first_plan),
        }
    anyk_s = section["anyk"]["first_plan_median_s"]  # type: ignore[index]
    idrips_s = section["idrips"]["first_plan_median_s"]  # type: ignore[index]
    section["first_plan_speedup"] = idrips_s / anyk_s if anyk_s > 0 else 0.0
    return section


def run_anyk_profile(
    *,
    seed: int = 0,
    quick: bool = False,
    rounds: Optional[int] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """The AnyK-vs-iDrips first-plan baseline (``BENCH_PR6.json``).

    For each generated plan space (10^4–10^6 plans at query length 3,
    linear cost) this measures the median time-to-first-plan of both
    orderers plus their tracemalloc peak over the same pull.  iDrips
    materializes and abstracts the whole product space before its
    first emission; AnyK seeds one lattice root per space, so both the
    delay and the peak grow with the space for iDrips but not AnyK.
    """
    rounds = rounds if rounds is not None else (2 if quick else 5)
    sizes = ANYK_QUICK_BUCKET_SIZES if quick else ANYK_BUCKET_SIZES
    payload: dict[str, object] = {
        "schema": BASELINE_SCHEMA_VERSION,
        "kind": "anyk",
        "seed": seed,
        "quick": quick,
        "rounds": rounds,
        "measure": "linear",
        "gate": {
            "min_speedup": MIN_ANYK_SPEEDUP,
            "min_space_size": ANYK_GATE_MIN_SPACE,
        },
        "spaces": [
            _anyk_space_section(bucket_size, seed, rounds)
            for bucket_size in sizes
        ],
    }
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return payload


def check_anyk_profile(
    payload: dict,
    *,
    min_speedup: float = MIN_ANYK_SPEEDUP,
    min_space: int = ANYK_GATE_MIN_SPACE,
) -> list[str]:
    """Regression findings in an AnyK baseline; empty means pass.

    The CI gate from the acceptance criteria: on the smallest measured
    space of at least ``min_space`` plans, AnyK's first-plan delay must
    be at most ``1/min_speedup`` of iDrips'.
    """
    spaces = payload.get("spaces")
    if not isinstance(spaces, list) or not spaces:
        return ["anyk baseline document has no spaces section"]
    eligible = [
        section
        for section in spaces
        if isinstance(section, dict)
        and isinstance(section.get("space_size"), int)
        and section["space_size"] >= min_space
    ]
    if not eligible:
        return [
            f"no measured space has >= {min_space} plans "
            "(rerun without --quick to produce the gate space)"
        ]
    gate_section = min(eligible, key=lambda section: section["space_size"])
    speedup = gate_section.get("first_plan_speedup")
    if not isinstance(speedup, (int, float)):
        return ["gate space section has no first_plan_speedup"]
    problems: list[str] = []
    if speedup < min_speedup:
        problems.append(
            f"AnyK first-plan speedup {speedup:.1f}x over iDrips on the "
            f"{gate_section['space_size']}-plan space is below the "
            f"{min_speedup:.0f}x gate"
        )
    return problems


# -- cluster scale-out ------------------------------------------------------------


def stratified_cluster_mix(
    catalog,
    size: int,
    worker_counts: tuple[int, ...],
    seed: int,
) -> list[str]:
    """A query mix balanced across every arm's consistent-hash ring.

    The router shards by query text, so a random mix hands each shard
    a random *share* of the load — and the slowest shard's share caps
    measurable scale-out (a shard owning 3/8 of the requests bounds a
    4-worker run at 2.67x no matter how well the cluster works).  The
    ring is deterministic (SHA-256, no process salt), so the harness
    can stratify offline with the router's own placement function:
    pick queries until every shard of every measured ring owns an
    equal count.  Uniform per-query *work* matters too — count balance
    means nothing if one shard's queries are 9x the plans — so only
    queries with two subgoals and exactly three rewritings enter the
    mix.  The 2-ring tolerates a +1 share (a perfectly even split for
    both rings at once is not always satisfiable from a finite pool);
    the residual imbalance is reported, not hidden.
    """
    pool: list[str] = []
    for offset in range(8):
        pool.extend(build_query_mix(catalog, 64, seed=seed + offset))
    unique = list(dict.fromkeys(pool))
    from repro.cluster.hashing import ConsistentHashRing
    from repro.reformulation.buckets import build_buckets

    rings = {n: ConsistentHashRing(range(n)) for n in worker_counts}
    quota = {n: size // n + (1 if n == 2 else 0) for n in worker_counts}
    counts: dict[int, dict[int, int]] = {n: {} for n in worker_counts}
    picked: list[str] = []
    for text in unique:
        if len(picked) == size:
            break
        parsed = parse_query(text)
        if len(parsed.body) != 2:
            continue
        if build_buckets(parsed, catalog).size != 3:
            continue
        owners = {n: rings[n].shard_for(text) for n in worker_counts}
        if all(
            counts[n].get(owners[n], 0) < quota[n] for n in worker_counts
        ):
            picked.append(text)
            for n in worker_counts:
                counts[n][owners[n]] = counts[n].get(owners[n], 0) + 1
    if len(picked) < size:
        raise RuntimeError(
            f"could only stratify {len(picked)}/{size} queries over "
            f"rings {worker_counts} (seed {seed})"
        )
    return picked


def _cluster_arm(host: str, port: int, mix: list[str], *,
                 requests: int, concurrency: int) -> dict:
    from repro.service.loadgen import run_load

    report = run_load(
        host, port, mix,
        requests=requests, concurrency=concurrency, timeout_s=240.0,
    )
    return report.as_dict()


def run_cluster_profile(
    *,
    seed: int = 0,
    quick: bool = False,
    timestamp: Optional[str] = None,
) -> dict:
    """The cluster scale-out baseline (``BENCH_PR7.json``).

    Three arms over the same stratified query mix and the same
    sleep-bound chaos workload (``slow`` x ``CLUSTER_CHAOS_SCALE``):

    * ``single`` — one worker-built :class:`QueryService` served
      directly over TCP (literally a 1-shard worker, no router);
    * ``workers_N`` — a full :class:`~repro.cluster.runtime.Cluster`
      (router + N spawned worker processes) for each N in
      ``CLUSTER_WORKER_COUNTS``.

    ``scaling`` holds each cluster arm's aggregate throughput over the
    single-process baseline; ``check_cluster_profile`` gates those
    ratios.  Quick mode measures only the 2-worker arm with a smaller
    budget (CI's smoke gate).
    """
    from repro.cluster.runtime import Cluster, worker_specs
    from repro.cluster.spec import ClusterConfig, WorkerSpec
    from repro.cluster.worker import build_worker_service
    from repro.resilience.chaos import bundled_profile
    from repro.service.frontend import start_server
    from repro.service.workloads import service_workload

    requests = 48 if quick else 96
    concurrency = 16 if quick else 32
    per_worker = 4
    worker_counts = (2,) if quick else CLUSTER_WORKER_COUNTS
    backlog = requests + concurrency

    catalog, _facts, _measures, _query = service_workload("movies", seed)
    # Stratify over every ring the full profile measures, even in
    # quick mode, so quick and full runs replay the identical mix.
    mix = stratified_cluster_mix(catalog, 16, CLUSTER_WORKER_COUNTS, seed)
    chaos = (
        bundled_profile("slow")
        .with_scaled_latency(CLUSTER_CHAOS_SCALE)
        .as_dict()
    )

    single_spec = WorkerSpec(
        shard=0, workload="movies", seed=seed,
        max_concurrent=per_worker, backlog=backlog,
        chaos=chaos, chaos_seed=seed,
    )
    service = build_worker_service(single_spec)
    server, _thread = start_server(service)
    try:
        arms = {
            "single": _cluster_arm(
                "127.0.0.1", server.port, mix,
                requests=requests, concurrency=concurrency,
            )
        }
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()

    for n in worker_counts:
        config = ClusterConfig(workers=n, backlog_per_shard=backlog)
        specs = worker_specs(
            config, workload="movies", seed=seed,
            max_concurrent=per_worker, backlog=backlog,
            chaos=chaos, chaos_seed=seed,
        )
        with Cluster(specs, config) as cluster:
            arms[f"workers_{n}"] = _cluster_arm(
                "127.0.0.1", cluster.port, mix,
                requests=requests, concurrency=concurrency,
            )

    base = arms["single"]["throughput_rps"]
    scaling = {
        f"workers_{n}": (
            arms[f"workers_{n}"]["throughput_rps"] / base if base else 0.0
        )
        for n in worker_counts
    }
    payload: dict[str, object] = {
        "schema": BASELINE_SCHEMA_VERSION,
        "kind": "cluster",
        "seed": seed,
        "quick": quick,
        "workload": "movies",
        "chaos": {"profile": "slow", "latency_scale": CLUSTER_CHAOS_SCALE},
        "load": {
            "requests": requests,
            "concurrency": concurrency,
            "queries": len(mix),
            "max_concurrent_per_worker": per_worker,
        },
        "gate": {
            f"workers_{n}": MIN_CLUSTER_SCALING[n] for n in worker_counts
        },
        "arms": arms,
        "scaling": scaling,
    }
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return payload


def check_cluster_profile(
    payload: dict,
    *,
    min_scaling: Optional[dict[int, float]] = None,
) -> list[str]:
    """Regression findings in a cluster baseline; empty means pass.

    Each measured arm must (a) finish its whole request budget without
    protocol errors in every arm, and (b) clear its scaling bound
    (``MIN_CLUSTER_SCALING``: 1.6x at 2 workers, 3x at 4).  An absent
    arm (quick mode has no 4-worker run) is not a failure.
    """
    bounds = min_scaling if min_scaling is not None else MIN_CLUSTER_SCALING
    arms = payload.get("arms")
    scaling = payload.get("scaling")
    if not isinstance(arms, dict) or "single" not in arms:
        return ["cluster baseline document has no single-process arm"]
    if not isinstance(scaling, dict) or not scaling:
        return ["cluster baseline document has no scaling section"]
    problems: list[str] = []
    for name, arm in sorted(arms.items()):
        if not isinstance(arm, dict):
            problems.append(f"arm {name} is not a section")
            continue
        errors = arm.get("errors")
        if errors:
            problems.append(f"arm {name} saw {errors} protocol errors")
        if arm.get("completed") != arm.get("sent"):
            problems.append(
                f"arm {name} completed {arm.get('completed')} of "
                f"{arm.get('sent')} requests"
            )
    for n, bound in sorted(bounds.items()):
        key = f"workers_{n}"
        if key not in scaling:
            continue
        ratio = scaling[key]
        if not isinstance(ratio, (int, float)):
            problems.append(f"scaling entry {key} is not a number")
        elif ratio < bound:
            problems.append(
                f"aggregate throughput at {n} workers scaled only "
                f"{ratio:.2f}x over single-process (gate {bound:.1f}x)"
            )
    return problems


# -- adaptive re-ordering vs fixed order ------------------------------------------

#: Retry budget for the adaptive trials: two fast attempts, so each
#: doomed plan costs exactly two injected stalls plus one backoff.
#: Jitter stays off — the trials are meant to replay byte-identically.
ADAPTIVE_RETRY = RetryPolicy(max_attempts=2, base_s=0.005, cap_s=0.01)


def adaptive_chaos_profile() -> ChaosProfile:
    """The seeded latency/outage chaos of the adaptive baseline.

    Every access to the doomed source stalls for
    ``ADAPTIVE_CHAOS_LATENCY_S`` and then fails with a retryable
    error, so a plan over it burns its whole retry budget in wall
    clock before gracefully degrading to the next plan.
    """
    return ChaosProfile(
        name="head-outage",
        faults={
            ADAPTIVE_DOOMED_SOURCE: FaultProfile(
                transient_prob=1.0, latency_s=ADAPTIVE_CHAOS_LATENCY_S
            )
        },
    )


def adaptive_scenario():
    """The random-LAV scenario both arms of the baseline run on."""
    from repro.workloads.random_lav import ordering_scenario

    return ordering_scenario(ADAPTIVE_SCENARIO_SEED)


def _adaptive_measure_factory(scenario):
    def factory() -> BindJoinCost:
        return BindJoinCost(
            access_overhead=1.0,
            domain_sizes=scenario.domain_sizes,
            uniform_transfer=True,
            failure_aware=True,
        )

    return factory


def _adaptive_service(
    scenario, *, adaptivity: str, chaos_seed: int, chaos: bool,
    journal: Optional[EventJournal] = None,
) -> QueryService:
    # queue_depth=1 / executor_workers=1 keep the producer at most a
    # couple of plans ahead of execution, so mid-stream health signals
    # can still affect plans that were not yet emitted.  Breakers are
    # off in *both* arms: the board would skip every doomed plan after
    # its threshold in both, drowning the ordering-level effect this
    # baseline isolates (bench_resilience measures the breaker path).
    backend = None
    if chaos:
        backend = ChaosBackend(adaptive_chaos_profile(), seed=chaos_seed)
    return QueryService(
        scenario.scenario.catalog,
        scenario.scenario.source_facts,
        measures={"failure": _adaptive_measure_factory(scenario)},
        config=ServiceConfig(
            default_policy=RequestPolicy(retry=ADAPTIVE_RETRY),
            default_measure="failure",
            adaptivity=adaptivity,
            queue_depth=1,
            executor_workers=1,
        ),
        backend=backend,
        resilience=ResilienceManager(min_observations=1, breakers=False),
        journal=journal,
    )


def adaptive_trial(
    scenario=None, *, adaptivity: str, chaos_seed: int = 0, chaos: bool = True
) -> dict:
    """One cold-start request under the outage chaos; outcome facts.

    Cold start is the point: both arms begin with an empty health
    tracker and therefore the *identical* static ranking, so any
    time-to-first-answer gap is attributable to mid-stream re-ordering
    alone.
    """
    scenario = scenario if scenario is not None else adaptive_scenario()
    journal = EventJournal()
    service = _adaptive_service(
        scenario, adaptivity=adaptivity, chaos_seed=chaos_seed,
        chaos=chaos, journal=journal,
    )
    try:
        result = service.execute(
            QueryRequest(scenario.scenario.query, request_id="trial")
        )
        report = result.report
        journal.validate()
        return {
            "status": result.status,
            "answers": len(result.answers),
            "ttfa_s": report.first_answer_s if report is not None else None,
            "plans_failed": report.plans_failed if report is not None else 0,
            "reorders": len(journal.events(event="plan.reordered")),
        }
    finally:
        service.shutdown()


def adaptive_stream_digest(scenario=None, *, adaptivity: str) -> dict:
    """Fingerprint of one healthy (chaos-free) request's batch stream.

    The healthy-path identity guarantee, as a checkable fact: with no
    failures the epoch never moves, so the adaptive stream must be
    byte-identical to the fixed one — same plans, utilities, ranks and
    soundness verdicts, hence equal digests.
    """
    scenario = scenario if scenario is not None else adaptive_scenario()
    service = _adaptive_service(
        scenario, adaptivity=adaptivity, chaos_seed=0, chaos=False
    )
    try:
        result = service.execute(
            QueryRequest(scenario.scenario.query, request_id="healthy")
        )
        stream = [
            (batch.rank, batch.plan.key, batch.utility, batch.sound)
            for batch in result.batches
        ]
        return {
            "status": result.status,
            "batches": len(stream),
            "stream_sha256": hashlib.sha256(
                repr(stream).encode("utf-8")
            ).hexdigest(),
        }
    finally:
        service.shutdown()


def run_adaptive_profile(
    *,
    seed: int = 0,
    quick: bool = False,
    trials: Optional[int] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """The adaptive-vs-fixed ordering baseline (``BENCH_PR9.json``).

    Two arms execute the same cold-start request under the same seeded
    latency/outage chaos, differing only in the ``adaptivity`` knob.
    Each trial is a fresh service (empty tracker, closed breakers), so
    the arms share their static ranking and the measured gap is the
    value of the mid-stream feedback loop.  A chaos-free request per
    arm fingerprints the healthy streams; they must be identical.
    """
    trials = trials if trials is not None else (4 if quick else 10)
    scenario = adaptive_scenario()
    arms: dict[str, dict] = {}
    for arm, adaptivity in (("fixed", "off"), ("adaptive", "on")):
        runs = [
            adaptive_trial(
                scenario, adaptivity=adaptivity, chaos_seed=seed + index
            )
            for index in range(trials)
        ]
        ttfas = [run["ttfa_s"] for run in runs]
        arms[arm] = {
            "trials": trials,
            "ttfa_s": ttfas,
            "ttfa_p50_s": percentile(ttfas, 0.50),
            "ttfa_p90_s": percentile(ttfas, 0.90),
            "reorders": [run["reorders"] for run in runs],
            "statuses": [run["status"] for run in runs],
            "answers": [run["answers"] for run in runs],
            "plans_failed": sum(run["plans_failed"] for run in runs),
        }
    fixed_p90 = arms["fixed"]["ttfa_p90_s"]
    ratio = (
        arms["adaptive"]["ttfa_p90_s"] / fixed_p90 if fixed_p90 else 0.0
    )
    healthy = {
        arm: adaptive_stream_digest(scenario, adaptivity=adaptivity)
        for arm, adaptivity in (("fixed", "off"), ("adaptive", "on"))
    }
    payload: dict[str, object] = {
        "schema": BASELINE_SCHEMA_VERSION,
        "kind": "adaptive",
        "seed": seed,
        "quick": quick,
        "scenario": {
            "workload": "random-lav",
            "seed": ADAPTIVE_SCENARIO_SEED,
            "space_size": scenario.space.size,
            "doomed_source": ADAPTIVE_DOOMED_SOURCE,
        },
        "chaos": adaptive_chaos_profile().as_dict(),
        "retry": {
            "max_attempts": ADAPTIVE_RETRY.max_attempts,
            "base_s": ADAPTIVE_RETRY.base_s,
            "cap_s": ADAPTIVE_RETRY.cap_s,
        },
        "gate": {"max_ttfa_ratio": MAX_ADAPTIVE_TTFA_RATIO},
        "arms": arms,
        "ttfa_p90_ratio": ratio,
        "healthy": {
            **healthy,
            "identical": (
                healthy["fixed"]["stream_sha256"]
                == healthy["adaptive"]["stream_sha256"]
            ),
        },
    }
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return payload


def check_adaptive_profile(
    payload: dict, *, max_ratio: float = MAX_ADAPTIVE_TTFA_RATIO
) -> list[str]:
    """Regression findings in an adaptive baseline; empty means pass.

    The CI gate from the acceptance criteria: adaptive TTFA p90 at
    most ``max_ratio`` of fixed-order under the outage chaos; every
    trial completes ``ok``; the fixed arm never re-orders while every
    adaptive trial re-orders at least once; and the healthy streams
    are identical.
    """
    arms = payload.get("arms")
    if not isinstance(arms, dict) or not {"fixed", "adaptive"} <= set(arms):
        return ["adaptive baseline document has no fixed/adaptive arms"]
    problems: list[str] = []
    for name in ("fixed", "adaptive"):
        statuses = arms[name].get("statuses") or []
        bad = [status for status in statuses if status != "ok"]
        if bad:
            problems.append(
                f"{name} arm saw non-ok statuses under chaos: {bad}"
            )
    fixed_reorders = arms["fixed"].get("reorders") or []
    if any(fixed_reorders):
        problems.append(
            f"the fixed arm re-ordered mid-stream: {fixed_reorders}"
        )
    adaptive_reorders = arms["adaptive"].get("reorders")
    if not adaptive_reorders or not all(
        count >= 1 for count in adaptive_reorders
    ):
        problems.append(
            "an adaptive trial never re-ordered under the outage chaos: "
            f"{adaptive_reorders}"
        )
    ratio = payload.get("ttfa_p90_ratio")
    if not isinstance(ratio, (int, float)):
        problems.append("adaptive baseline document has no ttfa_p90_ratio")
    elif ratio > max_ratio:
        problems.append(
            f"adaptive TTFA p90 is {ratio:.2f}x fixed-order "
            f"(gate {max_ratio:.2f}x): "
            f"{arms['adaptive'].get('ttfa_p90_s')}s vs "
            f"{arms['fixed'].get('ttfa_p90_s')}s"
        )
    healthy = payload.get("healthy")
    if not isinstance(healthy, dict) or healthy.get("identical") is not True:
        problems.append(
            "healthy streams differ between adaptive and fixed arms"
        )
    return problems


# -- observability-hook overhead --------------------------------------------------


def _drain_hooked(mediator: Mediator, query, utility) -> int:
    """The real mediator loop (journal hooks present on every branch)."""
    count = 0
    orderer = GreedyOrderer(utility)
    for _batch in mediator.answer(query, utility, orderer=orderer):
        count += 1
    return count


def _drain_control(mediator: Mediator, query, utility) -> int:
    """The anytime loop as it was before the journal hooks existed.

    A frozen, minimal reference — same stages (reformulate, order,
    soundness, execute, record), same per-plan allocations, no
    ``journal.enabled`` checks — and deliberately *not* a mirror of
    ``Mediator.answer``: it stays as it is while the staged core
    (``AnytimeRun``) evolves.  What keeps the overhead ratio meaningful
    is the batch-count guard of ``check_profile`` (both drains must
    produce the same number of batches).
    """
    orderer = GreedyOrderer(utility)
    space = mediator.reformulate(query)
    soundness: dict[tuple[str, ...], bool] = {}

    def on_emit(plan) -> bool:
        return soundness[plan.key]

    seen: set[tuple[object, ...]] = set()
    resilience = mediator.resilience
    count = 0
    for ordered in orderer.order(space, space.size, on_emit=on_emit):
        executable = mediator.check_soundness(query, ordered.plan)
        sound = executable is not None
        soundness[ordered.plan.key] = sound
        if not sound:
            batch = AnswerBatch(
                ordered.rank, ordered.plan, ordered.utility,
                False, frozenset(), frozenset(),
            )
            mediator.record_batch(batch)
            count += 1
            continue
        # The resilience conditionals predate the journal and stay in
        # the control loop; only the journal hooks are deleted.
        blocked = (
            resilience.admit(ordered.plan) if resilience is not None else ()
        )
        if blocked:
            batch = AnswerBatch(
                ordered.rank, ordered.plan, ordered.utility,
                True, frozenset(), frozenset(), skipped=True,
            )
            mediator.record_batch(batch)
            count += 1
            continue
        sources = (
            ResilienceManager.sources_of(ordered.plan)
            if resilience is not None
            else ()
        )
        with Stopwatch() as exec_watch:
            answers = mediator.execute_query(executable)
        if resilience is not None:
            resilience.record_success(sources, exec_watch.elapsed)
        new = frozenset(answers - seen)
        seen.update(answers)
        batch = AnswerBatch(
            ordered.rank, ordered.plan, ordered.utility, True, answers, new
        )
        mediator.record_batch(batch)
        count += 1
    return count


def _overhead_section(rounds: int, repeats: int) -> dict:
    """Interleaved medians of the control loop vs the hooked variants."""
    domain = movie_domain()
    utility = LinearCost()

    plain = Mediator(domain.catalog, domain.source_facts)
    journal_on = Mediator(
        domain.catalog, domain.source_facts, journal=EventJournal()
    )
    tracing_on = Mediator(
        domain.catalog, domain.source_facts, tracer=Tracer(enabled=True)
    )

    # The control loop must be the same computation or the ratio is
    # meaningless; equal batch counts over the full drain check that.
    hooked_batches = _drain_hooked(plain, domain.query, utility)
    control_batches = _drain_control(plain, domain.query, utility)

    variants: dict[str, Callable[[], object]] = {
        "control": lambda: _drain_control(plain, domain.query, utility),
        "journal_off": lambda: _drain_hooked(plain, domain.query, utility),
        "journal_on": lambda: _drain_hooked(journal_on, domain.query, utility),
        "tracing_on": lambda: _drain_hooked(tracing_on, domain.query, utility),
    }
    samples: dict[str, list[float]] = {name: [] for name in variants}
    for _round in range(rounds):
        journal_on.journal.reset()  # keep the buffer from growing round over round
        for name, fn in variants.items():
            with Stopwatch() as watch:
                for _ in range(repeats):
                    fn()
            samples[name].append(watch.elapsed / repeats)
    medians = {name: statistics.median(times) for name, times in samples.items()}
    control = medians["control"]
    section: dict[str, object] = {
        "rounds": rounds,
        "repeats": repeats,
        "batches": hooked_batches,
        "control_batches": control_batches,
        "control_median_s": control,
    }
    for name in ("journal_off", "journal_on", "tracing_on"):
        section[f"{name}_median_s"] = medians[name]
        section[f"{name}_ratio"] = (
            medians[name] / control if control > 0 else 1.0
        )
    return section


# -- service latency under load ---------------------------------------------------


def _service_section(seed: int, requests: int, concurrency: int) -> dict:
    domain = movie_domain()
    journal = EventJournal()
    service = QueryService(
        domain.catalog,
        domain.source_facts,
        measures={"linear": LinearCost},
        config=ServiceConfig(max_concurrent=concurrency),
        journal=journal,
    )
    mix = build_query_mix(
        domain.catalog, 6, seed=seed, include=domain.query
    )
    queries = [parse_query(text) for text in mix]
    load = [
        QueryRequest(queries[index % len(queries)], request_id=f"profile-{index}")
        for index in range(requests)
    ]
    with Stopwatch() as watch, ThreadPoolExecutor(concurrency) as callers:
        results = list(callers.map(service.execute, load))
    first = [
        result.report.first_answer_s
        for result in results
        if result.report is not None
        and result.report.first_answer_s is not None
    ]
    total = [
        result.report.elapsed_s
        for result in results
        if result.report is not None
    ]
    completed = sum(1 for result in results if result.ok)
    journal.validate()
    return {
        "requests": requests,
        "concurrency": concurrency,
        "completed": completed,
        "duration_s": watch.elapsed,
        "throughput_rps": completed / watch.elapsed if watch.elapsed else 0.0,
        "first_answer": {
            "count": len(first),
            "p50_s": percentile(first, 0.50),
            "p90_s": percentile(first, 0.90),
            "p99_s": percentile(first, 0.99),
        },
        "total": {
            "count": len(total),
            "p50_s": percentile(total, 0.50),
            "p90_s": percentile(total, 0.90),
            "p99_s": percentile(total, 0.99),
        },
        "journal_events": len(journal),
    }


# -- deterministic fingerprint ----------------------------------------------------


def _deterministic_section(seed: int) -> dict:
    """Timing-free facts a fixed seed must always reproduce."""
    domain = movie_domain()
    journal = EventJournal()
    mediator = Mediator(domain.catalog, domain.source_facts, journal=journal)
    utility = LinearCost()
    batches = list(
        mediator.answer(
            domain.query, utility,
            orderer=GreedyOrderer(utility), request_id="fingerprint",
        )
    )
    journal.validate()
    answers = sorted(
        {row for batch in batches for row in batch.new_answers}
    )
    digest = hashlib.sha256(repr(answers).encode("utf-8")).hexdigest()
    events_by_type: dict[str, int] = {}
    for record in journal.events():
        events_by_type[record["event"]] = (
            events_by_type.get(record["event"], 0) + 1
        )
    mix = build_query_mix(domain.catalog, 6, seed=seed, include=domain.query)
    mix_digest = hashlib.sha256("\n".join(mix).encode("utf-8")).hexdigest()
    return {
        "plans": len(batches),
        "sound_plans": sum(1 for batch in batches if batch.sound),
        "answers": len(answers),
        "answer_sha256": digest,
        "query_mix_sha256": mix_digest,
        "journal_events": events_by_type,
    }


# -- entry points -----------------------------------------------------------------


def run_profile(
    *,
    seed: int = 0,
    quick: bool = False,
    rounds: Optional[int] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """Run every section and return the baseline document.

    ``quick`` trims rounds and request counts for tests and local
    smoke runs; CI uses the defaults.  ``timestamp`` is caller-
    supplied metadata (the harness itself never reads a clock, so two
    runs of the same build differ only in the timing numbers).
    """
    rounds = rounds if rounds is not None else (3 if quick else 7)
    repeats = 3 if quick else 10
    requests = 8 if quick else 32
    payload: dict[str, object] = {
        "schema": BASELINE_SCHEMA_VERSION,
        "seed": seed,
        "quick": quick,
        "ordering": _ordering_section(
            seed, rounds=rounds, k=10 if quick else 25
        ),
        "overhead": _overhead_section(rounds=rounds, repeats=repeats),
        "service": _service_section(seed, requests=requests, concurrency=4),
        "deterministic": _deterministic_section(seed),
    }
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return payload


def check_profile(
    payload: dict, *, max_overhead: float = MAX_JOURNAL_OFF_OVERHEAD
) -> list[str]:
    """Regression findings in a baseline document; empty means pass.

    The hard CI gate: disabled journal hooks on the mediator loop may
    cost at most ``max_overhead`` (fractional) over the hook-free
    control loop; and the control loop must still be the same
    computation as the hooked one (equal batch counts), otherwise the
    ratio proves nothing.
    """
    problems: list[str] = []
    overhead = payload.get("overhead")
    if not isinstance(overhead, dict):
        return ["baseline document has no overhead section"]
    if overhead.get("batches") != overhead.get("control_batches"):
        problems.append(
            "control loop diverged from Mediator.answer: "
            f"{overhead.get('control_batches')} batches vs "
            f"{overhead.get('batches')} — the overhead ratio is invalid"
        )
    ratio = overhead.get("journal_off_ratio")
    limit = 1.0 + max_overhead
    if not isinstance(ratio, (int, float)):
        problems.append("overhead section has no journal_off_ratio")
    elif ratio > limit:
        problems.append(
            f"journal hooks cost {(ratio - 1.0) * 100:.1f}% with the journal "
            f"disabled (limit {max_overhead * 100:.0f}%): "
            f"{overhead.get('journal_off_median_s')}s vs "
            f"{overhead.get('control_median_s')}s control"
        )
    return problems
