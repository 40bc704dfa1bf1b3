"""The two baselines behind ``repro profile``.

Each mode runs headlessly and produces one JSON document that a
``check_*`` function gates:

* **cluster** (``--cluster``, ``BENCH_PR7.json``) — aggregate
  throughput of a single-process server against 2 and 4 router-fronted
  worker processes on the same sleep-bound chaos workload and the same
  shard-stratified query mix; the check bounds each arm's scale-out;
* **adaptive** (``--adaptive``, ``BENCH_PR9.json``) — cold-start
  time-to-first-answer with and without mid-stream re-ordering under a
  seeded outage of the statically best-ranked source; the check
  bounds the adaptive/fixed TTFA p90 ratio and requires byte-identical
  healthy streams.

What a request costs end to end, layer by layer, is measured by
``benchmarks/e2e``; the evaluation-count contracts of the orderers are
tier-1 tests.  This module computes and returns; the CLI does the
printing.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.datalog.parser import parse_query
from repro.resilience.chaos import ChaosBackend, ChaosProfile, FaultProfile
from repro.resilience.manager import ResilienceManager
from repro.observability.journal import EventJournal
from repro.service.loadgen import build_query_mix, percentile
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, QueryService, ServiceConfig
from repro.utility.cost import BindJoinCost

__all__ = [
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
#: nothing about CPU-bound ordering, which ``benchmarks/e2e`` measures.
CLUSTER_CHAOS_SCALE = 10.0


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
        # A trial with no first answer has no TTFA (None): the
        # percentiles cover the answered trials, and the check reports
        # the others.
        answered = [ttfa for ttfa in ttfas if ttfa is not None]
        arms[arm] = {
            "trials": trials,
            "ttfa_s": ttfas,
            "ttfa_p50_s": percentile(answered, 0.50),
            "ttfa_p90_s": percentile(answered, 0.90),
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
    trial completes ``ok`` with a first answer; the fixed arm never
    re-orders while every adaptive trial re-orders at least once; and
    the healthy streams are identical.
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
        ttfas = arms[name].get("ttfa_s") or []
        unanswered = sum(1 for ttfa in ttfas if ttfa is None)
        if unanswered:
            problems.append(
                f"{name} arm: {unanswered} of {len(ttfas)} trials got no "
                "first answer"
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
