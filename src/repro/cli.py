"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the Figure 1 movie mediation end to end and print the streamed
    answer batches.
``order``
    Order a synthetic domain's plans with a chosen algorithm and
    utility measure; prints the ordering and the evaluation counters.
``experiments``
    The Figure 6 panel tables (forwards to
    :mod:`repro.experiments.figure6`).
``report``
    Markdown result report (forwards to
    :mod:`repro.experiments.report`).
``simulate``
    Order a synthetic domain by expected cost, then execute the plans
    on the virtual-clock simulator, best-first versus worst-first.
``serve``
    Start the JSON-lines TCP query service over a workload's catalog
    (:mod:`repro.service`); ``--workers N`` scales out to a sharded
    cluster.
``cluster``
    Start a sharded cluster explicitly: N worker processes behind a
    consistent-hash router with cross-shard metric aggregation
    (:mod:`repro.cluster`).
``bench-serve``
    Replay a random query mix against a served catalog and report
    throughput plus first/last-answer latency percentiles;
    ``--router N`` drives an in-process cluster and reports per-shard
    percentiles and the shard-imbalance ratio.
``lint``
    Static analysis (:mod:`repro.analysis`): the AST code rules and the
    whole-program concurrency rules over a source tree, and the
    measure-property rule over the bundled workloads.
``metrics-dump``
    Convert a ``--metrics-out`` JSON export (or scrape a running
    ``/metrics`` endpoint) to Prometheus text on stdout.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.errors import ReproError, ServiceError
from repro.ordering import AUTO_ORDERER, ORDERER_TABLE, orderer_class


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.execution.mediator import Mediator
    from repro.ordering.greedy import GreedyOrderer
    from repro.utility.cost import LinearCost
    from repro.workloads.movies import movie_domain

    domain = movie_domain()
    print(f"Query: {domain.query}")
    mediator = Mediator(domain.catalog, domain.source_facts)
    utility = LinearCost()
    for batch in mediator.answer(domain.query, utility, orderer=GreedyOrderer(utility)):
        flag = "+" if batch.sound else "-"
        print(f"{flag} #{batch.rank} {batch.plan} u={batch.utility:.1f}")
        for row in sorted(batch.new_answers):
            print(f"    {row}")
    return 0


#: Orderer names accepted by ``order --algorithm``, ``simulate
#: --orderer`` and ``serve --default-orderer``.  ``auto`` resolves per
#: utility measure (the rule is :mod:`repro.ordering.regimes`).
ORDERER_CHOICES = (AUTO_ORDERER, *ORDERER_TABLE)


def _make_orderer(name: str, utility, **instrumentation):
    return orderer_class(name, utility)(utility, **instrumentation)


def _make_measure(name: str, domain):
    table = {
        "coverage": lambda: domain.coverage(),
        "linear": lambda: domain.linear_cost(),
        "bind-join": lambda: domain.bind_join_cost(),
        "failure": lambda: domain.failure_cost(),
        "failure-caching": lambda: domain.failure_cost(caching=True),
        "monetary": lambda: domain.monetary(),
        "monetary-caching": lambda: domain.monetary(caching=True),
    }
    return table[name]()


def _cmd_order(args: argparse.Namespace) -> int:
    from repro.observability import MetricRegistry, Tracer
    from repro.workloads.synthetic import SyntheticParams, generate_domain

    domain = generate_domain(
        SyntheticParams(
            query_length=args.query_length,
            bucket_size=args.bucket_size,
            overlap_rate=args.overlap,
            seed=args.seed,
        )
    )
    utility = _make_measure(args.measure, domain)
    registry = MetricRegistry()
    tracer = Tracer(enabled=bool(args.trace or args.metrics_out))
    orderer = _make_orderer(
        args.algorithm, utility,
        cache=args.cache, registry=registry, tracer=tracer,
    )
    print(
        f"Ordering {domain.space.size} plans with {orderer.name} "
        f"under {utility.name}:"
    )
    for entry in orderer.order(domain.space, args.k):
        print(f"  #{entry.rank:3d} {entry.plan} u={entry.utility:.6g}")
    for key, value in orderer.stats.as_dict().items():
        if value:
            print(f"  {key}: {value}")
    if args.trace:
        print()
        print(tracer.format_table())
    if args.metrics_out:
        registry.write_json(
            args.metrics_out,
            extra={
                "algorithm": orderer.name,
                "measure": utility.name,
                "spans": tracer.as_dict(),
            },
        )
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.execution.simulator import ExecutionSimulator
    from repro.workloads.synthetic import SyntheticParams, generate_domain

    domain = generate_domain(
        SyntheticParams(
            query_length=args.query_length,
            bucket_size=args.bucket_size,
            seed=args.seed,
        )
    )
    utility = domain.failure_cost()
    orderer = _make_orderer(args.orderer, utility)
    ordered = [
        entry.plan for entry in orderer.order(domain.space, args.k)
    ]
    # The domain seed shapes *what* is executed; the simulator seed
    # shapes *how* execution goes (failures, delays).  Decoupling them
    # lets one domain be replayed under many failure draws.
    sim_seed = args.sim_seed if args.sim_seed is not None else args.seed
    simulator = ExecutionSimulator(
        access_overhead=1.0, domain_sizes=domain.domain_sizes, seed=sim_seed
    )
    best_first = simulator.run_ordering(ordered)
    simulator.reset(seed=sim_seed)
    worst_first = simulator.run_ordering(list(reversed(ordered)))
    print(f"{args.k} plans executed on the virtual clock:")
    print(
        f"  best-first : first answer at t={best_first.time_to_first_success:.1f}, "
        f"all done at t={best_first.total_time:.1f}"
    )
    print(
        f"  worst-first: first answer at t={worst_first.time_to_first_success:.1f}, "
        f"all done at t={worst_first.total_time:.1f}"
    )
    if args.adaptive:
        adaptive_report, reorders = _simulate_adaptive(args, domain, sim_seed)
        first = adaptive_report.time_to_first_success
        first_text = f"{first:.1f}" if first is not None else "never"
        print(
            f"  adaptive   : first answer at t={first_text}, "
            f"all done at t={adaptive_report.total_time:.1f} "
            f"({reorders} mid-stream re-order(s))"
        )
    return 0


def _simulate_adaptive(args: argparse.Namespace, domain, sim_seed: int):
    """Replay the simulation with health-fed mid-stream re-ordering.

    The simulator's health tracker observes every virtual access; the
    epoch is bumped whenever a run added failures, so the adaptive
    orderer re-checks its frontier exactly when the simulated health
    picture moved — the serve-path feedback loop on the virtual clock.
    """
    from repro.execution.simulator import ExecutionSimulator, SimulationReport
    from repro.ordering.adaptive import AdaptiveOrderer
    from repro.resilience.health import HealthEpoch, SourceHealthTracker
    from repro.resilience.measure import HealthAwareMeasure

    tracker = SourceHealthTracker()
    epoch = HealthEpoch()
    live = HealthAwareMeasure(
        domain.failure_cost(), tracker, min_observations=1
    )
    orderer = AdaptiveOrderer(
        live,
        inner_factory=lambda measure: _make_orderer(args.orderer, measure),
        epoch=epoch,
    )
    simulator = ExecutionSimulator(
        access_overhead=1.0,
        domain_sizes=domain.domain_sizes,
        seed=sim_seed,
        health=tracker,
    )
    report = SimulationReport()
    failures_seen = 0
    for entry in orderer.order(domain.space, args.k):
        report.runs.append(simulator.run_plan(entry.plan))
        total_failures = sum(
            health.failures for health in tracker.snapshot().values()
        )
        if total_failures != failures_seen:
            failures_seen = total_failures
            epoch.bump()
    return report, orderer.reorders


def _service_workload(name: str, seed: int):
    """(catalog, source_facts, measure factories, canonical query)."""
    from repro.service.workloads import service_workload

    return service_workload(name, seed)


def _chaos_setup(args: argparse.Namespace):
    """(backend, resilience) for the serve/bench-serve chaos flags."""
    backend = None
    resilience = None
    if getattr(args, "chaos", None):
        from repro.resilience import ResilienceManager
        from repro.resilience.chaos import ChaosBackend, bundled_profile

        backend = ChaosBackend(
            bundled_profile(args.chaos), seed=getattr(args, "chaos_seed", 0)
        )
        manager_kwargs: dict = {}
        cooldown = getattr(args, "breaker_cooldown", None)
        if cooldown is not None:
            from repro.resilience.breaker import BreakerBoard

            manager_kwargs["board"] = BreakerBoard(cooldown_s=cooldown)
        min_observations = getattr(args, "min_observations", None)
        if min_observations is not None:
            manager_kwargs["min_observations"] = min_observations
        resilience = ResilienceManager(
            breakers=not getattr(args, "no_breakers", False),
            **manager_kwargs,
        )
    return backend, resilience


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Serve a sharded cluster (``repro cluster`` / ``serve --workers N``)."""
    import signal
    import threading

    from repro.cluster.runtime import Cluster, worker_specs
    from repro.cluster.spec import ClusterConfig

    chaos = None
    if args.chaos:
        from repro.resilience.chaos import bundled_profile

        # Workers live in other processes: chaos crosses as a plain
        # dict (picklable) and is rebuilt per shard.
        chaos = bundled_profile(args.chaos).as_dict()
    workers = getattr(args, "workers", 2)
    config = ClusterConfig(
        workers=workers,
        host=args.host,
        backlog_per_shard=getattr(args, "backlog_per_shard", None)
        or args.backlog,
    )
    specs = worker_specs(
        config,
        workload=args.workload,
        seed=args.seed,
        max_concurrent=args.max_concurrent,
        backlog=args.backlog,
        default_orderer=args.default_orderer,
        deadline_s=args.deadline,
        chaos=chaos,
        chaos_seed=args.chaos_seed,
        breakers=not args.no_breakers,
        journal_dir=getattr(args, "journal_dir", None),
    )
    journal = None
    journal_sink = None
    if args.journal:
        from repro.observability.journal import EventJournal

        journal_sink = open(args.journal, "w", encoding="utf-8")
        journal = EventJournal(stream=journal_sink)
    cluster = Cluster(specs, config, journal=journal)
    port = cluster.start(host=args.host, port=args.port)
    metrics_server = None
    if args.metrics_port is not None:
        from repro.service.metricsd import start_metrics_server

        metrics_server, _mthread = start_metrics_server(
            cluster.prometheus_text, host=args.host, port=args.metrics_port
        )
        print(
            f"cluster metrics on "
            f"http://{args.host}:{metrics_server.port}/metrics",
            flush=True,
        )
    stop = threading.Event()
    try:
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:
        pass  # not on the main thread (e.g. under a test harness)
    chaos_note = f"; chaos: {args.chaos}" if args.chaos else ""
    print(
        f"routing {args.workload} on {args.host}:{port} across "
        f"{workers} workers{chaos_note} (Ctrl-C to stop)",
        flush=True,
    )
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    print("shutting down", flush=True)
    if metrics_server is not None:
        metrics_server.shutdown()
        metrics_server.server_close()
    cluster.stop()
    if journal_sink is not None:
        journal_sink.close()
        print(f"journal written to {args.journal}", flush=True)
    return 0


#: ``serve`` flags that only the single-process server reads:
#: ``WorkerSpec`` has no field for them, so ``serve --workers N`` refuses
#: them instead of silently dropping them.
_SINGLE_PROCESS_FLAGS = (
    "--adaptive",
    "--trace",
    "--default-measure",
    "--queue-depth",
    "--executor-workers",
    "--breaker-cooldown",
    "--min-observations",
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.frontend import start_server
    from repro.service.policy import RequestPolicy
    from repro.service.server import QueryService, ServiceConfig

    if getattr(args, "workers", 1) > 1:
        dropped = [
            flag
            for flag in _SINGLE_PROCESS_FLAGS
            if getattr(args, _dest(flag)) != args.single_process_defaults[flag]
        ]
        if dropped:
            raise ServiceError(
                f"serve --workers {args.workers} cannot pass "
                f"{', '.join(dropped)} on to its workers; leave that out "
                "or serve one process"
            )
        return _cmd_cluster(args)
    catalog, facts, measures, _ = _service_workload(args.workload, args.seed)
    overrides = {
        name: value
        for name, value in (
            ("default_measure", getattr(args, "default_measure", None)),
            ("queue_depth", getattr(args, "queue_depth", None)),
            ("executor_workers", getattr(args, "executor_workers", None)),
        )
        if value is not None
    }
    config = ServiceConfig(
        max_concurrent=args.max_concurrent,
        backlog=args.backlog,
        default_orderer=args.default_orderer,
        default_policy=RequestPolicy(deadline_s=args.deadline),
        trace_requests=args.trace,
        adaptivity=args.adaptive,
        **overrides,
    )
    backend, resilience = _chaos_setup(args)
    journal = None
    journal_sink = None
    if args.journal:
        from repro.observability.journal import EventJournal

        journal_sink = open(args.journal, "w", encoding="utf-8")
        journal = EventJournal(stream=journal_sink)
    service = QueryService(
        catalog,
        facts,
        measures=measures,
        config=config,
        backend=backend,
        resilience=resilience,
        journal=journal,
    )
    metrics_server = None
    if args.metrics_port is not None:
        from repro.service.metricsd import start_metrics_server

        metrics_server, _mthread = start_metrics_server(
            service.prometheus_text, host=args.host, port=args.metrics_port
        )
        print(
            f"metrics on http://{args.host}:{metrics_server.port}/metrics",
            flush=True,
        )
    server, _thread = start_server(service, host=args.host, port=args.port)
    stop = threading.Event()
    try:
        # SIGTERM too, so `kill` from CI (where a backgrounded process
        # ignores SIGINT) still shuts down cleanly.
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:
        pass  # not on the main thread (e.g. under a test harness)
    chaos_note = f"; chaos: {args.chaos}" if args.chaos else ""
    print(
        f"serving {args.workload} on {server.server_address[0]}:{server.port} "
        f"(measures: {', '.join(sorted(measures))}{chaos_note}; "
        "Ctrl-C to stop)",
        flush=True,
    )
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    print("shutting down", flush=True)
    server.shutdown()
    server.server_close()
    service.shutdown()
    if metrics_server is not None:
        metrics_server.shutdown()
        metrics_server.server_close()
    if journal_sink is not None:
        journal_sink.close()
        print(f"journal written to {args.journal}", flush=True)
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.service.loadgen import build_query_mix, run_load

    catalog, facts, measures, query = _service_workload(args.workload, args.seed)
    mix = build_query_mix(catalog, args.queries, seed=args.seed, include=query)
    server = service = cluster = None
    if args.connect and args.router:
        print("bench-serve: --connect and --router are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        host = host or "127.0.0.1"
        port = int(port_text)
    elif args.router:
        from repro.cluster.runtime import Cluster, worker_specs
        from repro.cluster.spec import ClusterConfig

        chaos = None
        if args.chaos:
            from repro.resilience.chaos import bundled_profile

            chaos = bundled_profile(args.chaos).as_dict()
        config = ClusterConfig(workers=args.router)
        specs = worker_specs(
            config,
            workload=args.workload,
            seed=args.seed,
            max_concurrent=args.max_concurrent,
            chaos=chaos,
            chaos_seed=args.chaos_seed,
            breakers=not args.no_breakers,
        )
        cluster = Cluster(specs, config)
        host, port = "127.0.0.1", cluster.start()
    else:
        from repro.service.frontend import start_server
        from repro.service.server import QueryService, ServiceConfig

        backend, resilience = _chaos_setup(args)
        service = QueryService(
            catalog,
            facts,
            measures=measures,
            config=ServiceConfig(
                max_concurrent=args.max_concurrent,
                adaptivity=args.adaptive,
            ),
            backend=backend,
            resilience=resilience,
        )
        server, _thread = start_server(service)
        host, port = "127.0.0.1", server.port
    try:
        report = run_load(
            host,
            port,
            mix,
            requests=args.requests,
            concurrency=args.concurrency,
            deadline_s=args.deadline,
            first_k_answers=args.first_k,
        )
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
            service.shutdown()
        if cluster is not None:
            cluster.stop()
    target = args.workload
    if args.router:
        target = f"{args.workload} via {args.router}-worker router"
    print(
        f"{args.requests} requests x {args.concurrency} connections "
        f"over {len(mix)} queries ({target}):"
    )
    print(report.format_table())
    if args.degradation_out:
        import json

        with open(args.degradation_out, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"degradation summary written to {args.degradation_out}")
    return 0 if report.errors == 0 else 1


def _cmd_metrics_dump(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ObservabilityError
    from repro.observability.prometheus import render_export

    if args.url:
        from urllib.request import urlopen

        with urlopen(args.url, timeout=args.timeout) as response:
            sys.stdout.write(response.read().decode("utf-8"))
        return 0
    if not args.path:
        print(
            "metrics-dump: need a JSON export path or --url", file=sys.stderr
        )
        return 2
    with open(args.path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        sys.stdout.write(render_export(payload))
    except ObservabilityError as exc:
        print(f"metrics-dump: {exc}", file=sys.stderr)
        return 1
    return 0


def _split_patterns(values: Optional[Sequence[str]]) -> tuple[str, ...]:
    patterns: list[str] = []
    for value in values or ():
        patterns.extend(p.strip() for p in value.split(",") if p.strip())
    return tuple(patterns)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULES, render_text, run_lint

    if args.list_rules:
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            print(
                f"{rule.id}  {rule.slug:28s} {rule.family:12s} "
                f"{str(rule.severity):8s} {rule.summary}"
            )
        return 0

    # Family flags narrow the run; with none given, all families run.
    # A bad pattern, path or workload is an AnalysisError: exit 2.
    explicit = args.code or args.scenario or args.concurrency
    diagnostics = run_lint(
        code_paths=tuple(args.paths),
        scenario_names=tuple(args.workload or ()),
        run_code=args.code or not explicit,
        run_scenarios=args.scenario or not explicit,
        run_concurrency=args.concurrency or not explicit,
        select=_split_patterns(args.select),
        ignore=_split_patterns(args.ignore),
    )
    try:
        print(render_text(diagnostics))
    except BrokenPipeError:
        # Downstream pager/head closed early; the exit code is the
        # contract, not the truncated output.
        pass
    return 1 if diagnostics else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Forwarded subcommands take their own option sets; hand the tail
    # over verbatim (argparse.REMAINDER chokes on leading options).
    if argv and argv[0] == "experiments":
        from repro.experiments.figure6 import main as fig_main

        return fig_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.experiments.report import main as report_main

        return report_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Plan ordering for data integration (Doan & Halevy, ICDE 2002)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="movie-domain mediation demo")

    order = sub.add_parser("order", help="order a synthetic domain's plans")
    order.add_argument("--algorithm", default="streamer",
                       choices=ORDERER_CHOICES)
    order.add_argument("--measure", default="coverage",
                       choices=("coverage", "linear", "bind-join", "failure",
                                "failure-caching", "monetary", "monetary-caching"))
    order.add_argument("--bucket-size", type=int, default=8)
    order.add_argument("--query-length", type=int, default=3)
    order.add_argument("--overlap", type=float, default=0.3)
    order.add_argument("--seed", type=int, default=0)
    order.add_argument("-k", type=int, default=5)
    order.add_argument("--cache", action="store_true",
                       help="memoize utility evaluations "
                            "(CachingUtilityMeasure)")
    order.add_argument("--trace", action="store_true",
                       help="print the span timing table after ordering")
    order.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write metrics + span timings as JSON to PATH")

    sub.add_parser("experiments", help="Figure 6 tables (forwarded)")
    sub.add_parser("report", help="markdown result report (forwarded)")

    simulate = sub.add_parser("simulate", help="virtual-clock execution demo")
    simulate.add_argument("--bucket-size", type=int, default=8)
    simulate.add_argument("--query-length", type=int, default=3)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--sim-seed", type=int, default=None,
                          help="simulator RNG seed (failures/delays); "
                               "defaults to --seed")
    simulate.add_argument("--orderer", default="pi", choices=ORDERER_CHOICES,
                          help="ordering algorithm for the executed plans")
    simulate.add_argument("-k", type=int, default=10)
    simulate.add_argument("--adaptive", action="store_true",
                          help="add a third run that re-orders mid-stream "
                               "from the simulator's observed source health")

    serve = sub.add_parser("serve", help="JSON-lines TCP query service")
    serve.add_argument("--workload", default="movies",
                       choices=("movies", "random-lav"))
    serve.add_argument("--seed", type=int, default=0,
                       help="workload seed (random-lav)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7462,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-concurrent", type=int, default=8,
                       help="admission-control concurrency cap")
    serve.add_argument("--backlog", type=int, default=32,
                       help="requests that may wait for a slot before overload")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds")
    serve.add_argument("--workers", type=int, default=1,
                       help="run a sharded cluster instead: N worker "
                            "processes behind a consistent-hash router")
    serve.add_argument("--default-orderer", default="auto",
                       choices=ORDERER_CHOICES,
                       help="orderer for requests that do not name one "
                            "(auto: anyk for fully monotonic measures, "
                            "streamer under diminishing returns, idrips "
                            "otherwise)")
    serve.add_argument("--trace", action="store_true",
                       help="attach per-request span trees to summaries")
    serve.add_argument("--chaos", metavar="PROFILE", default=None,
                       help="inject a bundled chaos profile (smoke, slow, "
                            "truncating) and enable the resilience layer")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for deterministic chaos failure draws")
    serve.add_argument("--no-breakers", action="store_true",
                       help="with --chaos: keep health tracking and graceful "
                            "degradation but never skip plans behind breakers")
    serve.add_argument("--adaptive", nargs="?", const="on", default="auto",
                       choices=("auto", "on", "off"),
                       help="mid-stream re-ordering from live source health "
                            "(auto: on for --orderer auto requests when the "
                            "resilience layer is active; bare --adaptive "
                            "forces on)")
    serve.add_argument("--default-measure", metavar="NAME", default=None,
                       help="measure for requests that do not name one "
                            "(default: the workload's first measure; the "
                            "movie workload also ships 'failure', a "
                            "failure-aware bind-join cost that reacts to "
                            "observed source health)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="per-request pipeline depth between ordering "
                            "and execution; 1 keeps the producer close "
                            "enough to execution for mid-stream re-ordering "
                            "to affect not-yet-emitted plans (a pipeline "
                            "runs only over a blocking backend, e.g. with "
                            "--chaos; in-memory requests run inline)")
    serve.add_argument("--executor-workers", type=int, default=None,
                       help="per-request plan-execution threads (blocking "
                            "backends only, as --queue-depth)")
    serve.add_argument("--breaker-cooldown", type=float, default=None,
                       metavar="SECONDS",
                       help="with --chaos: open-breaker cooldown before a "
                            "half-open probe (default 5.0)")
    serve.add_argument("--min-observations", type=int, default=None,
                       metavar="N",
                       help="with --chaos: source accesses observed before "
                            "health-aware measures trust the failure rate "
                            "(default 3)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="also expose Prometheus text on "
                            "http://HOST:PORT/metrics (0 picks a free port)")
    serve.add_argument("--journal", metavar="PATH", default=None,
                       help="record the correlated event journal as JSON "
                            "lines to PATH")
    serve.set_defaults(single_process_defaults={
        flag: serve.get_default(_dest(flag)) for flag in _SINGLE_PROCESS_FLAGS
    })

    cluster = sub.add_parser("cluster",
                             help="sharded router/worker cluster")
    cluster.add_argument("--workload", default="movies",
                         choices=("movies", "random-lav"))
    cluster.add_argument("--seed", type=int, default=0,
                         help="workload seed (random-lav)")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=7462,
                         help="router TCP port (0 picks a free one); "
                              "workers always bind OS-assigned ports")
    cluster.add_argument("--workers", type=int, default=2,
                         help="number of worker processes (shards)")
    cluster.add_argument("--max-concurrent", type=int, default=8,
                         help="per-worker admission-control concurrency cap")
    cluster.add_argument("--backlog", type=int, default=32,
                         help="per-worker requests that may wait for a slot "
                              "before overload")
    cluster.add_argument("--backlog-per-shard", type=int, default=32,
                         help="router-side relay cap per shard before "
                              "shedding with an overloaded error")
    cluster.add_argument("--deadline", type=float, default=None,
                         help="default per-request deadline in seconds")
    cluster.add_argument("--default-orderer", default="auto",
                         choices=ORDERER_CHOICES,
                         help="orderer for requests that do not name one")
    cluster.add_argument("--chaos", metavar="PROFILE", default=None,
                         help="inject a bundled chaos profile in every "
                              "worker (decorrelated seeds per shard)")
    cluster.add_argument("--chaos-seed", type=int, default=0,
                         help="base seed for deterministic chaos draws")
    cluster.add_argument("--no-breakers", action="store_true",
                         help="with --chaos: disable per-source breaker "
                              "skipping inside workers")
    cluster.add_argument("--metrics-port", type=int, default=None,
                         help="expose the cross-shard merged registry on "
                              "http://HOST:PORT/metrics (0 picks a port)")
    cluster.add_argument("--journal", metavar="PATH", default=None,
                         help="router/supervisor event journal (JSON lines)")
    cluster.add_argument("--journal-dir", metavar="DIR", default=None,
                         help="per-worker journals as "
                              "DIR/journal-shard<k>.jsonl")

    bench = sub.add_parser("bench-serve",
                           help="load-generate against the query service")
    bench.add_argument("--workload", default="movies",
                       choices=("movies", "random-lav"))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--connect", metavar="HOST:PORT", default=None,
                       help="drive an already-running server instead of "
                            "starting one in-process")
    bench.add_argument("--router", type=int, metavar="N", default=None,
                       help="drive an in-process N-worker cluster through "
                            "its router; the report adds per-shard "
                            "latency percentiles and the imbalance ratio")
    bench.add_argument("--requests", type=int, default=50)
    bench.add_argument("--concurrency", type=int, default=4,
                       help="concurrent client connections")
    bench.add_argument("--queries", type=int, default=8,
                       help="size of the random query mix")
    bench.add_argument("--max-concurrent", type=int, default=8,
                       help="server concurrency cap (in-process mode)")
    bench.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds")
    bench.add_argument("--first-k", type=int, default=None,
                       help="stop each request after k answers")
    bench.add_argument("--chaos", metavar="PROFILE", default=None,
                       help="in-process mode: serve under a bundled chaos "
                            "profile with the resilience layer enabled")
    bench.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for deterministic chaos failure draws")
    bench.add_argument("--no-breakers", action="store_true",
                       help="with --chaos: disable breaker skipping")
    bench.add_argument("--adaptive", nargs="?", const="on", default="auto",
                       choices=("auto", "on", "off"),
                       help="in-process mode: mid-stream re-ordering from "
                            "live source health (bare --adaptive forces on)")
    bench.add_argument("--degradation-out", metavar="PATH", default=None,
                       help="write the load report (including the "
                            "degradation summary) to PATH as JSON")

    lint = sub.add_parser(
        "lint", help="static analysis (code, concurrency, scenarios)"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files/directories for the code and concurrency "
                           "rules (default: src/repro)")
    lint.add_argument("--code", action="store_true",
                      help="run only the AST code rules")
    lint.add_argument("--scenario", action="store_true",
                      help="run only the scenario rules")
    lint.add_argument("--concurrency", action="store_true",
                      help="run only the whole-program concurrency rules")
    lint.add_argument("--workload", action="append", metavar="NAME",
                      help="scenario to lint (repeatable; default: all "
                           "bundled workloads)")
    lint.add_argument("--select", action="append", metavar="RULES",
                      help="comma-separated rule ids/slugs/prefixes to run")
    lint.add_argument("--ignore", action="append", metavar="RULES",
                      help="comma-separated rule ids/slugs/prefixes to skip")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    dump = sub.add_parser("metrics-dump",
                          help="metrics JSON export -> Prometheus text")
    dump.add_argument("path", nargs="?", default=None,
                      help="a JSON file written by --metrics-out or "
                           "MetricRegistry.write_json")
    dump.add_argument("--url", metavar="URL", default=None,
                      help="scrape a running /metrics endpoint instead of "
                           "reading a file")
    dump.add_argument("--timeout", type=float, default=5.0,
                      help="HTTP timeout for --url (seconds)")

    args = parser.parse_args(argv)
    try:
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "order":
            return _cmd_order(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "bench-serve":
            return _cmd_bench_serve(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "metrics-dump":
            return _cmd_metrics_dump(args)
    except ReproError as exc:
        # The library's own refusals (an orderer that does not apply to
        # the measure, a zero-sized pipeline) are messages for the user;
        # anything else is a defect and keeps its traceback.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
