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
    The Figure 6 panel tables, and EXPERIMENTS.md's count tables
    checked (``--check``) or regenerated (``--write``) (forwards to
    :mod:`repro.experiments.figure6`).
``simulate``
    Order a synthetic domain by expected cost, then execute the plans
    on the virtual-clock simulator, best-first versus worst-first.
``serve``
    Start the JSON-lines TCP query service over a workload's catalog
    (:mod:`repro.service`).  Its flags describe one
    :class:`~repro.cluster.spec.WorkerSpec`; ``--workers N`` serves that
    spec from N worker processes behind a consistent-hash router with
    cross-shard metric aggregation (:mod:`repro.cluster`).
``bench-serve``
    Replay a random query mix against a running server or router
    (``--connect``, default ``serve``'s address) and report throughput
    plus first/last-answer latency percentiles; through a router the
    report adds per-shard percentiles and the shard-imbalance ratio.
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
import os
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.errors import ReproError, ServiceError
from repro.ordering import AUTO_ORDERER, ORDERER_TABLE, orderer_class
from repro.service.workloads import WORKLOAD_NAMES
from repro.workloads import MEASURES


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.execution.mediator import Mediator
    from repro.ordering.greedy import GreedyOrderer
    from repro.workloads.movies import movie_domain

    domain = movie_domain()
    print(f"Query: {domain.query}")
    mediator = Mediator(domain.catalog, domain.source_facts)
    utility = domain.measure("linear")
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
    utility = domain.measure(args.measure)
    if args.cache and not utility.cacheable:
        args.usage_error(
            f"--cache memoizes context-free measures only; {args.measure!r} "
            "depends on the plans already executed"
        )
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
    utility = domain.measure("failure")
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
        domain.measure("failure"), tracker, min_observations=1
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


def _given(**values) -> dict:
    """The keyword arguments whose flag was given (``None``: keep the default)."""
    return {name: value for name, value in values.items() if value is not None}


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve one :class:`WorkerSpec`: in this process, or on N workers."""
    import os
    import signal
    import threading
    from contextlib import ExitStack

    from repro.cluster.spec import WorkerSpec
    from repro.observability.journal import NOOP_JOURNAL, EventJournal
    from repro.service.policy import RequestPolicy
    from repro.service.server import ServiceConfig

    chaos = None
    if args.chaos:
        from repro.resilience.chaos import bundled_profile

        # A plain dict, so the spec pickles into worker processes.
        chaos = bundled_profile(args.chaos).as_dict()
    spec = WorkerSpec(
        shard=0,
        workload=args.workload,
        seed=args.seed,
        config=ServiceConfig(
            max_concurrent=args.max_concurrent,
            backlog=args.backlog,
            default_orderer=args.default_orderer,
            default_policy=RequestPolicy(deadline_s=args.deadline),
            trace_requests=args.trace,
            adaptivity=args.adaptive,
            **_given(
                default_measure=args.default_measure,
                queue_depth=args.queue_depth,
                executor_workers=args.executor_workers,
            ),
        ),
        chaos=chaos,
        chaos_seed=args.chaos_seed,
        breakers=not args.no_breakers,
        **_given(
            breaker_cooldown_s=args.breaker_cooldown,
            min_observations=args.min_observations,
        ),
    )
    chaos_note = f"; chaos: {args.chaos}" if args.chaos else ""
    specs = None
    if args.workers != 1:
        from repro.cluster.runtime import worker_specs

        # Shard k journals beside the router's journal.  Built before
        # any file is opened, so a refused worker count touches nothing.
        specs = worker_specs(
            args.workers,
            spec,
            journal_dir=os.path.dirname(os.path.abspath(args.journal))
            if args.journal
            else None,
        )
    # Unwinds in reverse: metrics endpoint, then the server or cluster,
    # then the journal file — also when starting any of them fails.
    with ExitStack() as cleanup:
        journal = NOOP_JOURNAL
        if args.journal:
            journal = EventJournal(
                stream=cleanup.enter_context(
                    open(args.journal, "w", encoding="utf-8")
                )
            )
        if specs is None:
            from repro.cluster.worker import build_worker_service
            from repro.service.frontend import start_server

            service = build_worker_service(spec, journal=journal)
            cleanup.callback(service.shutdown)
            server, _thread = start_server(
                service, host=args.host, port=args.port
            )
            cleanup.callback(server.server_close)
            cleanup.callback(server.shutdown)
            prometheus_text, metrics_label = service.prometheus_text, "metrics"
            banner = (
                f"serving {args.workload} on "
                f"{server.server_address[0]}:{server.port} "
                f"(measures: {', '.join(service.measure_names)}{chaos_note}; "
                "Ctrl-C to stop)"
            )
        else:
            from repro.cluster.runtime import Cluster

            cluster = Cluster(
                specs, backlog_per_shard=args.backlog, journal=journal
            )
            cleanup.callback(cluster.stop)
            port = cluster.start(host=args.host, port=args.port)
            prometheus_text, metrics_label = (
                cluster.prometheus_text,
                "cluster metrics",
            )
            banner = (
                f"routing {args.workload} on {args.host}:{port} across "
                f"{args.workers} workers{chaos_note} (Ctrl-C to stop)"
            )
        if args.metrics_port is not None:
            from repro.service.metricsd import start_metrics_server

            metrics_server, _mthread = start_metrics_server(
                prometheus_text, host=args.host, port=args.metrics_port
            )
            cleanup.callback(metrics_server.server_close)
            cleanup.callback(metrics_server.shutdown)
            print(
                f"{metrics_label} on "
                f"http://{args.host}:{metrics_server.port}/metrics",
                flush=True,
            )
        stop = threading.Event()
        try:
            # SIGTERM too, so `kill` from CI (where a backgrounded process
            # ignores SIGINT) still shuts down cleanly.
            signal.signal(signal.SIGINT, lambda *_: stop.set())
            signal.signal(signal.SIGTERM, lambda *_: stop.set())
        except ValueError:
            pass  # not on the main thread (e.g. under a test harness)
        print(banner, flush=True)
        try:
            while not stop.is_set():
                stop.wait(0.2)
        except KeyboardInterrupt:
            pass
        print("shutting down", flush=True)
    if args.journal:
        print(f"journal written to {args.journal}", flush=True)
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.service.loadgen import build_query_mix, run_load
    from repro.service.workloads import service_workload

    host, _, port_text = args.connect.rpartition(":")
    if not port_text.isdigit():
        raise ServiceError(f"--connect wants HOST:PORT, got {args.connect!r}")
    catalog, _facts, _measures, query = service_workload(args.workload, args.seed)
    mix = build_query_mix(catalog, args.queries, seed=args.seed, include=query)
    report = run_load(
        host or "127.0.0.1",
        int(port_text),
        mix,
        requests=args.requests,
        concurrency=args.concurrency,
        deadline_s=args.deadline,
        first_k_answers=args.first_k,
    )
    print(
        f"{args.requests} requests x {args.concurrency} connections "
        f"over {len(mix)} queries ({args.workload} at {args.connect}):"
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
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObservabilityError(f"cannot read {args.path}: {exc}") from None
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
    print(render_text(diagnostics))
    return 1 if diagnostics else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        status = _run(sys.argv[1:] if argv is None else list(argv))
        # Flushed here so that a reader who left early is met below,
        # not by the interpreter's exit-time flush.
        sys.stdout.flush()
        return status
    except ReproError as exc:
        # The library's own refusals (an orderer that does not apply to
        # the measure, a zero-sized pipeline, an unreadable input file)
        # are messages for the user; anything else is a defect and
        # keeps its traceback.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Whoever read stdout (a pager, `head`) closed it early: stop
        # quietly, and send what is still buffered nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: list[str]) -> int:
    # Forwarded subcommands take their own option sets; hand the tail
    # over verbatim (argparse.REMAINDER chokes on leading options).
    if argv and argv[0] == "experiments":
        from repro.experiments.figure6 import main as fig_main

        return fig_main(argv[1:])

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
    order.add_argument("--measure", default="coverage", choices=tuple(MEASURES))
    order.add_argument("--bucket-size", type=int, default=8)
    order.add_argument("--query-length", type=int, default=3)
    order.add_argument("--overlap", type=float, default=0.3)
    order.add_argument("--seed", type=int, default=0)
    order.add_argument("-k", type=int, default=5)
    order.add_argument("--cache", action="store_true",
                       help="memoize utility evaluations "
                            "(CachingUtilityMeasure; context-free "
                            "measures only)")
    order.add_argument("--trace", action="store_true",
                       help="print the span timing table after ordering")
    order.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write metrics + span timings as JSON to PATH")
    order.set_defaults(usage_error=order.error)

    sub.add_parser(
        "experiments", help="Figure 6 tables, EXPERIMENTS.md counts (forwarded)"
    )

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
    serve.add_argument("--workload", default="movies", choices=WORKLOAD_NAMES)
    serve.add_argument("--seed", type=int, default=0,
                       help="workload seed (random-lav)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7462,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-concurrent", type=int, default=8,
                       help="admission-control concurrency cap (per "
                            "worker)")
    serve.add_argument("--backlog", type=int, default=32,
                       help="requests that may wait for a slot before "
                            "overload (per worker; with --workers N also "
                            "the router's in-flight relays per shard)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds")
    serve.add_argument("--workers", type=int, default=1,
                       help="serve from N worker processes behind a "
                            "consistent-hash router (every flag applies to "
                            "each worker)")
    serve.add_argument("--default-orderer", default="auto",
                       choices=ORDERER_CHOICES,
                       help="orderer for requests that do not name one "
                            "(auto: anyk for fully monotonic measures, "
                            "streamer under diminishing returns, idrips "
                            "otherwise)")
    serve.add_argument("--trace", action="store_true",
                       help="attach per-request span trees to summaries")
    serve.add_argument("--chaos", metavar="PROFILE", default=None,
                       help="inject a bundled chaos profile (smoke or "
                            "flapping) and enable the resilience layer")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for deterministic chaos failure draws "
                            "(worker k draws with seed + k)")
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
                            "lines to PATH (with --workers N: the router's; "
                            "shard k writes journal-shard<k>.jsonl beside "
                            "it)")

    bench = sub.add_parser("bench-serve",
                           help="load-generate against the query service")
    bench.add_argument("--workload", default="movies", choices=WORKLOAD_NAMES)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--connect", metavar="HOST:PORT",
                       default="127.0.0.1:7462",
                       help="the server or cluster router to drive "
                            "(default: serve's default address)")
    bench.add_argument("--requests", type=int, default=50)
    bench.add_argument("--concurrency", type=int, default=4,
                       help="concurrent client connections")
    bench.add_argument("--queries", type=int, default=8,
                       help="size of the random query mix")
    bench.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds")
    bench.add_argument("--first-k", type=int, default=None,
                       help="stop each request after k answers")
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
    return _COMMANDS[args.command](args)


_COMMANDS = {
    "demo": _cmd_demo,
    "order": _cmd_order,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
    "lint": _cmd_lint,
    "metrics-dump": _cmd_metrics_dump,
}


if __name__ == "__main__":
    sys.exit(main())
