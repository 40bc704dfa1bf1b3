"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_prints_plans_and_answers(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Query: q(M, R)" in out
        assert "#1" in out
        assert "star_wars" in out


class TestOrder:
    def test_order_defaults(self, capsys):
        assert main(["order", "--bucket-size", "4", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Ordering 64 plans" in out
        assert out.count("#") >= 3

    @pytest.mark.parametrize(
        "algorithm", ("pi", "exhaustive", "idrips", "streamer")
    )
    def test_every_algorithm_runs(self, capsys, algorithm):
        assert (
            main(
                [
                    "order",
                    "--algorithm", algorithm,
                    "--measure", "failure",
                    "--bucket-size", "4",
                    "--query-length", "2",
                    "-k", "2",
                ]
            )
            == 0
        )
        assert "plans_evaluated" in capsys.readouterr().out

    def test_greedy_needs_monotonic_measure(self, capsys):
        assert (
            main(
                [
                    "order",
                    "--algorithm", "greedy",
                    "--measure", "linear",
                    "--bucket-size", "4",
                    "-k", "2",
                ]
            )
            == 0
        )

    @pytest.mark.parametrize(
        "algorithm, measure, picks",
        [("greedy", "coverage", "streamer"), ("anyk", "failure-caching", "idrips")],
    )
    def test_inapplicable_orderer_is_one_line_not_a_traceback(
        self, capsys, algorithm, measure, picks
    ):
        code = main(
            ["order", "--algorithm", algorithm, "--measure", measure,
             "--bucket-size", "4", "-k", "2"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ")
        assert "fully monotonic" in line and f"'auto' picks {picks!r}" in line

    @pytest.mark.parametrize(
        "measure, name",
        [("coverage", "Streamer"), ("failure-caching", "iDrips"), ("linear", "anyk")],
    )
    def test_auto_orders_with_the_regime_winner(self, capsys, measure, name):
        assert main(
            ["order", "--algorithm", "auto", "--measure", measure,
             "--bucket-size", "4", "-k", "2"]
        ) == 0
        assert f"with {name} " in capsys.readouterr().out

    def test_counters_printed(self, capsys):
        main(["order", "--algorithm", "streamer", "--bucket-size", "4", "-k", "2"])
        out = capsys.readouterr().out
        assert "plans_evaluated:" in out


class TestOrderObservability:
    def test_trace_prints_span_table(self, capsys):
        assert (
            main(
                [
                    "order",
                    "--algorithm", "idrips",
                    "--measure", "linear",
                    "--bucket-size", "4",
                    "-k", "2",
                    "--trace",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "span" in out
        assert "utility.eval" in out

    def test_no_trace_no_span_table(self, capsys):
        main(["order", "--bucket-size", "4", "-k", "2"])
        assert "utility.eval" not in capsys.readouterr().out

    def test_metrics_out_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "order",
                    "--algorithm", "idrips",
                    "--measure", "linear",
                    "--bucket-size", "4",
                    "-k", "2",
                    "--cache",
                    "--metrics-out", str(path),
                ]
            )
            == 0
        )
        assert f"wrote metrics to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["algorithm"] == "iDrips"
        assert payload["measure"].startswith("linear-cost")
        # Per-algorithm span timings:
        assert any("utility.eval" in span for span in payload["spans"])
        # Evaluation and cache hit/miss counters:
        metrics = payload["metrics"]
        assert metrics["ordering.iDrips.plans_evaluated"]["value"] > 0
        assert "utility_cache.hits" in metrics
        assert "utility_cache.misses" in metrics
        assert metrics["utility_cache.misses"]["value"] > 0

    def test_cache_preserves_printed_ordering(self, capsys):
        args = [
            "order", "--algorithm", "pi", "--measure", "linear",
            "--bucket-size", "4", "-k", "3",
        ]
        main(args)
        plain = [
            line for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("#")
        ]
        main(args + ["--cache"])
        cached = [
            line for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("#")
        ]
        assert cached == plain


class TestSimulate:
    def test_simulate_reports_both_orders(self, capsys):
        assert main(["simulate", "--bucket-size", "4", "-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "best-first" in out
        assert "worst-first" in out

    def test_sim_seed_defaults_to_domain_seed(self, capsys):
        base = ["simulate", "--bucket-size", "4", "-k", "5", "--seed", "2"]
        assert main(base) == 0
        implicit = capsys.readouterr().out
        assert main(base + ["--sim-seed", "2"]) == 0
        explicit = capsys.readouterr().out
        assert implicit == explicit

    def test_sim_seed_changes_execution_not_domain(self, capsys):
        base = ["simulate", "--bucket-size", "4", "-k", "5", "--seed", "2"]
        outputs = set()
        for sim_seed in ("3", "4", "5", "6"):
            assert main(base + ["--sim-seed", sim_seed]) == 0
            outputs.add(capsys.readouterr().out)
        # Same plans, different failure draws: at least two of the
        # simulator seeds must produce different timings.
        assert len(outputs) > 1


@pytest.fixture(scope="module")
def served_movies():
    """A movie-workload server on a free port, as ``serve`` starts one."""
    from repro.cluster.spec import WorkerSpec
    from repro.cluster.worker import build_worker_service
    from repro.service.frontend import start_server

    service = build_worker_service(WorkerSpec(shard=0))
    server, _thread = start_server(service, port=0)
    try:
        yield f"127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


class TestBenchServe:
    def test_micro_load_over_connect(self, capsys, served_movies):
        assert (
            main(
                [
                    "bench-serve",
                    "--connect", served_movies,
                    "--requests", "6",
                    "--concurrency", "2",
                    "--queries", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"(movies at {served_movies})" in out
        assert "completed                6" in out
        assert "errors                   0" in out
        assert "throughput [req/s]" in out
        assert "first-answer latency" in out

    def test_first_k_budget_applies(self, capsys, served_movies):
        assert (
            main(
                [
                    "bench-serve",
                    "--connect", served_movies,
                    "--requests", "4",
                    "--concurrency", "1",
                    "--queries", "2",
                    "--first-k", "1",
                ]
            )
            == 0
        )
        assert "completed                4" in capsys.readouterr().out

    def test_connect_defaults_to_serves_port(self, monkeypatch):
        import repro.service.loadgen as loadgen

        seen = []

        def fake_run_load(host, port, mix, **kwargs):
            seen.append((host, port))
            raise _Captured

        monkeypatch.setattr(loadgen, "run_load", fake_run_load)
        with pytest.raises(_Captured):
            main(["bench-serve"])
        assert seen == [("127.0.0.1", 7462)]


class TestServeValidation:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("flag", ["--executor-workers", "--queue-depth"])
    def test_zero_sized_pipeline_is_refused_before_binding(
        self, flag, workers, capsys
    ):
        # Port 1 cannot be bound unprivileged: reaching the bind would
        # raise OSError (or serve forever), not end in a ServiceError's
        # one-line refusal.  With two workers the spec's ServiceConfig
        # refuses before any process is spawned.
        assert main(
            ["serve", "--port", "1", "--workers", workers, flag, "0"]
        ) == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "0"], "workers must be >= 1, got 0"),
            (["--workers", "-1"], "workers must be >= 1, got -1"),
            (["--chaos", "truncating"],
             "unknown chaos profile 'truncating' (bundled: flapping, smoke)"),
            (["--chaos", "slow"],
             "unknown chaos profile 'slow' (bundled: flapping, smoke)"),
        ],
        ids=["workers-0", "workers--1", "chaos-truncating", "chaos-slow"],
    )
    def test_a_refusal_binds_no_server(
        self, flags, message, capsys, monkeypatch
    ):
        import repro.service.frontend as frontend

        def no_server(*args, **kwargs):
            raise AssertionError("serve bound a server it should refuse")

        monkeypatch.setattr(frontend, "start_server", no_server)
        assert main(["serve", *flags]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"repro: {message}"

    def test_a_refused_worker_count_leaves_the_journal_alone(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "cluster.jsonl"
        journal.write_text("kept\n", encoding="utf-8")
        assert main(["serve", "--workers", "0", "--journal", str(journal)]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert journal.read_text(encoding="utf-8") == "kept\n"


class _Captured(Exception):
    """Raised by the fake cluster once it holds serve's specs."""


@pytest.fixture()
def cluster_specs(monkeypatch):
    """``cluster_specs(*flags)``: the specs ``serve --workers 2`` builds."""
    import repro.cluster.runtime as runtime

    captured = {}

    class FakeCluster:
        def __init__(self, specs, *, backlog_per_shard, journal):
            captured["specs"] = specs
            captured["backlog_per_shard"] = backlog_per_shard
            captured["journal"] = journal
            raise _Captured

    monkeypatch.setattr(runtime, "Cluster", FakeCluster)

    def run(*flags):
        with pytest.raises(_Captured):
            main(["serve", "--workers", "2", *flags])
        return captured["specs"]

    run.captured = captured
    return run


#: The flags ``serve --workers N`` once refused, and where each lands.
CARRIED_FLAGS = [
    (["--adaptive", "off"], lambda spec: spec.config.adaptivity, "off"),
    (["--adaptive"], lambda spec: spec.config.adaptivity, "on"),
    (["--trace"], lambda spec: spec.config.trace_requests, True),
    (["--default-measure", "failure"],
     lambda spec: spec.config.default_measure, "failure"),
    (["--queue-depth", "1"], lambda spec: spec.config.queue_depth, 1),
    (["--executor-workers", "1"],
     lambda spec: spec.config.executor_workers, 1),
    (["--breaker-cooldown", "0.05"],
     lambda spec: spec.breaker_cooldown_s, 0.05),
    (["--min-observations", "1"], lambda spec: spec.min_observations, 1),
]


class TestServeWorkers:
    @pytest.mark.parametrize(
        "flags, read, expected", CARRIED_FLAGS,
        ids=[" ".join(flags) for flags, _read, _expected in CARRIED_FLAGS],
    )
    def test_every_flag_reaches_every_shard(
        self, cluster_specs, flags, read, expected
    ):
        specs = cluster_specs("--chaos", "smoke", *flags)
        assert [spec.shard for spec in specs] == [0, 1]
        for spec in specs:
            assert read(spec) == expected
        # Without the flag, every shard keeps the default.
        for spec in cluster_specs("--chaos", "smoke"):
            assert read(spec) != expected

    def test_shards_differ_only_in_identity(self, cluster_specs):
        from dataclasses import replace

        first, second = cluster_specs(
            "--chaos", "smoke", "--chaos-seed", "7", "--trace"
        )
        assert (first.chaos_seed, second.chaos_seed) == (7, 8)
        assert replace(second, shard=0, chaos_seed=7) == first

    def test_backlog_is_also_the_routers_per_shard_cap(self, cluster_specs):
        specs = cluster_specs("--backlog", "5")
        assert cluster_specs.captured["backlog_per_shard"] == 5
        assert all(spec.config.backlog == 5 for spec in specs)

    def test_shard_journals_sit_beside_the_router_journal(
        self, cluster_specs, tmp_path
    ):
        specs = cluster_specs("--journal", str(tmp_path / "cluster.jsonl"))
        assert [spec.journal_path for spec in specs] == [
            str(tmp_path / "journal-shard0.jsonl"),
            str(tmp_path / "journal-shard1.jsonl"),
        ]

    @pytest.mark.parametrize("journalled", [False, True])
    def test_the_cluster_always_gets_an_event_journal(
        self, cluster_specs, tmp_path, journalled
    ):
        from repro.observability.journal import EventJournal

        flags = ["--journal", str(tmp_path / "cluster.jsonl")] * journalled
        cluster_specs(*flags)
        journal = cluster_specs.captured["journal"]
        # The supervisor and router emit on it unconditionally.
        assert isinstance(journal, EventJournal)
        assert journal.enabled == journalled

    @pytest.mark.slow
    def test_trace_spans_come_back_through_the_router(
        self, cluster_specs, monkeypatch
    ):
        from repro.service import protocol
        from repro.service.frontend import connect

        specs = cluster_specs("--trace")
        monkeypatch.undo()  # the real Cluster again
        from repro.cluster.runtime import Cluster

        cluster = Cluster(specs)
        try:
            with connect("127.0.0.1", cluster.start()) as sock:
                stream = sock.makefile("rwb")
                stream.write(protocol.encode_line(protocol.request_record(
                    "q(M, R) :- play_in(ford, M), review_of(R, M)",
                    request_id="traced",
                )))
                stream.flush()
                while True:
                    reply = protocol.decode_line(stream.readline())
                    if reply["type"] in ("summary", "error"):
                        break
        finally:
            cluster.stop()
        assert reply["type"] == "summary"
        assert reply["status"] == "ok"
        assert reply["shard"] in (0, 1)
        assert reply["spans"]


class TestForwarding:
    def test_experiments_forwarding(self, capsys):
        assert main(["experiments", "--quick", "--panel", "a"]) == 0
        assert "Panel 6.a" in capsys.readouterr().out

    def test_report_is_not_a_command(self, capsys):
        # EXPERIMENTS.md's count tables come from `experiments --write`.
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--quick", "--panel", "a"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize(
        "argv",
        [["profile"], ["profile", "--cluster"], ["profile", "--adaptive"]],
    )
    def test_profile_is_not_a_command(self, capsys, argv):
        # The cluster and adaptive gates are tier-1 tests now
        # (tests/cluster/test_cluster.py::TestCapacity and
        # tests/service/test_adaptive_service.py::TestHeadOutage).
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    def test_cluster_is_not_a_command(self, capsys):
        # `serve --workers N` is the one way to start a cluster.
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'cluster'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--router", "2"], ["--router", "2", "--adaptive", "on"],
         ["--chaos", "smoke"], ["--max-concurrent", "2"]],
        ids=" ".join,
    )
    def test_bench_serve_starts_no_server(self, capsys, flags):
        # bench-serve is a client: the server's flags belong on `serve`.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-serve", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
