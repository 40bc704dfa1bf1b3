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


class TestBenchServe:
    def test_micro_load_in_process(self, capsys):
        assert (
            main(
                [
                    "bench-serve",
                    "--requests", "6",
                    "--concurrency", "2",
                    "--queries", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "completed                6" in out
        assert "errors                   0" in out
        assert "throughput [req/s]" in out
        assert "first-answer latency" in out

    def test_first_k_budget_applies(self, capsys):
        assert (
            main(
                [
                    "bench-serve",
                    "--requests", "4",
                    "--concurrency", "1",
                    "--queries", "2",
                    "--first-k", "1",
                ]
            )
            == 0
        )
        assert "completed                4" in capsys.readouterr().out


class TestServeValidation:
    @pytest.mark.parametrize("flag", ["--executor-workers", "--queue-depth"])
    def test_zero_sized_pipeline_is_refused_before_binding(self, flag, capsys):
        # Port 1 cannot be bound unprivileged: reaching the bind would
        # raise OSError (or serve forever), not end in a ServiceError's
        # one-line refusal.
        assert main(["serve", "--port", "1", flag, "0"]) == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--adaptive", "off"],
            ["--adaptive"],
            ["--trace"],
            ["--default-measure", "failure"],
            ["--queue-depth", "1"],
            ["--executor-workers", "1"],
            ["--breaker-cooldown", "0.05"],
            ["--min-observations", "1"],
            ["--adaptive", "off", "--trace"],
        ],
        ids=" ".join,
    )
    def test_workers_refuses_the_flags_a_cluster_would_drop(self, flags, capsys):
        # Port 1 again: a cluster that started would fail to bind.
        assert main(["serve", "--port", "1", "--workers", "2", *flags]) == 2
        err = capsys.readouterr().err
        for flag in flags:
            if flag.startswith("--"):
                assert flag in err


class TestForwarding:
    def test_experiments_forwarding(self, capsys):
        assert main(["experiments", "--quick", "--panel", "a"]) == 0
        assert "Panel 6.a" in capsys.readouterr().out

    def test_report_forwarding(self, capsys):
        assert main(["report", "--quick", "--panel", "a"]) == 0
        assert "Panel 6.a" in capsys.readouterr().out

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


class TestBenchServeRouter:
    def test_router_and_connect_are_mutually_exclusive(self, capsys):
        code = main(
            ["bench-serve", "--router", "2", "--connect", "127.0.0.1:1"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.slow
    def test_router_mode_reports_per_shard(self, capsys):
        assert (
            main(
                [
                    "bench-serve",
                    "--router", "2",
                    "--requests", "10",
                    "--concurrency", "2",
                    "--queries", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "via 2-worker router" in out
        assert "shard imbalance" in out
        assert "errors                   0" in out
