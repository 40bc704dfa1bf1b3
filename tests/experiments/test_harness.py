"""Tests for the experiment harness and Figure 6 panel specs."""

import pytest

from repro.experiments import figure6
from repro.experiments.figure6 import (
    PANELS,
    main as figure6_main,
    overlap_sweep_spec,
    query_length_spec,
)
from repro.experiments.harness import AlgorithmSpec, PanelSpec, run_panel
from repro.ordering.bruteforce import PIOrderer


class TestPanelDefinitions:
    def test_all_twelve_panels_defined(self):
        assert sorted(PANELS) == list("abcdefghijkl")

    def test_k_values_match_paper(self):
        assert PANELS["a"].k == 1
        assert PANELS["b"].k == 10
        assert PANELS["c"].k == 100
        assert PANELS["l"].k == 100

    def test_query_length_three_by_default(self):
        assert all(spec.query_length == 3 for spec in PANELS.values())

    def test_overlap_rate_point_three(self):
        assert all(spec.overlap_rate == 0.3 for spec in PANELS.values())

    def test_streamer_absent_from_caching_panels(self):
        """Caching breaks diminishing returns (Section 6)."""
        for panel in ("g", "h", "i"):
            names = [a.name for a in PANELS[panel].algorithms]
            assert "Streamer" not in names
            assert {"PI", "iDrips"} <= set(names)

    def test_streamer_present_elsewhere(self):
        for panel in ("a", "d", "j"):
            names = [a.name for a in PANELS[panel].algorithms]
            assert "Streamer" in names


class TestRunPanel:
    def test_small_run_produces_rows(self):
        result = run_panel(PANELS["a"], bucket_sizes=(3, 4))
        assert len(result.rows) == 2 * len(PANELS["a"].algorithms)
        for row in result.rows:
            assert row.seconds >= 0
            assert row.plans_evaluated > 0
            assert row.plans_returned == 1

    def test_row_lookup_and_series(self):
        result = run_panel(PANELS["a"], bucket_sizes=(3,))
        row = result.row("PI", 3)
        assert row.algorithm == "PI"
        assert len(result.series("PI")) == 1
        with pytest.raises(KeyError):
            result.row("PI", 99)

    def test_format_table_contains_all_cells(self):
        result = run_panel(PANELS["a"], bucket_sizes=(3,))
        table = result.format_table()
        assert "Panel 6.a" in table
        assert "PI" in table and "Streamer" in table

    def test_custom_spec_seeds_averaged(self):
        spec = PanelSpec(
            "t",
            "test",
            1,
            (AlgorithmSpec("PI", lambda d: PIOrderer(d.linear_cost())),),
            bucket_sizes=(3,),
            query_length=2,
            seeds=(0, 1),
        )
        result = run_panel(spec)
        assert len(result.rows) == 1


class TestSweepSpecs:
    def test_overlap_sweep_spec(self):
        spec = overlap_sweep_spec(0.5)
        assert spec.overlap_rate == 0.5
        assert spec.k == 20

    def test_query_length_spec(self):
        spec = query_length_spec(5)
        assert spec.query_length == 5


class TestBreakdown:
    def test_breakdown_spec_has_all_five_algorithms(self):
        from repro.experiments.figure6 import breakdown_spec

        names = [a.name for a in breakdown_spec().algorithms]
        assert names == ["PI", "iDrips", "Streamer", "Greedy", "AnyK"]

    def test_breakdown_rows_populate_evaluation_split(self):
        from repro.experiments.figure6 import breakdown_spec

        result = run_panel(breakdown_spec(k=3), bucket_sizes=(4,))
        for algo in ("PI", "iDrips", "Streamer", "Greedy", "AnyK"):
            row = result.row(algo, 4)
            assert row.plans_evaluated == pytest.approx(
                row.concrete_evaluations + row.abstract_evaluations
            )
        # iDrips abstracts; plain brute force does not.
        assert result.row("iDrips", 4).abstract_evaluations > 0
        assert result.row("PI", 4).abstract_evaluations == 0

    def test_format_breakdown_lists_every_algorithm(self):
        from repro.experiments.figure6 import breakdown_spec

        result = run_panel(breakdown_spec(k=3), bucket_sizes=(4,))
        text = result.format_breakdown()
        for name in ("PI", "iDrips", "Streamer", "Greedy", "AnyK"):
            assert name in text
        assert "concrete" in text and "abstract" in text

    def test_cached_breakdown_reports_hits(self):
        from repro.experiments.figure6 import breakdown_spec

        result = run_panel(breakdown_spec(k=3, cache=True), bucket_sizes=(4,))
        assert any(row.cache_misses > 0 for row in result.rows)
        assert all(row.cache_hits >= 0 for row in result.rows)

    def test_figure6_breakdown_flag(self, capsys):
        assert figure6_main(["--quick", "--panel", "a", "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "evaluation breakdown" in out
        assert "Greedy" in out

    def test_figure6_runs_a_sweep_by_name(self, capsys, monkeypatch):
        short = (query_length_spec(1), query_length_spec(2))
        monkeypatch.setattr(figure6, "SWEEPS", {"qlen": short})
        assert figure6_main(["--panel", "qlen"]) == 0
        out = capsys.readouterr().out
        assert "Panel qlen-1" in out and "Panel qlen-2" in out

    def test_figure6_metrics_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "panels.json"
        assert figure6_main(
            ["--quick", "--panel", "a", "--metrics-out", str(path)]
        ) == 0
        assert f"wrote panel metrics to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["6.a"]["rows"]

    def test_as_dict_round_trips_through_json(self):
        import json

        from repro.experiments.figure6 import breakdown_spec

        result = run_panel(breakdown_spec(k=2), bucket_sizes=(3,))
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["panel_id"] == "breakdown"
        assert len(payload["rows"]) == 5
        row = payload["rows"][0]
        assert {"algorithm", "seconds", "plans_evaluated",
                "concrete_evaluations", "abstract_evaluations",
                "cache_hits", "cache_misses"} <= set(row)
