"""Tests for the experiment harness and Figure 6 panel specs."""

import dataclasses
import statistics

import pytest

from repro.experiments import figure6
from repro.experiments.figure6 import (
    PANELS,
    main as figure6_main,
    overlap_sweep_spec,
    query_length_spec,
)
from repro.experiments.harness import AlgorithmSpec, PanelSpec, algorithm, run_panel
from repro.errors import InternalError
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

    def test_row_lookup(self):
        result = run_panel(PANELS["a"], bucket_sizes=(3,))
        row = result.row("PI", 3)
        assert row.algorithm == "PI"
        with pytest.raises(KeyError):
            result.row("PI", 99)

    def test_format_table_contains_all_cells(self):
        result = run_panel(PANELS["a"], bucket_sizes=(3,))
        table = result.format_table()
        assert "Panel 6.a" in table
        assert "PI" in table and "Streamer" in table
        evaluations = table.splitlines()[-1].split()[-3:]
        assert evaluations == [
            f"{result.row(algo.name, 3).plans_evaluated:.0f}"
            for algo in PANELS["a"].algorithms
        ]

    def test_an_orderer_short_of_k_plans_is_an_internal_error(self):
        class Short(PIOrderer):
            def order_list(self, space, k):
                return super().order_list(space, k - 1)

        spec = PanelSpec(
            "t", "test", 2,
            (AlgorithmSpec("short", lambda d: Short(d.measure("linear"))),),
            bucket_sizes=(3,), query_length=2,
        )
        with pytest.raises(InternalError, match="short returned 1 of 2 plans"):
            run_panel(spec)

    def test_custom_spec_seeds_averaged(self):
        spec = PanelSpec(
            "t",
            "test",
            3,
            (algorithm("streamer", "coverage"),),
            bucket_sizes=(6,),
            query_length=2,
            seeds=(0, 1),
        )
        (row,) = run_panel(spec).rows
        single = [
            run_panel(dataclasses.replace(spec, seeds=(seed,))).rows[0]
            for seed in (0, 1)
        ]
        assert single[0].plans_evaluated != single[1].plans_evaluated
        assert row.plans_evaluated == statistics.mean(
            r.plans_evaluated for r in single
        )


class TestSweepSpecs:
    def test_overlap_sweep_spec(self):
        spec = overlap_sweep_spec(0.5)
        assert spec.overlap_rate == 0.5
        assert spec.k == 20

    def test_query_length_spec(self):
        spec = query_length_spec(5)
        assert spec.query_length == 5


class TestFigure6Command:
    def test_figure6_runs_a_sweep_by_name(self, capsys, monkeypatch):
        short = (query_length_spec(1), query_length_spec(2))
        monkeypatch.setattr(figure6, "SWEEPS", {"qlen": short})
        assert figure6_main(["--panel", "qlen"]) == 0
        out = capsys.readouterr().out
        assert "Panel qlen-1" in out and "Panel qlen-2" in out
        # A sweep keeps its own bucket size, 8, not the panels' sizes.
        assert bucket_column(out) == [8, 8]

    def test_quick_runs_the_small_sizes(self, capsys):
        assert figure6_main(["--quick", "--panel", "a"]) == 0
        assert bucket_column(capsys.readouterr().out) == list(figure6.QUICK_SIZES)


def bucket_column(out):
    """The bucket sizes of every table row printed."""
    return [
        int(line.split()[0])
        for line in out.splitlines()
        if line.strip() and line.split()[0].isdigit()
    ]
