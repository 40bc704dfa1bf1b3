"""Tests for the shared diagnostics model."""

import pytest

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    sort_diagnostics,
)


def make(rule="COD999", message="m", file="f.py", line=3, column=1):
    return Diagnostic(
        rule=rule,
        message=message,
        location=Location(file, line, column),
    )


class TestDiagnostic:
    def test_format_carries_location_rule_and_message(self):
        assert str(make(message="bad thing")) == "f.py:3:1: COD999: bad thing"


class TestLocation:
    @pytest.mark.parametrize("location, text", [
        (Location("movies"), "movies"),
        (Location("f.py", 7), "f.py:7"),
        (Location("f.py", 7, 5), "f.py:7:5"),
    ])
    def test_renders_only_the_coordinates_it_has(self, location, text):
        assert str(location) == text


class TestAggregation:
    def test_sort_breaks_ties_by_column_then_rule(self):
        ordered = sort_diagnostics([
            make(rule="COD004", column=9),
            make(rule="COD003", column=9),
            make(rule="COD006", column=2),
        ])
        assert [d.rule for d in ordered] == ["COD006", "COD003", "COD004"]

    def test_sort_orders_by_file_then_line(self):
        unsorted = [
            make(file="b.py", line=1),
            make(file="a.py", line=9),
            make(file="a.py", line=2),
        ]
        ordered = sort_diagnostics(unsorted)
        assert [(d.location.file, d.location.line) for d in ordered] == [
            ("a.py", 2), ("a.py", 9), ("b.py", 1)
        ]
