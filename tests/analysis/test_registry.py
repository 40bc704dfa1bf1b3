"""Tests for the rule table and --select/--ignore resolution."""

import pytest

import repro.analysis  # noqa: F401 — importing registers the shipped rules
from repro.analysis import registry
from repro.analysis.diagnostics import Severity
from repro.analysis.registry import (
    FAMILY_CODE,
    FAMILY_CONCURRENCY,
    FAMILY_SCENARIO,
    RULES,
    Rule,
    rule,
    select_rules,
)
from repro.errors import AnalysisError


def make_rule(rule_id="TST001", slug="test-rule"):
    return Rule(rule_id, slug, FAMILY_CODE, Severity.WARNING, "a test rule",
                "", lambda _context: ())


def ids(rules):
    return [r.id for r in rules]


class TestRegistration:
    def test_decorator_files_the_checker_under_its_metadata(
        self, monkeypatch
    ):
        monkeypatch.setattr(registry, "RULES", {})

        def checker(_context):
            return ()

        assert rule("TST001", "test-rule", FAMILY_CODE, Severity.WARNING,
                    "a test rule", "why")(checker) is checker
        (registered,) = registry.RULES.values()
        assert registered.id == "TST001"
        assert registered.slug == "test-rule"
        assert registered.check is checker

    def test_duplicate_id_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate rule id"):
            rule("COD001", "fresh-slug", FAMILY_CODE, Severity.ERROR,
                 "dup", "dup")(lambda _context: ())
        assert RULES["COD001"].slug == "lock-discipline"

    def test_duplicate_slug_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate rule slug"):
            rule("TST002", "lock-discipline", FAMILY_CODE, Severity.ERROR,
                 "dup", "dup")(lambda _context: ())
        assert "TST002" not in RULES


class TestMatching:
    def test_matches_exact_id_and_slug(self):
        r = make_rule()
        assert r.matches("TST001")
        assert r.matches("test-rule")
        assert not r.matches("test")

    def test_matches_id_prefix_case_insensitively(self):
        r = make_rule()
        assert r.matches("TST")
        assert r.matches("tst001")
        assert not r.matches("")


class TestSelection:
    def test_no_patterns_selects_whole_family(self):
        assert ids(select_rules(FAMILY_CONCURRENCY)) == [
            "CON001", "CON002", "CON003", "CON004"
        ]

    def test_select_narrows(self):
        assert ids(select_rules(FAMILY_CODE, select=["COD002"])) == ["COD002"]

    def test_select_by_slug(self):
        assert ids(select_rules(FAMILY_CODE, select=["bare-sleep"])) == [
            "COD006"
        ]

    def test_ignore_wins_over_select(self):
        chosen = select_rules(FAMILY_CODE, select=["COD"], ignore=["COD001"])
        assert "COD001" not in ids(chosen)
        assert "COD002" in ids(chosen)

    def test_unknown_pattern_is_an_error(self):
        with pytest.raises(AnalysisError, match="matches no rule"):
            select_rules(FAMILY_CODE, select=["TYPO"])

    def test_family_filter_keeps_other_family_out(self):
        chosen = select_rules(FAMILY_SCENARIO, select=["SCN", "COD"])
        assert ids(chosen) == ["SCN006"]


class TestShippedCatalog:
    def test_all_shipped_rules_present(self):
        assert sorted(RULES) == [
            "COD001", "COD002", "COD003", "COD004", "COD006", "COD007",
            "CON001", "CON002", "CON003", "CON004",
            "SCN006",
        ]

    def test_shipped_rules_document_themselves(self):
        for shipped in RULES.values():
            assert shipped.summary
            assert shipped.rationale

    def test_id_prefix_names_the_family(self):
        # ``--select COD`` means "the code family" only while this holds.
        prefixes = {
            FAMILY_CODE: "COD",
            FAMILY_CONCURRENCY: "CON",
            FAMILY_SCENARIO: "SCN",
        }
        for shipped in RULES.values():
            assert shipped.id.startswith(prefixes[shipped.family]), shipped.id
