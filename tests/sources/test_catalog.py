"""Tests for the source catalog."""

import pytest

from repro.errors import CatalogError
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Variable
from repro.sources.catalog import Catalog, SourceDescription
from repro.sources.statistics import SourceStats
from repro.workloads.random_lav import random_scenario
from tests.conftest import clone_catalog


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog({"play_in": 2, "american": 1})
    return cat


class TestSchema:
    def test_add_relation(self, catalog):
        catalog.add_relation("review_of", 2)
        assert catalog.schema["review_of"] == 2

    def test_arity_conflict_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.add_relation("play_in", 3)

    def test_redeclaring_same_arity_ok(self, catalog):
        catalog.add_relation("play_in", 2)

    def test_schema_is_a_copy(self, catalog):
        catalog.schema["play_in"] = 5
        assert catalog.schema["play_in"] == 2


class TestAddSource:
    def test_add_from_text(self, catalog):
        source = catalog.add_source("v1(A, M) :- play_in(A, M), american(M)")
        assert source.name == "v1"
        assert catalog.source("v1") is source

    def test_add_with_stats(self, catalog):
        stats = SourceStats(n_tuples=7)
        source = catalog.add_source("v1(A, M) :- play_in(A, M)", stats=stats)
        assert source.stats.n_tuples == 7

    def test_duplicate_name_rejected(self, catalog):
        catalog.add_source("v1(A, M) :- play_in(A, M)")
        with pytest.raises(CatalogError):
            catalog.add_source("v1(A, M) :- play_in(A, M)")

    def test_unknown_relation_rejected(self, catalog):
        with pytest.raises(CatalogError, match="unknown relation 'acts_in'"):
            catalog.add_source("v1(A, M) :- acts_in(A, M)")

    def test_wrong_arity_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.add_source("v1(A) :- play_in(A)")

    def test_source_name_colliding_with_schema_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.add_source("american(M) :- american(M)")

    def test_sources_for_predicate(self, catalog):
        catalog.add_source("v1(A, M) :- play_in(A, M), american(M)")
        catalog.add_source("v2(M) :- american(M)")
        assert [s.name for s in catalog.sources_for("american")] == ["v1", "v2"]
        assert [s.name for s in catalog.sources_for("play_in")] == ["v1"]

    def test_len_iter_contains(self, catalog):
        catalog.add_source("v1(A, M) :- play_in(A, M)")
        assert len(catalog) == 1
        assert "v1" in catalog
        assert [s.name for s in catalog] == ["v1"]

    def test_str_lists_relations_then_sources(self, catalog):
        catalog.add_source("v1(A, M) :- play_in(A, M)")
        assert str(catalog).splitlines() == [
            "american/1", "play_in/2", "v1(A, M) :- play_in(A, M)",
        ]

    def test_unknown_source_lookup(self, catalog):
        with pytest.raises(CatalogError):
            catalog.source("nope")


class TestSourceDescription:
    def test_name_must_match_head(self):
        view = parse_query("v1(A, M) :- play_in(A, M)")
        with pytest.raises(CatalogError):
            SourceDescription("other", view)

    def test_unsafe_view_rejected(self):
        # The parser refuses unsafe text; a view built in code meets
        # the description's own check.
        view = ConjunctiveQuery(
            Atom("v", (Variable("X"), Variable("W"))), (Atom("r", (Variable("X"),)),)
        )
        with pytest.raises(CatalogError, match="unsafe source description"):
            SourceDescription("v", view)

    def test_identity_by_name(self):
        v1 = SourceDescription("v1", parse_query("v1(A, M) :- play_in(A, M)"))
        v1_alt = SourceDescription(
            "v1", parse_query("v1(X, Y) :- play_in(X, Y)")
        )
        assert v1 == v1_alt
        assert hash(v1) == hash(v1_alt)


class TestValidateQuery:
    def test_valid_query(self, catalog):
        catalog.validate_query(parse_query("q(A) :- play_in(A, M)"))

    def test_unknown_relation(self, catalog):
        with pytest.raises(CatalogError):
            catalog.validate_query(parse_query("q(A) :- stars_in(A, M)"))

    def test_wrong_arity(self, catalog):
        with pytest.raises(CatalogError):
            catalog.validate_query(parse_query("q(A) :- play_in(A)"))


def scan_sources_for(catalog, predicate):
    """The reference: a scan of the whole catalog, in insertion order."""
    return tuple(
        s for s in catalog.sources
        if any(atom.predicate == predicate for atom in s.body)
    )


class TestPredicateIndex:
    """``sources_for`` reads an index kept by ``add_source``; a full
    scan stays here as the reference."""

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_the_scan_on_random_lav(self, seed):
        catalog = random_scenario(seed, n_relations=4, n_sources=9).catalog
        for predicate in (*catalog.schema, "no_such_relation"):
            indexed = catalog.sources_for(predicate)
            scanned = scan_sources_for(catalog, predicate)
            # Same objects in the same order, not merely equal names.
            assert [id(s) for s in indexed] == [id(s) for s in scanned]

    def test_matches_the_scan_on_clones(self):
        catalog, _ = clone_catalog(clones=4, bucket_size=5)
        for predicate in catalog.schema:
            assert catalog.sources_for(predicate) == scan_sources_for(
                catalog, predicate
            )
            assert len(catalog.sources_for(predicate)) == 5

    def test_repeated_predicate_lists_the_source_once(self, catalog):
        catalog.add_source("v1(A, B) :- play_in(A, M), play_in(B, M)")
        assert [s.name for s in catalog.sources_for("play_in")] == ["v1"]

    def test_sources_added_after_a_lookup_are_seen(self, catalog):
        catalog.add_source("v1(M) :- american(M)")
        assert [s.name for s in catalog.sources_for("american")] == ["v1"]
        catalog.add_source("v2(A, M) :- play_in(A, M), american(M)")
        assert [s.name for s in catalog.sources_for("american")] == ["v1", "v2"]

    def test_a_rejected_source_is_not_indexed(self, catalog):
        catalog.add_source("v1(M) :- american(M)")
        with pytest.raises(CatalogError):
            catalog.add_source("v1(A, M) :- play_in(A, M)")
        assert catalog.sources_for("play_in") == ()


class TestCarriedIdentity:
    def test_hash_and_equality_follow_the_name(self, catalog):
        source = catalog.add_source("v1(M) :- american(M)")
        twin = SourceDescription("v1", parse_query("v1(X) :- american(X)"))
        assert hash(source) == hash(twin) == hash("v1")
        assert source == twin
        assert {source: 1}[twin] == 1

    def test_renamed_view_is_built_once_per_suffix(self, catalog):
        source = catalog.add_source("v1(A, M) :- play_in(A, M), american(M)")
        renamed = source.renamed_view("_s0")
        assert renamed == source.view.rename_apart("_s0")
        assert source.renamed_view("_s0") is renamed
        assert source.renamed_view("_s1") == source.view.rename_apart("_s1")

    def test_renamed_views_belong_to_the_description_not_the_name(self):
        # The same name in two catalogs (tests, cluster workers) with
        # two views: a memo keyed by name would hand one the other's.
        first = Catalog({"r": 1, "s": 1}).add_source("v(X) :- r(X)")
        second = Catalog({"r": 1, "s": 1}).add_source("v(X) :- s(X)")
        assert first.renamed_view("_a").body[0].predicate == "r"
        assert second.renamed_view("_a").body[0].predicate == "s"

    def test_restated_stats_start_a_fresh_description(self, catalog):
        source = SourceDescription("v1", parse_query("v1(M) :- american(M)"))
        source.renamed_view("_a")
        added = catalog.add_source(source, stats=SourceStats(n_tuples=3))
        assert added is not source
        assert added.renamed_view("_a") == source.renamed_view("_a")
