"""Tests for the bucket algorithm."""

import pytest

from repro.errors import ReformulationError
from repro.datalog.parser import parse_query
from repro.reformulation.buckets import (
    bucket_candidates,
    build_buckets,
    source_covers_subgoal,
)
from repro.sources.catalog import Catalog
from repro.workloads.random_lav import random_scenario
from tests.conftest import clone_catalog


class TestMovieDomain:
    """Figure 1: the canonical bucket example."""

    def test_buckets_match_figure1(self, movies):
        space = build_buckets(movies.query, movies.catalog)
        names = [tuple(s.name for s in b.sources) for b in space.buckets]
        assert names == [("v1", "v2", "v3"), ("v4", "v5", "v6")]

    def test_plan_space_has_nine_plans(self, movies):
        space = build_buckets(movies.query, movies.catalog)
        assert space.size == 9

    def test_space_remembers_query(self, movies):
        space = build_buckets(movies.query, movies.catalog)
        assert space.query is movies.query


class TestCoverageConditions:
    @pytest.fixture
    def catalog(self) -> Catalog:
        cat = Catalog({"r": 2, "s": 1})
        return cat

    def test_head_variable_must_be_distinguished(self, catalog):
        # w hides the first column of r, so it cannot serve a subgoal
        # whose first position carries a query head variable.
        catalog.add_source("w(Y) :- r(X, Y)")
        query = parse_query("q(X) :- r(X, Y)")
        with pytest.raises(ReformulationError):
            build_buckets(query, catalog)

    def test_existential_position_may_be_hidden(self, catalog):
        catalog.add_source("w(X) :- r(X, Y)")
        query = parse_query("q(X) :- r(X, Y)")
        space = build_buckets(query, catalog)
        assert [s.name for s in space.buckets[0].sources] == ["w"]

    def test_constant_needs_selectable_column(self, catalog):
        # Selection r(c, Y): a source hiding column 1 cannot apply it.
        catalog.add_source("w(Y) :- r(X, Y)")
        catalog.add_source("u(X, Y) :- r(X, Y)")
        query = parse_query("q(Y) :- r(c, Y)")
        space = build_buckets(query, catalog)
        assert [s.name for s in space.buckets[0].sources] == ["u"]

    def test_constant_in_source_compatible(self, catalog):
        catalog.add_source("w(Y) :- r(c, Y)")
        query = parse_query("q(Y) :- r(c, Y)")
        space = build_buckets(query, catalog)
        assert [s.name for s in space.buckets[0].sources] == ["w"]

    def test_constant_mismatch_excluded(self, catalog):
        catalog.add_source("w(Y) :- r(d, Y)")
        query = parse_query("q(Y) :- r(c, Y)")
        with pytest.raises(ReformulationError):
            build_buckets(query, catalog)

    def test_source_covering_multiple_subgoals_lands_in_both_buckets(self, catalog):
        catalog.add_source("w(X, Y) :- r(X, Y), s(X)")
        query = parse_query("q(X, Y) :- r(X, Y), s(X)")
        space = build_buckets(query, catalog)
        assert [s.name for s in space.buckets[0].sources] == ["w"]
        assert [s.name for s in space.buckets[1].sources] == ["w"]

    def test_empty_bucket_raises(self, catalog):
        catalog.add_source("w(X) :- s(X)")
        query = parse_query("q(X, Y) :- r(X, Y)")
        with pytest.raises(ReformulationError):
            build_buckets(query, catalog)


class TestSourceCoversSubgoal:
    def test_direct_cover(self, movies):
        v1 = movies.catalog.source("v1")
        subgoal = parse_query("q(M) :- play_in(ford, M)").subgoal(0)
        assert source_covers_subgoal(v1, subgoal, frozenset())

    def test_wrong_predicate(self, movies):
        v4 = movies.catalog.source("v4")
        subgoal = parse_query("q(M) :- play_in(ford, M)").subgoal(0)
        assert not source_covers_subgoal(v4, subgoal, frozenset())


def scan_bucket_candidates(query, catalog):
    """The reference: every catalog source against every subgoal."""
    head_vars = frozenset(query.head.variables())
    return tuple(
        tuple(
            source
            for source in catalog.sources
            if source_covers_subgoal(source, subgoal, head_vars)
        )
        for subgoal in query.subgoals
    )


class TestPredicateIndexedBuckets:
    """``bucket_candidates`` visits only the sources the catalog indexes
    under each subgoal's predicate; the full scan is the reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_full_scan_on_random_lav(self, seed):
        scenario = random_scenario(
            seed, n_relations=4, n_sources=10, query_subgoals=3
        )
        indexed = bucket_candidates(scenario.query, scenario.catalog)
        scanned = scan_bucket_candidates(scenario.query, scenario.catalog)
        # Same members in the same order: bucket order fixes every stream.
        assert [[s.name for s in b] for b in indexed] == [
            [s.name for s in b] for b in scanned
        ]

    def test_equals_the_full_scan_on_clones(self):
        catalog, queries = clone_catalog(clones=4, bucket_size=6)
        for query in queries:
            assert bucket_candidates(query, catalog) == scan_bucket_candidates(
                query, catalog
            )

    def test_sources_added_after_a_first_query_are_seen(self):
        catalog = Catalog({"r": 2, "s": 1})
        catalog.add_source("u(X, Y) :- r(X, Y)")
        query = parse_query("q(X, Y) :- r(X, Y)")
        assert [s.name for s in build_buckets(query, catalog).buckets[0]] == ["u"]
        catalog.add_source("w(X, Y) :- r(X, Y), s(X)")
        assert [s.name for s in build_buckets(query, catalog).buckets[0]] == [
            "u", "w",
        ]

    def test_renames_only_what_the_query_touches_and_only_once(self, rename_calls):
        # 768 sources, 3 subgoals, 16 sources per predicate: a scan
        # renames 2 304 views per request, the index 48 per catalog.
        catalog, queries = clone_catalog(clones=16, width=3, bucket_size=16)
        assert len(catalog) == 768
        space = build_buckets(queries[5], catalog)
        assert [len(bucket) for bucket in space.buckets] == [16, 16, 16]
        assert len(rename_calls) <= 48
        del rename_calls[:]
        build_buckets(queries[5], catalog)
        assert rename_calls == []
