"""Tests for the MiniCon reformulation algorithm."""

import pytest

from repro.datalog.containment import is_contained
from repro.datalog.parser import parse_query
from repro.reformulation.buckets import build_buckets
from repro.reformulation.minicon import (
    generate_mcds,
    minicon_plan_queries,
    minicon_plan_spaces,
)
from repro.reformulation.soundness import sound_plans
from repro.sources.catalog import Catalog


class TestMovieDomain:
    def test_mcds_single_subgoal_each(self, movies):
        mcds = generate_mcds(movies.query, movies.catalog)
        by_source = {m.source.name: m for m in mcds}
        assert set(by_source) == {"v1", "v2", "v3", "v4", "v5", "v6"}
        assert by_source["v1"].covered == frozenset({0})
        assert by_source["v4"].covered == frozenset({1})

    def test_rewritings_match_bucket_plus_soundness(self, movies):
        rewritings = minicon_plan_queries(movies.query, movies.catalog)
        space = build_buckets(movies.query, movies.catalog)
        sound = list(sound_plans(movies.query, space))
        assert len(rewritings) == len(sound) == 9

    def test_plan_spaces_form_one_partition(self, movies):
        spaces = minicon_plan_spaces(movies.query, movies.catalog)
        assert len(spaces) == 1
        (gs,) = spaces
        assert gs.space.size == 9
        assert gs.groups == (frozenset({0}), frozenset({1}))


class TestDistinguishedVariableCondition:
    def test_source_hiding_output_column_yields_no_mcd(self):
        catalog = Catalog({"r": 2})
        catalog.add_source("w(Y) :- r(X, Y)")
        query = parse_query("q(X) :- r(X, Y)")
        assert generate_mcds(query, catalog) == []


class TestExistentialClosure:
    """MiniCon's Property 1 clause C2: projected join variables force
    the MCD to cover every subgoal using them."""

    @pytest.fixture
    def catalog(self) -> Catalog:
        cat = Catalog({"r": 2, "s": 2})
        cat.add_source("pair(X, Y) :- r(X, Z), s(Z, Y)")
        cat.add_source("left(X, Z) :- r(X, Z)")
        cat.add_source("right(Z, Y) :- s(Z, Y)")
        return cat

    def test_projecting_source_covers_both_subgoals(self, catalog):
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        mcds = generate_mcds(query, catalog)
        pair_mcds = [m for m in mcds if m.source.name == "pair"]
        assert pair_mcds
        assert all(m.covered == frozenset({0, 1}) for m in pair_mcds)

    def test_exposing_sources_cover_single_subgoals(self, catalog):
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        mcds = generate_mcds(query, catalog)
        left = [m for m in mcds if m.source.name == "left"]
        assert any(m.covered == frozenset({0}) for m in left)

    def test_combinations_partition_subgoals(self, catalog):
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        rewritings = minicon_plan_queries(query, catalog)
        # pair alone; left+right.
        bodies = sorted(
            tuple(sorted(a.predicate for a in r.body)) for r in rewritings
        )
        assert bodies == [("left", "right"), ("pair",)]

    def test_generalized_spaces_one_per_partition(self, catalog):
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        spaces = minicon_plan_spaces(query, catalog)
        assert len(spaces) == 2
        sizes = sorted(gs.space.size for gs in spaces)
        assert sizes == [1, 1]


class TestRewritingSoundness:
    def test_every_rewriting_expansion_contained(self, movies):
        """Expanding a MiniCon rewriting must land inside the query."""
        rewritings = minicon_plan_queries(movies.query, movies.catalog)
        views = {s.name: s.view for s in movies.catalog.sources}
        for rewriting in rewritings:
            # Build the expansion by hand: substitute each source atom
            # by its view body via unification.
            from repro.datalog.query import ConjunctiveQuery
            from repro.datalog.unification import resolve_atom, unify_atoms

            subst: dict = {}
            body = []
            ok = True
            for i, atom in enumerate(rewriting.body):
                view = views[atom.predicate].rename_apart(f"_e{i}")
                subst = unify_atoms(view.head, atom, subst)
                if subst is None:
                    ok = False
                    break
                body.extend(resolve_atom(b, subst) for b in view.body)
            assert ok, f"rewriting head mismatch: {rewriting}"
            expansion = ConjunctiveQuery(
                resolve_atom(rewriting.head, subst), tuple(body)
            )
            assert is_contained(expansion, movies.query), (
                f"unsound rewriting {rewriting}"
            )


class TestConstantHandling:
    def test_constant_in_query_binds_distinguished_view_var(self):
        catalog = Catalog({"r": 2})
        catalog.add_source("w(X, Y) :- r(X, Y)")
        query = parse_query("q(Y) :- r(c, Y)")
        rewritings = minicon_plan_queries(query, catalog)
        assert len(rewritings) == 1
        assert '"c"' in str(rewritings[0]) or "c" in str(rewritings[0])

    def test_constant_conflict_blocks_mcd(self):
        catalog = Catalog({"r": 2})
        catalog.add_source("w(Y) :- r(d, Y)")
        query = parse_query("q(Y) :- r(c, Y)")
        assert generate_mcds(query, catalog) == []

    def test_constant_match_allows_mcd(self):
        catalog = Catalog({"r": 2})
        catalog.add_source("w(Y) :- r(c, Y)")
        query = parse_query("q(Y) :- r(c, Y)")
        assert len(generate_mcds(query, catalog)) == 1


def test_a_rewriting_two_mcds_reach_is_listed_once():
    # Either r-atom of s covers the subgoal, and both MCDs rewrite the
    # query to the same conjunct.
    catalog = Catalog({"r": 2})
    catalog.add_source("s(A) :- r(A, A), r(B, A)")
    query = parse_query("q(X) :- r(Y, X)")
    assert len(generate_mcds(query, catalog)) == 2
    assert [str(r) for r in minicon_plan_queries(query, catalog)] == [
        "q(X) :- s(X)"
    ]
