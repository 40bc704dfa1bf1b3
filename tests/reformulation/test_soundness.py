"""Tests for plan soundness via expansion + containment."""

import pytest

from repro.datalog.parser import parse_query
from repro.reformulation.buckets import build_buckets
from repro.reformulation.plans import QueryPlan
from repro.reformulation.soundness import (
    expand_plan,
    is_sound,
    plan_query,
    sound_plans,
)
from repro.sources.catalog import Catalog


class TestMovieDomain:
    def test_all_nine_plans_sound(self, movies):
        space = build_buckets(movies.query, movies.catalog)
        assert len(list(sound_plans(movies.query, space))) == 9

    def test_plan_query_pushes_constant(self, movies):
        space = build_buckets(movies.query, movies.catalog)
        plan = next(space.plans())
        executable = plan_query(movies.query, plan)
        assert executable is not None
        assert '"ford"' in str(executable)

    def test_expansion_includes_view_bodies(self, movies):
        space = build_buckets(movies.query, movies.catalog)
        v1 = movies.catalog.source("v1")
        v4 = movies.catalog.source("v4")
        expansion = expand_plan(movies.query, QueryPlan((v1, v4)))
        assert expansion is not None
        predicates = [a.predicate for a in expansion.body]
        assert "american" in predicates  # from v1's view body
        assert "review_of" in predicates


class TestUnsoundPlans:
    @pytest.fixture
    def catalog(self) -> Catalog:
        cat = Catalog({"r": 2, "s": 2})
        # u joins on the wrong variable pattern for a chain query.
        cat.add_source("u(X, Y) :- r(X, Z), s(Z, Y)")
        cat.add_source("w(X, Y) :- r(X, Y)")
        cat.add_source("t(X, Y) :- s(X, Y)")
        return cat

    def test_sound_chain_plan(self, catalog):
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        w, t = catalog.source("w"), catalog.source("t")
        assert is_sound(query, QueryPlan((w, t)))

    def test_unsound_broken_join(self, catalog):
        # A plan whose sources cannot realize the join should fail.
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        w = catalog.source("w")
        # Using w (an r-view) for BOTH subgoals: r's tuples do not
        # satisfy the s subgoal.
        assert not is_sound(query, QueryPlan((w, w)))

    def test_plan_query_none_for_unsound(self, catalog):
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        w = catalog.source("w")
        assert plan_query(query, QueryPlan((w, w))) is None

    def test_length_mismatch_rejected(self, catalog):
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        w = catalog.source("w")
        with pytest.raises(Exception):
            is_sound(query, QueryPlan((w,)))


class TestSpecializingSources:
    def test_specialized_source_still_sound(self):
        """A source restricted to a subset (v2: russian movies) is a
        sound — just low-coverage — choice (paper, Section 2)."""
        catalog = Catalog({"play_in": 2, "russian": 1})
        catalog.add_source("v2(A, M) :- play_in(A, M), russian(M)")
        query = parse_query('q(M) :- play_in("ford", M)')
        v2 = catalog.source("v2")
        assert is_sound(query, QueryPlan((v2,)))

    def test_constant_source_sound_when_matching(self):
        catalog = Catalog({"r": 2})
        catalog.add_source("w(Y) :- r(c, Y)")
        query = parse_query("q(Y) :- r(X, Y)")
        w = catalog.source("w")
        assert is_sound(query, QueryPlan((w,)))

    def test_a_source_constant_selects_a_join_column(self):
        # w pins r's first column to c, so the join on X must carry c
        # into t's column; without it the plan is rejected as unsound.
        catalog = Catalog({"r": 2, "s": 1})
        w = catalog.add_source("w(Y) :- r(c, Y)")
        t = catalog.add_source("t(X) :- s(X)")
        query = parse_query("q(Y) :- r(X, Y), s(X)")
        assert str(plan_query(query, QueryPlan((w, t)))) == 'q(Y) :- w(Y), t("c")'

    def test_a_repeated_source_column_equates_its_query_terms(self):
        # w exports one column for both positions of r, so X = Y, and
        # the join with t runs on that one column.
        catalog = Catalog({"r": 2, "s": 1})
        w = catalog.add_source("w(A) :- r(A, A)")
        t = catalog.add_source("t(B) :- s(B)")
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        assert str(plan_query(query, QueryPlan((w, t)))) == "q(Y) :- w(Y), t(Y)"

    def test_multiple_unifiable_atoms_searched(self):
        catalog = Catalog({"r": 2})
        # Two r-atoms: only the second one matches the needed pattern.
        catalog.add_source("w(X, Y) :- r(Y, X), r(X, Y)")
        query = parse_query("q(X, Y) :- r(X, Y)")
        w = catalog.source("w")
        assert is_sound(query, QueryPlan((w,)))


class TestRenamedOncePerSlot:
    def test_checks_reuse_the_renamed_views(self, movies, rename_calls):
        space = build_buckets(movies.query, movies.catalog)
        plans = list(space.plans())
        del rename_calls[:]
        first = [plan_query(movies.query, plan) for plan in plans]
        # One rename per (source, slot) the plans use, however many
        # plans share the source.
        assert sorted(rename_calls) == ["_s0"] * 3 + ["_s1"] * 3
        del rename_calls[:]
        assert [plan_query(movies.query, plan) for plan in plans] == first
        assert rename_calls == []

    def test_one_source_in_two_slots_is_renamed_apart_per_slot(self):
        catalog = Catalog({"r": 2})
        w = catalog.add_source("w(X, Y) :- r(X, Y)")
        query = parse_query("q(X, Z) :- r(X, Y), r(Y, Z)")
        rewritten = plan_query(query, QueryPlan((w, w)))
        assert str(rewritten) == "q(X, Z) :- w(X, Y), w(Y, Z)"
        assert is_sound(query, QueryPlan((w, w)))
