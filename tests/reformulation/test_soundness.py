"""Tests for plan soundness via expansion + containment."""

import random

import pytest

from repro.datalog.containment import is_contained
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Constant, Variable
from repro.errors import ReformulationError
from repro.reformulation import soundness
from repro.reformulation.buckets import build_buckets
from repro.reformulation.plans import QueryPlan
from repro.reformulation.soundness import (
    expand_plan,
    is_sound,
    plan_query,
    sound_plans,
)
from repro.sources.catalog import Catalog
from repro.workloads.cameras import camera_domain
from repro.workloads.movies import movie_domain
from repro.workloads.random_lav import random_scenario
from tests.conftest import clone_catalog


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


# -- the slot certificate -------------------------------------------------------


def full_search(query, plan):
    """``plan_query`` without the certificate: the first contained
    rewriting of the unification search."""
    for candidate, expansion in soundness._search(query, plan):
        if is_contained(expansion, query):
            return candidate
    return None


def certified(query, plan):
    return all(
        soundness._certify(query, slot, source) is not None
        for slot, source in enumerate(plan.sources)
    )


def constant_scenario(seed):
    """A random LAV catalog and query with constants on both sides:
    views select and repeat columns, queries select and join."""
    rng = random.Random(seed)
    catalog = Catalog()
    arities = {f"r{i}": rng.choice((1, 2, 2, 3)) for i in range(3)}
    for name, arity in arities.items():
        catalog.add_relation(name, arity)
    terms = [Variable(f"X{i}") for i in range(4)] + [Constant("a"), Constant("b")]
    weights = [4] * 4 + [1, 1]

    def body(n_atoms):
        return tuple(
            Atom(name, tuple(rng.choices(terms, weights, k=arities[name])))
            for name in rng.choices(list(arities), k=n_atoms)
        )

    def with_head(name, atoms, most):
        names = sorted({v for atom in atoms for v in atom.variables()}, key=str)
        if not names:
            return None
        head = rng.sample(names, rng.randint(1, min(most, len(names))))
        return ConjunctiveQuery(Atom(name, tuple(head)), atoms)

    for index in range(6):
        view = with_head(f"s{index}", body(rng.randint(1, 2)), 4)
        if view is not None:
            catalog.add_source(view)
    return catalog, with_head("q", body(rng.randint(1, 3)), 3)


def scenario_families():
    """(catalog, query) of every family the certificate is checked on."""
    for shape in ((3, 5, 2, 2), (4, 7, 3, 3), (2, 6, 2, 1)):
        for seed in range(40):
            scenario = random_scenario(seed, *shape)
            yield scenario.catalog, scenario.query
    for seed in range(150):
        catalog, query = constant_scenario(seed)
        if query is not None:
            yield catalog, query
    for domain in (movie_domain(), camera_domain()):
        yield domain.catalog, domain.query
    catalog, queries = clone_catalog(clones=2, width=3, bucket_size=6)
    yield catalog, queries[1]


class TestSlotCertificate:
    def test_the_certificate_changes_no_plan_and_certifies_no_rejected_one(self):
        plans = certified_plans = unsound = 0
        for catalog, query in scenario_families():
            try:
                space = build_buckets(query, catalog)
            except ReformulationError:
                continue
            # A fresh query object: the certificates start cold.
            fresh = ConjunctiveQuery(query.head, query.body)
            for plan in space.plans():
                expected = full_search(query, plan)
                got = plan_query(fresh, plan)
                assert got == expected and str(got) == str(expected), plan
                plans += 1
                unsound += expected is None
                if certified(query, plan):
                    assert expected is not None, f"{plan} certified, unsound"
                    certified_plans += 1
        # Every side of the fast path is exercised.
        assert 0 < certified_plans < plans - unsound and unsound > 0

    def test_one_query_against_two_catalogs_uses_each_catalogs_views(self):
        # Source names repeat across catalogs: the certificate made for
        # one view must not answer for another view of the same name.
        query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        plans = []
        for text in ("w(X, Y) :- r(X, Y)", "w(X) :- r(X, Z)"):
            catalog = Catalog({"r": 2, "s": 2})
            w = catalog.add_source(text)
            plans.append(QueryPlan((w, catalog.add_source("t(X, Y) :- s(X, Y)"))))
        assert str(plan_query(query, plans[0])) == "q(X, Y) :- w(X, Z), t(Z, Y)"
        assert plan_query(query, plans[1]) is None

    @pytest.fixture
    def containment_calls(self, monkeypatch):
        calls = []

        def counting(inner, outer):
            calls.append(inner)
            return is_contained(inner, outer)

        monkeypatch.setattr(soundness, "is_contained", counting)
        return calls

    @pytest.fixture
    def catalog(self):
        cat = Catalog({"r": 2, "s": 2})
        cat.add_source("w(X, Y) :- r(X, Y)")
        cat.add_source("t(X, Y) :- s(X, Y)")
        cat.add_source("pinned(Y) :- r(c, Y)")
        cat.add_source("twice(A) :- r(A, A)")
        cat.add_source("hidden(X) :- r(X, Z)")
        return cat

    @pytest.mark.parametrize(
        "source, text, rewritten",
        [
            ("w", "q(X, Y) :- r(X, Z), s(Z, Y)", "q(X, Y) :- w(X, Z), t(Z, Y)"),
            # The constant selects a column nothing else reads.
            ("pinned", "q(Y, W) :- r(X, Y), s(Y, W)", "q(Y, W) :- pinned(Y), t(Y, W)"),
        ],
    )
    def test_a_certified_plan_runs_no_containment_search(
        self, catalog, containment_calls, source, text, rewritten
    ):
        query = parse_query(text)
        plan = QueryPlan((catalog.source(source), catalog.source("t")))
        assert str(plan_query(query, plan)) == rewritten
        assert containment_calls == []

    @pytest.mark.parametrize(
        "source, text",
        [
            ("pinned", "q(X, Y) :- r(X, Z), s(Z, Y)"),  # a source selection
            ("twice", "q(X, Y) :- r(X, Z), s(Z, Y)"),  # a repeated column
            ("hidden", "q(X, Y) :- r(X, Z), s(Z, Y)"),  # a hidden join
            ("hidden", "q(X, Z) :- r(X, Z), s(X, Y)"),  # a hidden head variable
            ("hidden", 'q(X, Y) :- r(X, "c"), s(X, Y)'),  # a hidden selection
        ],
    )
    def test_an_uncertified_slot_sends_the_plan_to_the_search(
        self, catalog, containment_calls, source, text
    ):
        query = parse_query(text)
        plan = QueryPlan((catalog.source(source), catalog.source("t")))
        assert plan_query(query, plan) == full_search(query, plan)
        assert containment_calls != []
