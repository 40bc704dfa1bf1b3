"""Multi-space ordering (paper, Section 7: generalized buckets).

Splitting a plan space into disjoint subspaces and ordering the pieces
with ``order_spaces`` must reproduce the single-space ordering — and
MiniCon's generalized plan spaces must be orderable directly.
"""

from functools import partial

import pytest

from tests.conftest import assert_valid_ordering

from repro.errors import OrderingError
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer

ORDERERS = {
    "Exhaustive": ExhaustiveOrderer,
    "PI": PIOrderer,
    "iDrips": IDripsOrderer,
    "Streamer": StreamerOrderer,
}


def split_into_subspaces(space):
    """Disjoint subspaces covering the space minus its first plan,
    plus the singleton space of that plan."""
    first = next(space.plans())
    pieces = space.split_off(first)
    singleton = type(space)(
        tuple(
            bucket.only(source)
            for bucket, source in zip(space.buckets, first.sources)
        ),
        space.query,
    )
    return [singleton] + pieces


@pytest.mark.parametrize("name", sorted(ORDERERS))
def test_multi_space_matches_single_space(small_domain, name):
    measure_factory = partial(
        small_domain.measure, "linear" if name == "Greedy" else "failure"
    )
    k = 12
    make = ORDERERS[name]
    single = make(measure_factory()).order_list(small_domain.space, k)
    pieces = split_into_subspaces(small_domain.space)
    multi = list(
        make(measure_factory()).order_spaces(pieces, k)
    )
    assert [r.utility for r in multi] == pytest.approx(
        [r.utility for r in single]
    )


def test_greedy_multi_space(small_domain):
    k = 12
    single = GreedyOrderer(small_domain.measure("linear")).order_list(
        small_domain.space, k
    )
    pieces = split_into_subspaces(small_domain.space)
    multi = list(
        GreedyOrderer(small_domain.measure("linear")).order_spaces(pieces, k)
    )
    assert [r.utility for r in multi] == pytest.approx(
        [r.utility for r in single]
    )


def test_multi_space_coverage_is_valid_ordering(small_domain):
    pieces = split_into_subspaces(small_domain.space)
    results = list(
        StreamerOrderer(small_domain.measure("coverage")).order_spaces(pieces, 15)
    )
    assert_valid_ordering(results, small_domain.space, small_domain.measure("coverage"))


def test_minicon_generalized_spaces_are_orderable():
    """Order the plan spaces MiniCon produces for a query where one
    source covers two subgoals (a generalized bucket)."""
    from repro.datalog.parser import parse_query
    from repro.reformulation.minicon import minicon_plan_spaces
    from repro.sources.catalog import Catalog
    from repro.sources.statistics import SourceStats
    from repro.utility.cost import LinearCost

    catalog = Catalog({"r": 2, "s": 2})
    catalog.add_source(
        "pair(X, Y) :- r(X, Z), s(Z, Y)", stats=SourceStats(n_tuples=30)
    )
    catalog.add_source(
        "left(X, Z) :- r(X, Z)", stats=SourceStats(n_tuples=10)
    )
    catalog.add_source(
        "right(Z, Y) :- s(Z, Y)", stats=SourceStats(n_tuples=20)
    )
    query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
    spaces = [gs.space for gs in minicon_plan_spaces(query, catalog)]
    assert len(spaces) == 2

    orderer = PIOrderer(LinearCost(access_overhead=1.0))
    results = list(orderer.order_spaces(spaces, 5))
    # Two plans exist: (pair) with cost 31 and (left, right) with 32.
    assert [r.plan.key for r in results] == [("pair",), ("left", "right")]
    assert results[0].utility == pytest.approx(-31.0)
    assert results[1].utility == pytest.approx(-32.0)


def test_abstraction_orderers_on_minicon_spaces():
    from repro.datalog.parser import parse_query
    from repro.reformulation.minicon import minicon_plan_spaces
    from repro.sources.catalog import Catalog
    from repro.sources.statistics import SourceStats
    from repro.utility.cost import LinearCost

    catalog = Catalog({"r": 2, "s": 2})
    for i in range(4):
        catalog.add_source(
            f"pair{i}(X, Y) :- r(X, Z), s(Z, Y)",
            stats=SourceStats(n_tuples=25 + i),
        )
        catalog.add_source(
            f"left{i}(X, Z) :- r(X, Z)", stats=SourceStats(n_tuples=10 + i)
        )
        catalog.add_source(
            f"right{i}(Z, Y) :- s(Z, Y)", stats=SourceStats(n_tuples=15 + i)
        )
    query = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
    spaces = [gs.space for gs in minicon_plan_spaces(query, catalog)]

    k = 8
    reference = list(
        ExhaustiveOrderer(LinearCost()).order_spaces(spaces, k)
    )
    for make in (IDripsOrderer, StreamerOrderer, GreedyOrderer):
        results = list(make(LinearCost()).order_spaces(spaces, k))
        assert [r.utility for r in results] == pytest.approx(
            [r.utility for r in reference]
        ), make.__name__


def test_base_class_default_raises():
    from repro.ordering.base import PlanOrderer
    from repro.utility.cost import LinearCost

    class Stub(PlanOrderer):
        def order(self, space, k, on_emit=None):
            return iter(())

    with pytest.raises(OrderingError):
        list(Stub(LinearCost()).order_spaces([], 1))
