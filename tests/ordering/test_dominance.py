"""Tests for the dominance graph."""

import pytest

from repro.datalog.parser import parse_query
from repro.errors import OrderingError
from repro.ordering.abstraction import AbstractPlan, AbstractSource
from repro.ordering.dominance import DominanceGraph
from repro.sources.catalog import SourceDescription


def leaf_plan(*names: str) -> AbstractPlan:
    slots = tuple(
        AbstractSource(
            i, (SourceDescription(n, parse_query(f"{n}(X) :- r(X)")),)
        )
        for i, n in enumerate(names)
    )
    return AbstractPlan(slots)


@pytest.fixture
def graph() -> DominanceGraph:
    return DominanceGraph()


class TestNodes:
    def test_add_and_lookup(self, graph):
        node = graph.add_plan(leaf_plan("a"))
        assert graph.get(node.key) is node
        assert len(graph) == 1

    def test_duplicate_rejected(self, graph):
        graph.add_plan(leaf_plan("a"))
        with pytest.raises(OrderingError):
            graph.add_plan(leaf_plan("a"))

    def test_new_node_nondominated(self, graph):
        node = graph.add_plan(leaf_plan("a"))
        assert not graph.is_dominated(node)
        assert graph.nondominated() == [node]


class TestLinks:
    def test_link_dominates_target(self, graph):
        a = graph.add_plan(leaf_plan("a"))
        b = graph.add_plan(leaf_plan("b"))
        graph.add_link(a, b)
        assert graph.is_dominated(b)
        assert graph.nondominated() == [a]
        assert [(s.key, t.key) for s, t, _e in graph.links()] == [(a.key, b.key)]

    def test_self_link_rejected(self, graph):
        a = graph.add_plan(leaf_plan("a"))
        with pytest.raises(OrderingError):
            graph.add_link(a, a)

    def test_remove_link_frees_target(self, graph):
        a = graph.add_plan(leaf_plan("a"))
        b = graph.add_plan(leaf_plan("b"))
        graph.add_link(a, b)
        graph.remove_link(a.key, b.key)
        assert not graph.is_dominated(b)
        assert graph.links() == []

    def test_multiple_dominators(self, graph):
        a = graph.add_plan(leaf_plan("a"))
        b = graph.add_plan(leaf_plan("b"))
        c = graph.add_plan(leaf_plan("c"))
        graph.add_link(a, c)
        graph.add_link(b, c)
        graph.remove_link(a.key, c.key)
        assert graph.is_dominated(c)  # still dominated by b

    def test_links_listing_carries_e_sets(self, graph):
        a = graph.add_plan(leaf_plan("a"))
        b = graph.add_plan(leaf_plan("b"))
        graph.add_link(a, b)
        ((source, target, e_set),) = graph.links()
        assert source is a and target is b
        e_set.append("sentinel")  # the stored list is shared
        ((_, _, again),) = graph.links()
        assert again == ["sentinel"]


class TestRemoveNode:
    def test_remove_frees_victims(self, graph):
        a = graph.add_plan(leaf_plan("a"))
        b = graph.add_plan(leaf_plan("b"))
        c = graph.add_plan(leaf_plan("c"))
        graph.add_link(a, b)
        graph.add_link(a, c)
        freed = graph.remove_node(a)
        assert {n.key for n in freed} == {b.key, c.key}
        assert len(graph) == 2
        assert not graph.is_dominated(b)

    def test_remove_dominated_node_rejected(self, graph):
        a = graph.add_plan(leaf_plan("a"))
        b = graph.add_plan(leaf_plan("b"))
        graph.add_link(a, b)
        with pytest.raises(OrderingError):
            graph.remove_node(b)

    def test_remove_keeps_other_dominators(self, graph):
        a = graph.add_plan(leaf_plan("a"))
        b = graph.add_plan(leaf_plan("b"))
        c = graph.add_plan(leaf_plan("c"))
        graph.add_link(a, c)
        graph.add_link(b, c)
        freed = graph.remove_node(a)
        assert freed == []  # c still dominated by b
