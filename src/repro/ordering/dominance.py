"""The dominance graph maintained by Streamer (paper, Section 5.2).

Nodes are (abstract or concrete) plans with a cached utility interval;
edges are *domination links* ``p -> q`` recording that, at link
creation time, every concrete plan of ``p`` had utility at least that
of every concrete plan of ``q`` (interval dominance, ``lo_p >= hi_q``).

Each link carries the set ``E(p, q)`` of plans that have been removed
(executed) since the link was created.  A link stays valid as long as
some concrete plan of ``p`` is independent of every plan in
``E(p, q)``: that witness's utility hasn't changed, and under
utility-diminishing returns the utilities in ``q`` can only have
dropped, so the domination still holds (the paper's argument (a)-(c)
in Section 5.2).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import OrderingError
from repro.observability.metrics import MetricRegistry
from repro.ordering.abstraction import AbstractPlan
from repro.reformulation.plans import QueryPlan
from repro.utility.intervals import Interval

#: Node identity: the per-slot member-name tuples.
NodeKey = tuple[tuple[str, ...], ...]


class Node:
    """A plan in the dominance graph with its cached interval.

    ``interval`` is None when the utility is unknown or has been
    invalidated ("set u(e) <- nil" in Figure 5).  A non-None interval
    is always *current*: every removal invalidates the intervals of all
    possibly-affected nodes.
    """

    __slots__ = ("plan", "interval", "key", "version")

    def __init__(self, plan: AbstractPlan) -> None:
        self.plan = plan
        self.interval: Optional[Interval] = None
        self.key: NodeKey = plan.key
        #: Bumped each time the interval is computed; lets heap entries
        #: detect that they are stale without eager deletion.  Setting
        #: the interval to None needs no bump: no entry accepts None.
        self.version = 0

    @property
    def is_concrete(self) -> bool:
        return self.plan.is_concrete

    def __repr__(self) -> str:
        return f"<Node {self.plan} u={self.interval}>"


class DominanceGraph:
    """Nodes, domination links, and the E(p, q) bookkeeping.

    When a :class:`~repro.observability.metrics.MetricRegistry` is
    passed, the graph reports its churn (nodes/links added and removed)
    and current size under ``dominance.*`` metric names — the per-stage
    accounting ranked-enumeration systems use to explain where work
    goes.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self._nodes: dict[NodeKey, Node] = {}
        # out[p][q] = E(p, q): plans removed since the link was created.
        self._out: dict[NodeKey, dict[NodeKey, list[QueryPlan]]] = {}
        self._in_degree: dict[NodeKey, int] = {}
        self._nondominated: set[NodeKey] = set()
        metrics = registry if registry is not None else MetricRegistry()
        self._nodes_added = metrics.counter("dominance.nodes_added")
        self._nodes_removed = metrics.counter("dominance.nodes_removed")
        self._links_added = metrics.counter("dominance.links_added")
        self._links_removed = metrics.counter("dominance.links_removed")
        self._node_gauge = metrics.gauge("dominance.nodes")
        self._link_gauge = metrics.gauge("dominance.links")

    # -- nodes ------------------------------------------------------------------

    def add_plan(self, plan: AbstractPlan) -> Node:
        node = Node(plan)
        if node.key in self._nodes:
            raise OrderingError(f"duplicate node {plan}")
        self._nodes[node.key] = node
        self._out[node.key] = {}
        self._in_degree[node.key] = 0
        self._nondominated.add(node.key)
        self._nodes_added.inc()
        self._node_gauge.set(len(self._nodes))
        return node

    def remove_node(self, node: Node) -> list[Node]:
        """Remove a node (must be nondominated) and its outgoing links.

        Returns the nodes that became nondominated as a result.
        """
        if self._in_degree[node.key] != 0:
            raise OrderingError(f"cannot remove dominated node {node.plan}")
        freed = []
        dropped_links = len(self._out[node.key])
        for target_key in self._out.pop(node.key):
            self._in_degree[target_key] -= 1
            if self._in_degree[target_key] == 0:
                self._nondominated.add(target_key)
                freed.append(self._nodes[target_key])
        del self._nodes[node.key]
        del self._in_degree[node.key]
        self._nondominated.discard(node.key)
        self._nodes_removed.inc()
        self._links_removed.inc(dropped_links)
        self._node_gauge.set(len(self._nodes))
        self._link_gauge.dec(dropped_links)
        return freed

    def get(self, key: NodeKey) -> Optional[Node]:
        return self._nodes.get(key)

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def is_dominated(self, node: Node) -> bool:
        return self._in_degree[node.key] > 0

    def nondominated(self) -> list[Node]:
        return [self._nodes[key] for key in self._nondominated]

    # -- links ------------------------------------------------------------------

    def add_link(self, source: Node, target: Node) -> None:
        """Create ``source -> target`` with an empty E set.

        Streamer links only from the champion to a nondominated target,
        and a linked target is dominated, so no link is created twice.
        """
        if source.key == target.key:
            raise OrderingError("self-domination link")
        self._out[source.key][target.key] = []
        self._in_degree[target.key] += 1
        self._nondominated.discard(target.key)
        self._links_added.inc()
        self._link_gauge.inc()

    def remove_link(self, source_key: NodeKey, target_key: NodeKey) -> None:
        del self._out[source_key][target_key]
        self._in_degree[target_key] -= 1
        if self._in_degree[target_key] == 0:
            self._nondominated.add(target_key)
        self._links_removed.inc()
        self._link_gauge.dec()

    def links(self) -> list[tuple[Node, Node, list[QueryPlan]]]:
        """All links as (source node, target node, E set) triples."""
        out = []
        for source_key, targets in self._out.items():
            for target_key, removed in targets.items():
                out.append(
                    (self._nodes[source_key], self._nodes[target_key], removed)
                )
        return out


def head_certainly_best(
    head: Interval, rest: "list[Interval] | tuple[Interval, ...]"
) -> bool:
    """Is a re-scored head still provably the best remaining plan?

    The adaptive orderer's trigger test (the same interval-dominance
    primitive Streamer's links use, applied to "has the ranking
    provably shifted?"): the current head keeps streaming only when its
    utility interval dominates *every* residual subspace's interval —
    ``head.lo >= sub.hi`` for each.  One overlapping interval means
    some not-yet-emitted plan may now beat the head, and the caller
    must re-sort.  With an empty *rest* the head is trivially best.
    """
    return all(head.dominates(interval) for interval in rest)
