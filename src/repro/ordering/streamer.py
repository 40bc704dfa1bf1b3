"""Streamer: abstraction with recycled dominance relations (Figure 5).

Streamer is applicable when *utility-diminishing returns* holds.  It
abstracts the sources once, then maintains a dominance graph across
output iterations, revalidating links via plan independence instead of
rebuilding the abstract plan space as iDrips does.

The loop follows Figure 5 of the paper:

1. Put the fully abstract top plan into the graph with unknown utility.
2. Repeat until ``k`` plans have been output:

   a. (re)compute the utility interval of every nondominated plan whose
      interval is unknown;
   b. create domination links ``b -> c`` (``lo_b >= hi_c``) among
      nondominated plans, each with an empty removed-plan set ``E``;
   c. if the most promising nondominated plan is abstract, refine it
      and go to (a);
   d. otherwise output that (concrete) plan ``d``, remove it, then for
      every link ``q -> q'`` either add ``d`` to ``E(q, q')`` (when a
      concrete witness in ``q`` independent of ``E union {d}`` exists —
      the link is *recycled*) or drop the link, and finally invalidate
      the cached utility of every plan not independent of ``d``.

Implementation notes beyond Figure 5 (also summarized in DESIGN.md §3):

* **Champion-only links.** Whenever any plan dominates ``c``, so does
  the plan with the maximal interval lower bound (the *champion*), so
  step (b) creates links from the champion only; the resulting
  nondominated set is the same as with the all-pairs rule.  Mutual
  domination can only occur between equal point intervals and is
  resolved by the plans' deterministic keys, so links form a DAG.
* **Heap-ordered processing.** Nondominated plans are kept in two lazy
  priority queues: a max-heap by interval upper bound selects the plan
  to refine or output, and a min-heap by upper bound yields the plans
  the champion newly dominates.  Entries carry the node's version at
  push time, bumped each time its interval is computed, and are skipped
  when stale.  Invalidation needs no bump of its own: it leaves the
  interval None, which no entry accepts, and every later value comes
  from a fresh evaluation, which bumps.
* **Early output.** A concrete plan whose upper bound tops the heap
  already beats every remaining plan (dominated plans are bounded by
  their dominators' witnesses), so it is output even if abstract
  nondominated plans linger with smaller upper bounds; Figure 5 would
  first refine those to exhaustion.  This changes only *when* work
  happens, never the emitted ordering.
* **Refinement drops the parent's links.** Every child's interval is
  contained in its parent's, so step (b) re-creates the dominations
  from fresh data.  A cached (non-None) interval is always current —
  every recorded execution invalidates all possibly-affected intervals
  — so link creation never uses stale bounds.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from repro.errors import OrderingError
from repro.ordering.abstraction import (
    AbstractionHeuristic,
    OutputCountHeuristic,
    top_plan,
)
from repro.ordering.base import EmitCallback, OrderedPlan, PlanOrderer
from repro.ordering.dominance import DominanceGraph, Node, NodeKey
from repro.ordering.regimes import not_applicable
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.utility.base import ExecutionContext, UtilityMeasure
from repro.utility.intervals import Interval

#: Lazy heap entry: (sort value, node key, node version at push time).
HeapEntry = tuple[float, NodeKey, int]


class StreamerOrderer(PlanOrderer):
    """The paper's Streamer algorithm."""

    name = "Streamer"

    def __init__(
        self,
        utility: UtilityMeasure,
        heuristic: Optional[AbstractionHeuristic] = None,
        **instrumentation: object,
    ) -> None:
        if not utility.has_diminishing_returns:
            raise not_applicable(
                "Streamer", "utility-diminishing returns", utility
            )
        super().__init__(utility, **instrumentation)
        self.heuristic = heuristic or OutputCountHeuristic()

    # -- main loop ---------------------------------------------------------------

    def order_spaces(
        self,
        spaces: "list[PlanSpace] | tuple[PlanSpace, ...]",
        k: int,
        on_emit: Optional[EmitCallback] = None,
    ) -> Iterator[OrderedPlan]:
        self._check_k(k)
        context = self.utility.new_context()
        graph = DominanceGraph(registry=self.registry)
        refine_heap: list[HeapEntry] = []  # max-heap by hi (negated)
        link_heap: list[HeapEntry] = []  # min-heap by hi
        # Nondominated plans of unknown utility, by key: created,
        # invalidated or freed since step 2.a last ran.
        pending: dict[NodeKey, Node] = {}
        champion: Optional[Node] = None

        def push(node: Node) -> None:
            heapq.heappush(
                refine_heap, (-node.interval.hi, node.key, node.version)
            )
            heapq.heappush(link_heap, (node.interval.hi, node.key, node.version))

        def current(key: NodeKey, version: int) -> Optional[Node]:
            node = graph.get(key)
            if node is None or node.version != version or node.interval is None:
                return None
            return node

        def on_freed(freed: list[Node]) -> None:
            for node in freed:
                if node.interval is None:
                    pending[node.key] = node
                else:
                    push(node)

        for space_id, space in enumerate(spaces):
            root = graph.add_plan(
                top_plan(space.buckets, self.heuristic, space_id)
            )
            pending[root.key] = root

        emitted = 0
        while emitted < k and len(graph) > 0:
            # Step 2.a: evaluate nondominated plans with unknown utility.
            fresh = list(pending.values())
            pending.clear()
            for node in fresh:
                self._evaluate(node, context)
                node.version += 1
                push(node)

            champion = self._update_champion(graph, champion, fresh)

            # Step 2.b: link the champion to every plan it dominates.
            if champion is not None:
                lo = champion.interval.lo
                while link_heap and link_heap[0][0] <= lo:
                    _hi, key, version = heapq.heappop(link_heap)
                    node = current(key, version)
                    if node is None or node is champion:
                        continue
                    mutual = node.interval.lo >= champion.interval.hi
                    if mutual and not champion.key < node.key:
                        continue  # exact tie resolved in the node's favor
                    graph.add_link(champion, node)
                    self.stats.links_created += 1

            # Steps 2.c / 2.d: take the most promising nondominated plan.
            top = None
            while refine_heap:
                _neg_hi, key, version = heapq.heappop(refine_heap)
                node = current(key, version)
                if node is not None and not graph.is_dominated(node):
                    top = node
                    break
            if top is None:
                # Step 2.a scored every nondominated plan and gave it a
                # current refine_heap entry, so this cannot happen.
                raise OrderingError("dominance graph has no processable plan")

            if not top.is_concrete:
                # Step 2.c: refine.
                if champion is top:
                    champion = None
                on_freed(graph.remove_node(top))
                for child in top.plan.refine():
                    node = graph.add_plan(child)
                    pending[node.key] = node
                self.stats.refinements += 1
                continue

            # Step 2.d: output.
            plan = top.plan.concrete_plan()
            emitted += 1
            self.stats.snapshot_first_plan()
            yield OrderedPlan(plan, top.interval.lo, emitted)

            champion = None
            on_freed(graph.remove_node(top))
            if on_emit is None or on_emit(plan):
                context.record(plan)
                freed = self._revalidate_links(graph, plan)
                self._invalidate_intervals(graph, plan, pending)
                # Nodes freed by link invalidation need fresh heap
                # entries (their old ones were consumed while they were
                # dominated); run after interval invalidation so stale
                # intervals land in `pending` instead.
                on_freed(freed)

    # -- helpers -----------------------------------------------------------------

    def _evaluate(self, node: Node, context: ExecutionContext) -> None:
        if node.is_concrete:
            value = self._evaluate_plan(node.plan.concrete_plan(), context)
            node.interval = Interval.point(value)
        else:
            node.interval = self._evaluate_slots(
                node.plan.slots_members(), context
            )

    def _update_champion(
        self,
        graph: DominanceGraph,
        champion: Optional[Node],
        fresh: list[Node],
    ) -> Optional[Node]:
        """Keep the champion the nondominated plan with maximal lo.

        A champion stays valid until the loop resets it: only it creates
        links, so nothing dominates it, and it is reset before it is
        refined, output or invalidated.
        """
        if champion is None:
            scored = [n for n in graph.nondominated() if n.interval is not None]
            if not scored:
                return None
            return max(scored, key=lambda n: (n.interval.lo, n.key))
        for node in fresh:
            if (node.interval.lo, node.key) > (
                champion.interval.lo,
                champion.key,
            ):
                champion = node
        return champion

    def _revalidate_links(
        self, graph: DominanceGraph, removed: QueryPlan
    ) -> list[Node]:
        """Step 2.d: recycle links whose witness survives, drop the rest.

        Returns the nodes that became nondominated.
        """
        freed: list[Node] = []
        for source, target, e_set in graph.links():
            slots = source.plan.slots_members()
            if self.utility.all_members_independent(slots, removed):
                # Fast path: *removed* cannot touch any member of the
                # dominating plan, so any witness independent of E is
                # also independent of E + {removed}; E need not grow.
                self.stats.links_recycled += 1
                continue
            if self.utility.has_independent_witness(slots, e_set + [removed]):
                e_set.append(removed)
                self.stats.links_recycled += 1
            else:
                graph.remove_link(source.key, target.key)
                self.stats.links_invalidated += 1
                if not graph.is_dominated(target):
                    freed.append(target)
        return freed

    def _invalidate_intervals(
        self,
        graph: DominanceGraph,
        removed: QueryPlan,
        pending: dict[NodeKey, Node],
    ) -> None:
        """Step 2.d: nil the utility of plans not independent of *removed*."""
        for node in graph.nodes():
            if node.interval is None:
                continue
            if not self.utility.all_members_independent(
                node.plan.slots_members(), removed
            ):
                node.interval = None
                if not graph.is_dominated(node):
                    pending[node.key] = node