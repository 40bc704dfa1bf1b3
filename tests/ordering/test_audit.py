"""docs/algorithms.md's audit table against the code.

Each row of the table names one mechanism of ``repro.ordering``,
``repro.utility``, ``repro.reformulation`` or ``repro.datalog`` and ends
in its verdict: "kept" (the mechanism is there) or anything else (it was
deleted).  One probe per row checks the verdict against the tree, so a
mechanism re-added without its row, or a row left behind by a deletion,
fails here.
"""

import inspect
from pathlib import Path

import pytest

import repro.datalog
import repro.ordering
import repro.reformulation
import repro.utility
from repro.datalog import containment, engine, parser, program, query, terms
from repro.datalog import unification
from repro.ordering import abstraction, adaptive, anyk, base, bruteforce, drips
from repro.ordering import dominance, frontier, greedy, idrips, regimes
from repro.ordering.dominance import DominanceGraph
from repro.ordering.streamer import StreamerOrderer
from repro.reformulation import buckets, inverse_rules, minicon, plans, soundness
from repro.utility import boxes, cost, monetary
from repro.utility.base import UtilityMeasure
from repro.utility.boxes import DisjointBoxUnion
from repro.utility.coverage import CoverageUtility
from repro.utility.intervals import Interval

DOC = Path(__file__).resolve().parents[2] / "docs" / "algorithms.md"
HEADING = "## Which mechanisms exist, and why: the audit"


def audit_rows():
    """``(mechanism, verdict)`` for each row of the audit table."""
    section = DOC.read_text(encoding="utf-8").split(HEADING, 1)[1]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = []
    for line in lines[2:]:  # past the header and its rule
        cells = [cell.strip() for cell in line.strip().strip("|").split(" | ")]
        rows.append((cells[0], cells[-1]))
    return rows


def source(obj):
    return inspect.getsource(obj)


def params(callable_):
    return set(inspect.signature(callable_).parameters)


def has(obj, *names):
    return any(hasattr(obj, name) for name in names)


STREAMER = source(StreamerOrderer.order_spaces)
REVALIDATE = source(StreamerOrderer._revalidate_links)
CHAMPION = source(StreamerOrderer._update_champion)

#: Does the row's mechanism exist in the tree?
PRESENT = {
    # -- Streamer ------------------------------------------------------------
    "the version bump after `_evaluate`":
        lambda: "node.version += 1" in STREAMER,
    "the version bump in `_invalidate_intervals`":
        lambda: "version" in source(StreamerOrderer._invalidate_intervals),
    "E grows by every removed plan (`e_set.append`)":
        lambda: "e_set.append(removed)" in REVALIDATE,
    "`_revalidate_links`' fast path (`all_members_independent`)":
        lambda: "all_members_independent" in REVALIDATE,
    "the link witness check (`has_independent_witness`)":
        lambda: "has_independent_witness" in REVALIDATE,
    "the champion's tie-break (`>` on `(lo, key)`)":
        lambda: ") > (" in CHAMPION,
    "the `nil_nondominated` rescan and `if pending: continue`":
        lambda: "nil_nondominated" in STREAMER or "if pending:" in STREAMER,
    "step 2.a's dominated-node skip":
        lambda: "graph.is_dominated(node):\n                    continue" in STREAMER,
    "step 2.a's unknown-interval check":
        lambda: "if node.interval is None:\n                    self._evaluate" in STREAMER,
    "the champion's validity check":
        lambda: "alive is not champion" in CHAMPION,
    "step 2.b's mutual-tie skip": lambda: "mutual" in STREAMER,
    "step 2.b's dominated-target skip":
        lambda: "node is champion or graph.is_dominated(node)" in STREAMER,
    "champion links (step 2.b)":
        lambda: "graph.add_link(champion, node)" in STREAMER,
    "fresh nodes can take the champion's place":
        lambda: "for node in fresh" in CHAMPION,
    "step 2.c's dominated-top skip":
        lambda: "not graph.is_dominated(node)" in STREAMER,
    "interval invalidation after an execution":
        lambda: "self._invalidate_intervals(" in STREAMER,
    "re-pushing the nodes link invalidation freed":
        lambda: "on_freed(freed)" in STREAMER,
    # -- the dominance graph --------------------------------------------------
    "`add_link`'s duplicate-link early return":
        lambda: "in targets" in source(DominanceGraph.add_link),
    "`remove_node` frees the targets it dominated alone":
        lambda: "freed.append" in source(DominanceGraph.remove_node),
    "the duplicate-node refusal":
        lambda: "duplicate node" in source(DominanceGraph.add_plan),
    "the self-link refusal":
        lambda: "self-domination" in source(DominanceGraph.add_link),
    "the dominated-node removal refusal":
        lambda: "cannot remove dominated" in source(DominanceGraph.remove_node),
    "`head_certainly_best` (non-strict dominance)":
        lambda: "dominates" in source(dominance.head_certainly_best),
    "`DominanceGraph.has_link` / `link_count` / `__contains__`":
        lambda: has(DominanceGraph, "has_link", "link_count", "__contains__"),
    # -- the frontier and the orderer base -------------------------------------
    "the frontier tie-break (concrete before region)":
        lambda: "not candidate.is_concrete" in source(frontier.Frontier.push),
    "the frontier's NaN refusal":
        lambda: "bound != bound" in source(frontier.Frontier.push),
    "re-score after a recorded execution (`Frontier.rescore`)":
        lambda: "frontier.rescore()" in source(base.PlanOrderer._emit_best_first),
    "the first-plan evaluation snapshot":
        lambda: "== 0" in source(base.OrderingStats.snapshot_first_plan),
    "a discarded plan is not recorded (`on_emit`)":
        lambda: "if on_emit is None or on_emit(plan):"
        in source(base.PlanOrderer._emit_best_first),
    "the `k <= 0` refusal": lambda: "k <= 0" in source(base.PlanOrderer._check_k),
    "`PlanOrderer.order_spaces_list`, `timed_ordering`":
        lambda: has(base.PlanOrderer, "order_spaces_list")
        or has(base, "timed_ordering"),
    # -- PI and Exhaustive --------------------------------------------------------
    "PI / Exhaustive tie-break (smallest key)":
        lambda: "key < best_key" in source(bruteforce.ExhaustiveOrderer.order_spaces),
    "PI invalidates only non-independent plans":
        lambda: "self.utility.independent("
        in source(bruteforce.ExhaustiveOrderer.order_spaces),
    "PI invalidates after an execution":
        lambda: "elif executed and not self.utility.context_free"
        in source(bruteforce.ExhaustiveOrderer.order_spaces),
    "Exhaustive recomputes every utility":
        lambda: "cached.clear()" in source(bruteforce.ExhaustiveOrderer.order_spaces),
    # -- abstraction, Drips, iDrips, Greedy, AnyK, regimes ---------------------------
    "refinement keeps every child":
        lambda: "for child in chosen.children\n"
        in source(abstraction.AbstractPlan.refine),
    "the merge-tree children check":
        lambda: "child_members != self.members"
        in source(abstraction.AbstractSource.__post_init__),
    "output-count grouping":
        lambda: "s.stats.n_tuples"
        in source(abstraction.OutputCountHeuristic.order_bucket),
    "extension-similarity grouping":
        lambda: "lowest" in source(abstraction.ExtensionSimilarityHeuristic),
    "random grouping (the shuffle)":
        lambda: "shuffle" in source(abstraction.RandomHeuristic.order_bucket),
    "refine the widest slot":
        lambda: "widths.index(best)"
        in source(abstraction.AbstractPlan.refinement_slot),
    "the `eliminations` count":
        lambda: "eliminations" in source(drips.drips_search),
    "iDrips keeps every subspace of a split":
        lambda: "owner_space.split_off(plan):"
        in source(idrips.IDripsOrderer.order_spaces),
    "iDrips records executions":
        lambda: "context.record(plan)" in source(idrips.IDripsOrderer.order_spaces),
    "Greedy picks each bucket's best source":
        lambda: "max(" in source(greedy.best_plan_of),
    "AnyK's seen-vector dedup":
        lambda: "in seen" in source(anyk.AnyKOrderer.order_spaces),
    "AnyK's descending bucket sort":
        lambda: "reverse=True" in source(anyk._SpaceLattice),
    "the `auto` rule": lambda: '"streamer"' in source(regimes.resolve_orderer_name),
    # -- the adaptive wrapper --------------------------------------------------
    "suppressed re-sorts (`head_certainly_best`)":
        lambda: "head_certainly_best"
        in source(adaptive.AdaptiveOrderer._ranking_shifted),
    "replaying executed plans into a restarted orderer":
        lambda: "context.record(plan)" in source(adaptive._ReplayMeasure.new_context),
    "the residual split (`_split_out`)":
        lambda: "split_off" in source(adaptive._split_out),
    "the `head_churn` count":
        lambda: "_head_churn.inc()" in source(adaptive.AdaptiveOrderer.order_spaces),
    "`AdaptiveOrderer(epoch=None)` pass-through and `cache=`":
        lambda: "cache" in params(adaptive.AdaptiveOrderer)
        or inspect.signature(adaptive.AdaptiveOrderer).parameters["epoch"].default
        is not inspect.Parameter.empty,
    # -- intervals ------------------------------------------------------------------
    "non-strict interval dominance":
        lambda: "self.lo >= other.hi" in source(Interval.dominates),
    "interval `*` cross products":
        lambda: "self.lo * other.hi" in source(Interval.__mul__),
    "the division-by-zero-interval refusal":
        lambda: "other.lo <= 0.0 <= other.hi" in source(Interval.__truediv__),
    "the empty / NaN interval refusal":
        lambda: "not self.lo <= self.hi" in source(Interval.__post_init__),
    "`Interval.contains_interval` / `intersect` / `strictly_dominates` / "
    "`overlaps` / `hull` / `widen`":
        lambda: has(
            Interval, "contains_interval", "intersect", "strictly_dominates",
            "overlaps", "hull", "widen",
        ),
    "`UtilityMeasure.slots_of`": lambda: has(UtilityMeasure, "slots_of"),
    # -- boxes ---------------------------------------------------------------------------
    "`box_subtract` keeps every fragment":
        lambda: "for dim in range(len(box))" in source(boxes.box_subtract),
    "`box_subtract`'s disjoint shortcut":
        lambda: "return [box]" in source(boxes.box_subtract),
    "`covered_within_pair`'s inner size":
        lambda: "if meet_inner else 0" in source(DisjointBoxUnion.covered_within_pair),
    "`add`'s empty-box shortcut":
        lambda: "box_is_empty(box)" in source(DisjointBoxUnion.add),
    "`add`'s early stop when nothing is fresh":
        lambda: "if not fresh" in source(DisjointBoxUnion.add),
    "the union's dimension check":
        lambda: "dimensions, union has" in source(DisjointBoxUnion._check),
    "`box_union_sides` / `box_contains` / `box_intersect`, "
    "`DisjointBoxUnion.intersects` / `pieces` / `dimensions` / `copy`":
        lambda: has(boxes, "box_union_sides", "box_contains", "box_intersect")
        or has(DisjointBoxUnion, "intersects", "pieces", "dimensions", "copy"),
    # -- coverage ------------------------------------------------------------------------
    "the slot-mask cache":
        lambda: "_slot_cache.get" in source(CoverageUtility._slot_masks),
    "the interval's tight lower bound":
        lambda: "size_min - covered_union" in source(CoverageUtility.evaluate_slots),
    "the interval's upper bound (`size_max`)":
        lambda: "size_max - covered_inter" in source(CoverageUtility.evaluate_slots),
    "the witness check reads every executed plan":
        lambda: "for plan in executed:"
        in source(CoverageUtility.has_independent_witness),
    "`all_members_independent` reads the member union":
        lambda: "[1]" in source(CoverageUtility.all_members_independent),
    "pair independence (disjoint boxes)":
        lambda: "boxes_disjoint" in source(CoverageUtility.independent),
    "`_covered`'s bare-context fallback": lambda: has(CoverageUtility, "_covered"),
    # -- cost and monetary ------------------------------------------------------------
    "the linear-cost interval":
        lambda: "lo += min(terms)" in source(cost.LinearCost.evaluate_slots),
    "bind-join caching: a partly cached slot widens to 0":
        lambda: "any(cached)" in source(cost.BindJoinCost.evaluate_slots),
    "the failure-aware bind-join interval":
        lambda: "cost / success" in source(cost.BindJoinCost.evaluate_slots),
    "bind-join caching independence (for PI)":
        lambda: "a.name != b.name" in source(cost.BindJoinCost.independent),
    "the caching measures' link witnesses":
        lambda: "has_independent_witness" in vars(cost.BindJoinCost)
        or "has_independent_witness" in vars(monetary.MonetaryCostPerTuple)
        or "all_members_independent" in vars(cost.BindJoinCost)
        or "all_members_independent" in vars(monetary.MonetaryCostPerTuple),
    "the uniform-transfer preference key":
        lambda: "-float(source.stats.n_tuples)"
        in source(cost.BindJoinCost.source_preference_key),
    "monetary caching: a partly cached slot widens to 0":
        lambda: "any(cached)" in source(monetary.MonetaryCostPerTuple.evaluate_slots),
    "monetary caching independence (for PI)":
        lambda: "a.name != b.name" in source(monetary.MonetaryCostPerTuple.independent),
    "monetary caching: cached fees are not paid twice":
        lambda: "_is_cached" in source(monetary.MonetaryCostPerTuple.evaluate),
    # -- buckets, plan spaces, soundness --------------------------------------------
    "buckets: a head variable needs an exported column":
        lambda: "query_head_vars" in source(buckets._unification_admissible),
    "buckets: a constant selection needs an exported column":
        lambda: "isinstance(q_arg, Constant)" in source(buckets._unification_admissible),
    "`split_off` keeps every subspace":
        lambda: "zip(self.buckets, plan.sources)" in source(plans.PlanSpace.split_off),
    "`split_off` pins the earlier buckets":
        lambda: ".only(plan.sources[j])" in source(plans.PlanSpace.split_off),
    "`PlanSpace.contains`": lambda: "any(s.name == chosen.name"
        in source(plans.PlanSpace.contains),
    "the duplicate-source bucket refusal":
        lambda: "duplicate sources" in source(plans.Bucket.__post_init__),
    "`_search`'s empty-slot shortcut":
        lambda: "not options" in source(soundness._search),
    "the soundness verdict (`is_contained`)":
        lambda: "is_contained(expansion, query)" in source(soundness.is_sound),
    "existential view variables stay fresh":
        lambda: "s_arg in distinguished" in source(soundness._assemble),
    "a repeated exported column joins its query terms":
        lambda: "unify_terms(existing, q_arg, rho)" in source(soundness._assemble),
    "a source constant selects":
        lambda: "unify_terms(q_arg, s_arg, rho)" in source(soundness._assemble),
    "`plan_query` returns only a contained rewriting":
        lambda: "if is_contained(expansion, query)" in source(soundness.plan_query),
    "the slot certificate (`_certify`)":
        lambda: "_certify(query, slot, source)" in source(soundness.plan_query),
    # -- inverse rules and MiniCon -----------------------------------------------------------
    "inverse rules Skolemize existential variables":
        lambda: "var not in head_vars" in source(inverse_rules.inverse_rules),
    "inverse-rule buckets: a Skolem column is not exported":
        lambda: "needs_export and not exported"
        in source(inverse_rules.inverse_rule_plan_space),
    "Skolem answers are dropped (`answer_query`)":
        lambda: "FunctionTerm" in source(engine.answer_query),
    "`exported_position_map`": lambda: has(inverse_rules, "exported_position_map"),
    "MiniCon C1: head variables map to distinguished terms":
        lambda: "resolved not in distinguished" in source(minicon._close_mcd),
    "MiniCon C2: existential closure":
        lambda: "if not is_existential" in source(minicon._close_mcd),
    "a head homomorphism never binds an existential":
        lambda: "a in self.distinguished"
        in source(minicon._HeadHomomorphism.union),
    "MCD equalities (`_mcd_contribution`)":
        lambda: "equalities.append((var, representative))"
        in source(minicon._mcd_contribution),
    "unsafe rewritings are discarded":
        lambda: "is_safe()" in source(minicon.minicon_plan_queries),
    "duplicate rewritings are dropped":
        lambda: "not in seen" in source(minicon.minicon_plan_queries),
    "`combine_mcds`' unused `by_min` index":
        lambda: "by_min" in source(minicon.combine_mcds),
    "`MCD.phi_dict`": lambda: has(minicon.MCD, "phi_dict"),
    # -- datalog -------------------------------------------------------------------
    "containment: a variable maps to one term":
        lambda: "bound != t_arg" in source(containment._extend),
    "containment: constants must match by value":
        lambda: "s_arg.value != t_arg.value" in source(containment._extend),
    "containment: the head maps onto the head":
        lambda: "_extend(outer.head, inner.head"
        in source(containment.find_containment_mapping),
    "containment: most-constrained subgoal first":
        lambda: "sorted(" in source(containment.find_containment_mapping),
    "the engine's join tests":
        lambda: "if slots[slot] != values[pos]:" in source(engine._run_steps),
    "the engine's late tests (`p(X, X)`)":
        lambda: "else late" in source(engine._compile_args),
    "the engine's functor check":
        lambda: "functor != term.functor" in source(engine._match),
    "semi-naive: earlier atoms read old facts":
        lambda: "whole[before] - gone" in source(engine._fact_lists),
    "semi-naive: skip a rule with no delta predicate":
        lambda: "atom.predicate in delta" in source(engine.evaluate_program),
    "the unbound-head-variable refusal":
        lambda: "unbound head variable" in source(engine._head_projection),
    "the fixpoint loop":
        lambda: "delta = next_delta" in source(engine.evaluate_program),
    "the occurs check": lambda: "_occurs(left, right" in source(unification.unify_terms),
    "unifying constants compares values":
        lambda: "left.value == right.value" in source(unification.unify_terms),
    "the unsafe-rule refusal":
        lambda: "unsafe rule" in source(program.Program.__post_init__),
    "the empty-body refusal":
        lambda: "empty body" in source(query.ConjunctiveQuery.__post_init__),
    "the parser: `_X` is a variable":
        lambda: 'value[0] == "_"' in source(parser._Parser.term),
    "the parser: function terms":
        lambda: "FunctionTerm(" in source(parser._Parser.term),
    "`evaluate_program(max_rounds=)`, `answer_query(drop_skolems=)`":
        lambda: "max_rounds" in params(engine.evaluate_program)
        or "drop_skolems" in params(engine.answer_query),
    "`Program.idb_predicates` / `edb_predicates` / `rules_for` / "
    "`is_recursive` / `extended`, `Rule.head_has_function_terms`":
        lambda: has(
            program.Program, "idb_predicates", "edb_predicates", "rules_for",
            "is_recursive", "extended",
        )
        or has(program.Rule, "head_has_function_terms"),
    "`ConjunctiveQuery.distinguished_variables` / `existential_variables` / "
    "`freeze`, `make_query`":
        lambda: has(
            query.ConjunctiveQuery, "distinguished_variables",
            "existential_variables", "freeze",
        )
        or has(query, "make_query"),
    "`Atom.rename` / `constants` / `is_ground`, `is_ground`, `fresh_variables`":
        lambda: has(terms.Atom, "rename", "constants", "is_ground")
        or has(terms, "is_ground", "fresh_variables"),
    "`are_equivalent`": lambda: has(containment, "are_equivalent"),
    "`match_atom`": lambda: has(unification, "match_atom"),
    "the sub-package re-exports beyond what `repro`, `src/` and `examples/` import":
        lambda: any(
            name in package.__all__
            for package, name in (
                (repro.ordering, "AnyKOrderer"),
                (repro.ordering, "drips_search"),
                (repro.utility, "DisjointBoxUnion"),
                (repro.reformulation, "generate_mcds"),
                (repro.datalog, "evaluate_program"),
            )
        ),
}


def test_every_row_has_a_probe():
    assert sorted(mechanism for mechanism, _ in audit_rows()) == sorted(PRESENT)


@pytest.mark.parametrize(
    "mechanism, verdict", audit_rows(), ids=[row[0] for row in audit_rows()]
)
def test_the_verdict_matches_the_tree(mechanism, verdict):
    assert PRESENT[mechanism]() == verdict.startswith("kept")
