"""Plan soundness: expansion and containment (paper, Section 2).

A plan is *sound* when every answer it produces is an answer of the
user query.  The classical test: replace each source atom of the plan
by the source's view body (its *expansion*) and check that the
expansion is contained in the user query.

Because a source's body may contain several atoms unifying with the
chosen subgoal, the functions below search over the possible
per-subgoal unifications; a plan is sound when *some* choice yields a
contained expansion, and :func:`plan_query` returns the corresponding
executable conjunctive query over the source relations.

Most plans skip that search: a plan whose every (slot, source) entry
is a one-subgoal MCD (:mod:`repro.reformulation.minicon`, Property 1)
is sound by construction (:func:`_certify`).
"""

from __future__ import annotations

from collections import Counter
from operator import is_
from typing import Iterator, Optional

from repro.errors import ReformulationError
from repro.datalog.containment import is_contained
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Constant, Term, Variable
from repro.datalog.unification import resolve, resolve_atom, unify_terms
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.sources.catalog import SourceDescription


def _candidate_unifications(
    view: ConjunctiveQuery, subgoal: Atom
) -> Iterator[int]:
    """Indices of view-body atoms that might unify with *subgoal*."""
    for index, atom in enumerate(view.body):
        if atom.predicate == subgoal.predicate and atom.arity == subgoal.arity:
            yield index


def _assemble(
    query: ConjunctiveQuery, plan: QueryPlan, choices: tuple[int, ...]
) -> Optional[tuple[ConjunctiveQuery, ConjunctiveQuery]]:
    """Build (plan query, expansion) for one choice of unified atoms.

    Only *distinguished* variables of a view can carry bindings out of
    the source: a view's existential variables are values the source
    projected away, so they must remain fresh in the expansion — a
    query join variable landing on one is simply left unconstrained,
    and the containment test then correctly rejects the broken join.

    Returns None when the per-slot mappings are jointly inconsistent
    (for example two sources forcing the same query variable to
    different constants).
    """
    # rho: substitution on *query* variables (selections pushed from
    # source constants, equalities induced by repeated head columns).
    rho: dict[Variable, Term] = {}
    renamed_views = [
        source.renamed_view(f"_s{slot}")
        for slot, source in enumerate(plan.sources)
    ]
    # Per slot: mapping of the view's distinguished variables to the
    # query-side terms they must equal.
    slot_maps: list[dict[Variable, Term]] = []

    for slot, (view, choice) in enumerate(zip(renamed_views, choices)):
        atom = view.body[choice]
        subgoal = query.subgoal(slot)
        distinguished = set(view.head.variables())
        mapping: dict[Variable, Term] = {}
        for s_arg, q_arg in zip(atom.args, subgoal.args):
            if isinstance(s_arg, Constant):
                # The source guarantees this constant; a query variable
                # here becomes a selection binding, a mismatching query
                # constant kills the combination.
                result = unify_terms(q_arg, s_arg, rho)
                if result is None:
                    return None
                rho = result
            elif isinstance(s_arg, Variable) and s_arg in distinguished:
                existing = mapping.get(s_arg)
                if existing is None:
                    mapping[s_arg] = q_arg
                else:
                    # The same exported column serves two positions:
                    # the query-side terms must be equal.
                    result = unify_terms(existing, q_arg, rho)
                    if result is None:
                        return None
                    rho = result
            # Existential view variable: the column was projected away;
            # it constrains nothing and must stay fresh.
        slot_maps.append(mapping)

    def map_term(term: Term, mapping: dict[Variable, Term]) -> Term:
        if isinstance(term, Variable) and term in mapping:
            return resolve(mapping[term], rho)
        # Unmapped view variables are already renamed apart per slot,
        # i.e. fresh existentials of the plan query / expansion.
        return term

    plan_body = []
    expansion_body = []
    for view, mapping in zip(renamed_views, slot_maps):
        plan_body.append(
            Atom(
                view.head.predicate,
                tuple(map_term(arg, mapping) for arg in view.head.args),
            )
        )
        for body_atom in view.body:
            expansion_body.append(
                Atom(
                    body_atom.predicate,
                    tuple(map_term(arg, mapping) for arg in body_atom.args),
                )
            )

    head = resolve_atom(query.head, rho)
    plan_query_ = ConjunctiveQuery(head, tuple(plan_body))
    expansion = ConjunctiveQuery(head, tuple(expansion_body))
    return plan_query_, expansion


def _search(
    query: ConjunctiveQuery, plan: QueryPlan
) -> Iterator[tuple[ConjunctiveQuery, ConjunctiveQuery]]:
    """Yield every consistently assembled (plan query, expansion)."""
    if len(plan) != len(query.subgoals):
        raise ReformulationError(
            f"plan has {len(plan)} sources but query has "
            f"{len(query.subgoals)} subgoals"
        )
    per_slot = [
        list(_candidate_unifications(source.view, query.subgoal(slot)))
        for slot, source in enumerate(plan.sources)
    ]

    def recurse(slot: int, prefix: tuple[int, ...]) -> Iterator[tuple[ConjunctiveQuery, ConjunctiveQuery]]:
        if slot == len(per_slot):
            assembled = _assemble(query, plan, prefix)
            if assembled is not None:
                yield assembled
            return
        for choice in per_slot[slot]:
            yield from recurse(slot + 1, prefix + (choice,))

    yield from recurse(0, ())


def expand_plan(
    query: ConjunctiveQuery, plan: QueryPlan
) -> Optional[ConjunctiveQuery]:
    """The first consistent expansion of *plan*, or None."""
    for _plan_query, expansion in _search(query, plan):
        return expansion
    return None


def is_sound(query: ConjunctiveQuery, plan: QueryPlan) -> bool:
    """Is *plan* guaranteed to produce only answers of *query*?

    True when some consistent choice of unifications yields an
    expansion contained in the query.
    """
    return any(
        is_contained(expansion, query) for _pq, expansion in _search(query, plan)
    )


#: Search verdicts kept per query: the first plans of its stream to
#: need the search.  A plan past them is searched on every request.
SEARCH_VERDICTS = 64

#: Where ``query._prepared`` keeps the query's free variables, and its
#: search verdicts per plan key (beside the views, compared by identity).
_FREE = "free"
_VERDICTS = "verdicts"


def plan_query(
    query: ConjunctiveQuery, plan: QueryPlan
) -> Optional[ConjunctiveQuery]:
    """The executable source-level query of a *sound* plan.

    Returns the conjunctive query over source relations whose
    expansion is contained in the user query, or None when the plan is
    unsound.  A plan whose every slot is certified skips the search;
    another plan's verdict is kept on the query (:data:`SEARCH_VERDICTS`).
    """
    prepared = query._prepared
    if len(plan) == len(query.body):
        atoms = []
        for slot, source in enumerate(plan.sources):
            # Kept beside its view: source names repeat across catalogs.
            key = (slot, source.name)
            entry = prepared.get(key)
            if entry is None or entry[0] is not source.view:
                entry = (source.view, _certify(query, slot, source))
                prepared[key] = entry
            if entry[1] is None:
                break
            atoms.append(entry[1])
        else:
            return ConjunctiveQuery(query.head, tuple(atoms))
    views = [source.view for source in plan.sources]
    verdicts = prepared.setdefault(_VERDICTS, {})
    kept = verdicts.get(plan.key)
    if kept is not None and all(map(is_, kept[0], views)):
        return kept[1]
    sound = (pq for pq, expansion in _search(query, plan) if is_contained(expansion, query))
    verdict = next(sound, None)
    if len(verdicts) < SEARCH_VERDICTS or plan.key in verdicts:
        verdicts[plan.key] = (views, verdict)
    return verdict


def _certify(
    query: ConjunctiveQuery, slot: int, source: SourceDescription
) -> Optional[Atom]:
    """The plan atom of *source* at *slot* if the entry is certified.

    Only the slot's first candidate unification counts, the one
    :func:`_search` tries first.  It is certified when it repeats no
    exported column, and every column it does not export (an existential
    variable or a constant of the view) holds a *free* query variable,
    one that the body uses once and the head never: each constant, head
    and join term of the query lands on an exported column.  Then
    ``_assemble`` builds these atoms (a constant selects only a free
    variable), and the identity, sending each free variable to the term
    under it, maps the query into the expansion: the first choice of
    the search is sound, and it is what :func:`plan_query` returns.
    """
    subgoal = query.subgoal(slot)
    choice = next(_candidate_unifications(source.view, subgoal), None)
    if choice is None:
        return None
    view = source.renamed_view(f"_s{slot}")
    exported = set(view.head.variables())
    free = query._prepared.get(_FREE)
    if free is None:
        # A property of the query alone: worked out on its first miss.
        occurrences = Counter(arg for atom in query.body for arg in atom.args)
        free = query._prepared[_FREE] = {
            arg
            for arg, n in occurrences.items()
            if n == 1 and isinstance(arg, Variable)
        } - set(query.head.args)
    mapping: dict[Variable, Term] = {}
    for s_arg, q_arg in zip(view.body[choice].args, subgoal.args):
        if s_arg in exported:
            if s_arg in mapping:
                return None
            mapping[s_arg] = q_arg
        elif q_arg not in free:
            return None
    return Atom(
        view.head.predicate, tuple(mapping.get(arg, arg) for arg in view.head.args)
    )


def sound_plans(query: ConjunctiveQuery, space: PlanSpace) -> Iterator[QueryPlan]:
    """Filter the space's Cartesian product down to the sound plans."""
    for plan in space.plans():
        if is_sound(query, plan):
            yield plan
