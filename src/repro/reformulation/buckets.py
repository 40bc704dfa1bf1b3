"""The bucket algorithm (Levy, Rajaraman & Ordille; paper Section 2).

For each subgoal of the user query, collect the sources that can
return tuples satisfying it.  A source ``S`` enters the bucket of
subgoal ``g`` when some atom of ``S``'s view body unifies with ``g``
and the unification does not require an unavailable selection:

* every query *head* variable in ``g`` must map to a distinguished
  variable of ``S`` (otherwise the source cannot return that output
  column);
* a constant in ``g`` must unify with a constant or with a variable of
  ``S``; when that variable is existential in ``S`` the source cannot
  apply the selection, so it is excluded.

As in the paper, the bucket test is deliberately permissive: plans
formed from the Cartesian product of the buckets are *candidates* and
are individually checked for soundness afterwards
(:mod:`repro.reformulation.soundness`).
"""

from __future__ import annotations

from repro.errors import ReformulationError
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Constant, Variable
from repro.datalog.unification import unify_atoms
from repro.sources.catalog import Catalog, SourceDescription
from repro.reformulation.plans import Bucket, PlanSpace


def source_covers_subgoal(
    source: SourceDescription,
    subgoal: Atom,
    query_head_vars: frozenset[Variable],
) -> bool:
    """Can *source* enter the bucket of *subgoal*?"""
    view = source.renamed_view("_src")
    distinguished = set(view.head.variables())
    for atom in view.body:
        if atom.predicate != subgoal.predicate or atom.arity != subgoal.arity:
            continue
        subst = unify_atoms(atom, subgoal)
        if subst is None:
            continue
        if _unification_admissible(
            atom, subgoal, distinguished, query_head_vars
        ):
            return True
    return False


def _unification_admissible(
    source_atom: Atom,
    subgoal: Atom,
    source_distinguished: set[Variable],
    query_head_vars: frozenset[Variable],
) -> bool:
    """Positional admissibility checks for a successful unification."""
    for s_arg, q_arg in zip(source_atom.args, subgoal.args):
        if isinstance(q_arg, Variable) and q_arg in query_head_vars:
            # Output column: the source must expose it.
            if not (isinstance(s_arg, Variable) and s_arg in source_distinguished):
                return False
        if isinstance(q_arg, Constant) and isinstance(s_arg, Variable):
            # Selection on a constant: the source must expose the column
            # so the mediator can filter (or the source can be probed).
            if s_arg not in source_distinguished:
                return False
    return True


def bucket_candidates(
    query: ConjunctiveQuery, catalog: Catalog
) -> tuple[tuple[SourceDescription, ...], ...]:
    """Per-subgoal bucket members, without raising on empty buckets.

    The non-raising companion of :func:`build_buckets`: the scenario
    linter uses it to report *which* subgoals are uncoverable and which
    sources never enter any bucket, instead of aborting at the first
    empty bucket.
    """
    catalog.validate_query(query)
    head_vars = frozenset(query.head.variables())
    return tuple(
        tuple(
            source
            for source in catalog.sources_for(subgoal.predicate)
            if source_covers_subgoal(source, subgoal, head_vars)
        )
        for subgoal in query.subgoals
    )


def build_buckets(query: ConjunctiveQuery, catalog: Catalog) -> PlanSpace:
    """Create one bucket per query subgoal and return the plan space.

    Raises :class:`~repro.errors.ReformulationError` when some subgoal
    has no covering source: the query is then unanswerable from the
    available sources.
    """
    buckets: list[Bucket] = []
    for index, members in enumerate(bucket_candidates(query, catalog)):
        subgoal = query.subgoal(index)
        if not members:
            raise ReformulationError(
                f"no source covers subgoal {subgoal} of query {query.name!r}"
            )
        buckets.append(Bucket(index, members, subgoal))
    return PlanSpace(tuple(buckets), query)
