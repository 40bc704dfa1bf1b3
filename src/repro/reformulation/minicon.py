"""The MiniCon reformulation algorithm (Pottinger & Levy; paper Section 7).

MiniCon forms *MiniCon descriptions* (MCDs): a source together with a
minimal set of query subgoals it can cover jointly, plus the variable
mapping that witnesses the coverage.  Combining MCDs whose covered
sets partition the query's subgoals yields sound rewritings directly —
no post-hoc soundness test is needed.

The paper (Section 7) adapts its plan-ordering algorithms to MiniCon
by viewing MCDs with the same covered set as a *generalized bucket*:
a plan space is then a choice of covered sets partitioning the
subgoals, with one generalized bucket each.
:func:`minicon_plan_spaces` builds exactly that.

Implementation notes
--------------------
We follow Property 1 of the MiniCon paper.  For an MCD mapping a set
``G`` of subgoals into the (head-homomorphism-specialized) view:

C1. every distinguished variable of the query occurring in ``G`` maps
    to a distinguished variable of the view;
C2. every existential query variable that maps to an existential view
    variable must have *all* subgoals mentioning it inside ``G``,
    mapped consistently.

Head homomorphisms may equate distinguished view variables or bind
them to constants; existential view variables may not be specialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Constant, Term, Variable
from repro.sources.catalog import Catalog, SourceDescription
from repro.reformulation.plans import Bucket, PlanSpace


class _HeadHomomorphism:
    """Union-find over a view's distinguished variables and constants.

    Tracks the equalities a head homomorphism must impose: merging two
    distinguished variables, or binding one to a constant.  Merging
    with an existential variable, or two different constants, fails.
    """

    def __init__(self, distinguished: frozenset[Variable]) -> None:
        self.distinguished = distinguished
        self.parent: dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        while term in self.parent:
            term = self.parent[term]
        return term

    def union(self, first: Term, second: Term) -> bool:
        a = self.find(first)
        b = self.find(second)
        if a == b:
            return True
        if isinstance(a, Constant) and isinstance(b, Constant):
            return False
        # Point variables at constants so constants are representatives.
        if isinstance(a, Constant):
            a, b = b, a
        if not (isinstance(a, Variable) and a in self.distinguished):
            return False
        if isinstance(b, Variable) and b not in self.distinguished:
            return False
        self.parent[a] = b
        return True

    def copy(self) -> "_HeadHomomorphism":
        clone = _HeadHomomorphism(self.distinguished)
        clone.parent = dict(self.parent)
        return clone


@dataclass(frozen=True)
class MCD:
    """A MiniCon description.

    ``covered`` is the set of query subgoal indices this MCD answers;
    ``phi`` maps query variables (of the covered subgoals) to view
    terms; ``head_map`` is the head homomorphism as a resolved mapping
    of distinguished view variables.
    """

    source: SourceDescription
    covered: frozenset[int]
    phi: tuple[tuple[Variable, Term], ...]
    head_map: tuple[tuple[Variable, Term], ...]

    def head_dict(self) -> dict[Variable, Term]:
        return dict(self.head_map)

    def __str__(self) -> str:
        cov = ",".join(str(i) for i in sorted(self.covered))
        return f"MCD({self.source.name}; G={{{cov}}})"


def _try_map_subgoal(
    subgoal: Atom,
    atom: Atom,
    phi: dict[Variable, Term],
    hom: _HeadHomomorphism,
    distinguished: frozenset[Variable],
) -> Optional[tuple[dict[Variable, Term], _HeadHomomorphism]]:
    """Extend (phi, hom) so that *subgoal* maps onto view atom *atom*."""
    if subgoal.predicate != atom.predicate or subgoal.arity != atom.arity:
        return None
    phi = dict(phi)
    hom = hom.copy()
    for q_arg, v_arg in zip(subgoal.args, atom.args):
        if isinstance(q_arg, Constant):
            # The view must guarantee this constant: either it is
            # already there, or a distinguished variable can be bound
            # to it by the head homomorphism.
            if isinstance(v_arg, Constant):
                if v_arg.value != q_arg.value:
                    return None
            elif not hom.union(v_arg, q_arg):
                return None
        else:  # query variable
            target: Term = v_arg
            existing = phi.get(q_arg)
            if existing is None:
                phi[q_arg] = target
            else:
                # phi must stay a function: reconcile via the head
                # homomorphism (only distinguished vars may be merged).
                if not hom.union(existing, target):
                    return None
    return phi, hom


def _close_mcd(
    query: ConjunctiveQuery,
    view: ConjunctiveQuery,
    seed_index: int,
    seed_atom: int,
    query_head_vars: frozenset[Variable],
) -> Iterator[tuple[frozenset[int], dict[Variable, Term], _HeadHomomorphism]]:
    """Grow the seed mapping until Property 1 holds (C2 closure).

    Yields every minimal closure obtainable by different choices of
    view atoms for forced subgoals.
    """
    distinguished = frozenset(view.head.variables())
    subgoals_with: dict[Variable, list[int]] = {}
    for index, subgoal in enumerate(query.subgoals):
        for var in subgoal.variables():
            subgoals_with.setdefault(var, []).append(index)

    initial = _try_map_subgoal(
        query.subgoal(seed_index),
        view.body[seed_atom],
        {},
        _HeadHomomorphism(distinguished),
        distinguished,
    )
    if initial is None:
        return

    def violations(
        covered: frozenset[int], phi: dict[Variable, Term], hom: _HeadHomomorphism
    ) -> Optional[int]:
        """First subgoal index that C2 forces into the MCD, or None."""
        for var, target in phi.items():
            resolved = hom.find(target)
            is_existential = (
                isinstance(resolved, Variable) and resolved not in distinguished
            )
            if not is_existential:
                continue
            for index in subgoals_with.get(var, ()):
                if index not in covered:
                    return index
        return None

    def search(
        covered: frozenset[int], phi: dict[Variable, Term], hom: _HeadHomomorphism
    ) -> Iterator[tuple[frozenset[int], dict[Variable, Term], _HeadHomomorphism]]:
        forced = violations(covered, phi, hom)
        if forced is None:
            yield covered, phi, hom
            return
        subgoal = query.subgoal(forced)
        for atom in view.body:
            extended = _try_map_subgoal(subgoal, atom, phi, hom, distinguished)
            if extended is None:
                continue
            new_phi, new_hom = extended
            yield from search(covered | {forced}, new_phi, new_hom)

    phi0, hom0 = initial
    for covered, phi, hom in search(frozenset({seed_index}), phi0, hom0):
        # C1: distinguished query variables must map to distinguished
        # view terms (a variable in the view head, or a constant).
        ok = True
        for var, target in phi.items():
            if var not in query_head_vars:
                continue
            resolved = hom.find(target)
            if isinstance(resolved, Variable) and resolved not in distinguished:
                ok = False
                break
        if ok:
            yield covered, phi, hom


def generate_mcds(query: ConjunctiveQuery, catalog: Catalog) -> list[MCD]:
    """All MCDs of *query* over the catalog's sources (deduplicated)."""
    catalog.validate_query(query)
    head_vars = frozenset(query.head.variables())
    mcds: dict[tuple, MCD] = {}
    for source in catalog.sources:
        view = source.view.rename_apart(f"_{source.name}")
        for seed_index in range(len(query.subgoals)):
            for seed_atom in range(len(view.body)):
                for covered, phi, hom in _close_mcd(
                    query, view, seed_index, seed_atom, head_vars
                ):
                    resolved_phi = tuple(
                        sorted(
                            ((var, hom.find(term)) for var, term in phi.items()),
                            key=lambda item: item[0].name,
                        )
                    )
                    head_map = tuple(
                        sorted(
                            (
                                (var, hom.find(var))
                                for var in view.head.variables()
                                if hom.find(var) != var
                            ),
                            key=lambda item: item[0].name,
                        )
                    )
                    key = (source.name, covered, resolved_phi, head_map)
                    if key not in mcds:
                        mcds[key] = MCD(source, covered, resolved_phi, head_map)
    return list(mcds.values())


def _mcd_contribution(
    mcd: MCD, fresh_counter: itertools.count
) -> tuple[Atom, list[tuple[Variable, Term]]]:
    """The conjunct contributed by *mcd* plus induced equalities.

    Each distinguished view variable becomes: the query variable(s)
    mapped onto it, a constant imposed by the head homomorphism, or a
    fresh variable when nothing constrains it.  When several query
    variables map to the same view term (the view equates them) or a
    query variable maps to a constant, the rewriting must substitute
    accordingly everywhere — those pairs are returned as equalities to
    be folded into the combination-wide substitution.
    """
    view = mcd.source.view.rename_apart(f"_{mcd.source.name}")
    head_map = mcd.head_dict()
    reverse: dict[Term, Variable] = {}
    equalities: list[tuple[Variable, Term]] = []
    for var, target in mcd.phi:
        if isinstance(target, Constant):
            equalities.append((var, target))
            continue
        representative = reverse.setdefault(target, var)
        if representative != var:
            equalities.append((var, representative))

    args: list[Term] = []
    for head_arg in view.head.args:
        resolved = (
            head_map.get(head_arg, head_arg)
            if isinstance(head_arg, Variable)
            else head_arg
        )
        if isinstance(resolved, Constant):
            args.append(resolved)
        elif resolved in reverse:
            args.append(reverse[resolved])
        else:
            args.append(Variable(f"_F{next(fresh_counter)}"))
    return Atom(mcd.source.name, tuple(args)), equalities


def combine_mcds(
    query: ConjunctiveQuery, mcds: list[MCD]
) -> Iterator[tuple[MCD, ...]]:
    """All MCD sets whose covered sets partition the query subgoals."""
    all_goals = frozenset(range(len(query.subgoals)))

    def recurse(
        remaining: frozenset[int], chosen: tuple[MCD, ...]
    ) -> Iterator[tuple[MCD, ...]]:
        if not remaining:
            yield chosen
            return
        anchor = min(remaining)
        for mcd in mcds:
            if anchor in mcd.covered and mcd.covered <= remaining:
                yield from recurse(remaining - mcd.covered, chosen + (mcd,))

    yield from recurse(all_goals, ())


def minicon_plan_queries(
    query: ConjunctiveQuery, catalog: Catalog
) -> list[ConjunctiveQuery]:
    """Every MiniCon rewriting as an executable source-level query."""
    from repro.datalog.unification import resolve_atom, unify_terms

    mcds = generate_mcds(query, catalog)
    rewritings = []
    seen: set[tuple] = set()
    for combination in combine_mcds(query, mcds):
        fresh = itertools.count()
        atoms = []
        subst: dict[Variable, Term] = {}
        consistent = True
        for mcd in combination:
            atom, equalities = _mcd_contribution(mcd, fresh)
            atoms.append(atom)
            for var, target in equalities:
                result = unify_terms(var, target, subst)
                if result is None:
                    consistent = False
                    break
                subst = result
            if not consistent:
                break
        if not consistent:
            continue
        body = tuple(resolve_atom(atom, subst) for atom in atoms)
        head = resolve_atom(query.head, subst)
        # Condition C1 maps every head variable to an exported column,
        # so the rewriting is safe.
        rewriting = ConjunctiveQuery(head, body)
        key = (str(head),) + tuple(str(atom) for atom in body)
        if key not in seen:
            seen.add(key)
            rewritings.append(rewriting)
    return rewritings


@dataclass(frozen=True)
class GeneralizedSpace:
    """A MiniCon plan space: buckets keyed by covered subgoal sets."""

    space: PlanSpace
    groups: tuple[frozenset[int], ...]


def minicon_plan_spaces(
    query: ConjunctiveQuery, catalog: Catalog
) -> list[GeneralizedSpace]:
    """Plan spaces of generalized buckets (paper, Section 7).

    Each space corresponds to one partition of the query's subgoals
    into MCD covered-sets; its bucket ``i`` holds the sources of the
    MCDs covering group ``i``.  Every plan in such a space is sound by
    MiniCon's construction, so no post-hoc soundness testing is
    needed.
    """
    mcds = generate_mcds(query, catalog)
    by_cover: dict[frozenset[int], dict[str, SourceDescription]] = {}
    for mcd in mcds:
        by_cover.setdefault(mcd.covered, {})[mcd.source.name] = mcd.source

    all_goals = frozenset(range(len(query.subgoals)))
    partitions: list[tuple[frozenset[int], ...]] = []

    def recurse(remaining: frozenset[int], chosen: tuple[frozenset[int], ...]) -> None:
        if not remaining:
            partitions.append(chosen)
            return
        anchor = min(remaining)
        for cover in by_cover:
            if anchor in cover and cover <= remaining:
                recurse(remaining - cover, chosen + (cover,))

    recurse(all_goals, ())

    spaces = []
    for partition in partitions:
        buckets = tuple(
            Bucket(i, tuple(by_cover[group].values()))
            for i, group in enumerate(partition)
        )
        spaces.append(GeneralizedSpace(PlanSpace(buckets, query), partition))
    return spaces
