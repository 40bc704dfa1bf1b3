"""Inverse-rule reformulation (Duschka & Genesereth; paper Section 7).

For every source description ``V(X) :- p1(Y1), ..., pn(Yn)`` the
algorithm emits one *inverse rule* per body atom::

    pi(Yi') :- V(X)

where each existential variable of the view (a variable of ``Yi`` not
in ``X``) is replaced by a Skolem term ``f_V_y(X)``.  Adding the user
query as a rule on top yields a datalog program whose evaluation over
the source facts produces exactly the certain answers.

The paper notes (Section 7) that for conjunctive queries the inverse
rules covering the same schema relation form a bucket; this module is
both a correctness oracle for the plan-based pipeline (the union of
all sound plans' answers must equal the inverse-rule answers) and a
usable reformulation backend in its own right.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ReformulationError
from repro.datalog.engine import answer_query
from repro.datalog.program import Program, Rule
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import FunctionTerm, Term, Variable
from repro.sources.catalog import Catalog, SourceDescription

if TYPE_CHECKING:
    from repro.reformulation.plans import PlanSpace


def inverse_rules(source: SourceDescription) -> tuple[Rule, ...]:
    """The inverse rules of one source description."""
    view = source.view
    head_vars = set(view.head.variables())
    skolem_args: tuple[Term, ...] = view.head.args
    replacements: dict[Variable, Term] = {}
    for var in view.variables():
        if var not in head_vars:
            replacements[var] = FunctionTerm(
                f"f_{source.name}_{var.name}", skolem_args
            )
    rules = []
    for atom in view.body:
        rules.append(Rule(atom.substitute(replacements), (view.head,)))
    return tuple(rules)


def inverse_rules_program(
    catalog: Catalog, query: ConjunctiveQuery
) -> Program:
    """Inverse rules for every source plus the query rule."""
    rules: list[Rule] = []
    for source in catalog.sources:
        rules.extend(inverse_rules(source))
    rules.append(Rule(query.head, query.body))
    return Program(tuple(rules))


def inverse_rule_plan_space(
    catalog: Catalog, query: ConjunctiveQuery
) -> "PlanSpace":
    """Buckets induced by the inverse rules (paper, Section 7).

    "The inverse rules that cover the same schema relation naturally
    form a bucket": subgoal ``i``'s bucket holds every source with an
    inverse rule for that relation whose exported columns satisfy the
    same admissibility conditions as the bucket algorithm's (a query
    head variable cannot be recovered from a Skolemized column).  The
    resulting plan space is ordered exactly like a bucket-algorithm
    space; plans still undergo the soundness test.
    """
    from repro.datalog.unification import unify_atoms
    from repro.reformulation.plans import Bucket, PlanSpace

    catalog.validate_query(query)
    head_vars = frozenset(query.head.variables())
    rules_by_relation: dict[str, list[tuple[SourceDescription, Rule]]] = {}
    for source in catalog.sources:
        for rule in inverse_rules(source):
            rules_by_relation.setdefault(rule.head.predicate, []).append(
                (source, rule)
            )

    buckets = []
    for index, subgoal in enumerate(query.subgoals):
        members: dict[str, SourceDescription] = {}
        for source, rule in rules_by_relation.get(subgoal.predicate, ()):
            if rule.head.arity != subgoal.arity:
                continue
            admissible = True
            for rule_arg, query_arg in zip(rule.head.args, subgoal.args):
                exported = isinstance(rule_arg, Variable)
                needs_export = (
                    isinstance(query_arg, Variable) and query_arg in head_vars
                ) or not isinstance(query_arg, Variable)
                if needs_export and not exported:
                    # Skolem term: the column was projected away.
                    admissible = False
                    break
            if admissible and unify_atoms(
                rule.head.substitute(
                    {v: Variable(v.name + "_ir") for v in rule.head.variables()}
                ),
                subgoal,
            ) is None:
                admissible = False
            if admissible:
                members.setdefault(source.name, source)
        if not members:
            raise ReformulationError(
                f"no inverse rule covers subgoal {subgoal} of {query.name!r}"
            )
        buckets.append(Bucket(index, tuple(members.values()), subgoal))
    return PlanSpace(tuple(buckets), query)


def answer_with_inverse_rules(
    catalog: Catalog,
    query: ConjunctiveQuery,
    source_facts: Mapping[str, Iterable[tuple[object, ...]]],
) -> set[tuple[object, ...]]:
    """Certain answers of *query* over the given source instances.

    Skolemized answers (tuples mentioning unknown values) are dropped;
    what remains is exactly the union of the answers of all sound
    plans.
    """
    program = inverse_rules_program(catalog, query)
    edb = {pred: set(map(tuple, facts)) for pred, facts in source_facts.items()}
    return answer_query(program, edb, query.name)
