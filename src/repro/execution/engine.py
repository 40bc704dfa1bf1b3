"""Executing conjunctive queries and plans over in-memory relations.

A database is a mapping ``{relation name: set of value tuples}``.
Query evaluation is a left-to-right join with early pruning: the
datalog engine's compiled join, projecting head rows from its slots.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.datalog.engine import evaluate_rule
from repro.datalog.query import ConjunctiveQuery
from repro.reformulation.plans import QueryPlan
from repro.reformulation.soundness import plan_query

#: A database maps relation names to sets of value tuples.
Database = Mapping[str, set[tuple[object, ...]]]


def evaluate_conjunctive_query(
    query: ConjunctiveQuery, database: Database
) -> set[tuple[object, ...]]:
    """All answers of *query* over *database*.

    Raises :class:`~repro.errors.ExecutionError` for a head variable
    the body does not bind, whatever the database holds.
    """
    return evaluate_rule(query, database)


def execute_plan(
    query: ConjunctiveQuery,
    plan: QueryPlan,
    source_facts: Database,
) -> Optional[set[tuple[object, ...]]]:
    """Execute a plan against the source instances.

    Builds the plan's source-level conjunctive query (which also
    proves soundness) and evaluates it.  Returns None when the plan is
    unsound and therefore must not be executed.
    """
    executable = plan_query(query, plan)
    if executable is None:
        return None
    return evaluate_conjunctive_query(executable, source_facts)
