"""The interpretive join the compiled kernel replaced, kept as a test oracle.

``_match_args``, ``_match_function`` and ``_join`` are the functions
``repro.datalog.engine`` had before its positional kernel, verbatim; the
callers around them (``evaluate_rule_body``, ``_fire_rule``,
``evaluate_program``, ``evaluate_conjunctive_query``) are the ones that
stood on them then.  Test-only: nothing under ``src`` imports this, and
``tests/datalog/test_engine_differential.py`` holds the engine to it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from repro.errors import ExecutionError
from repro.datalog.program import Program, Rule
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Constant, FunctionTerm, Term, Variable

Database = dict[str, set[tuple[object, ...]]]


def _term_value(term: Term, binding: dict[Variable, object]) -> object:
    """Evaluate a head term to a raw value under *binding*."""
    if isinstance(term, Variable):
        return binding[term]
    if isinstance(term, Constant):
        return term.value
    # Skolem term: build a ground FunctionTerm with evaluated arguments.
    return FunctionTerm(
        term.functor,
        tuple(Constant(_term_value(a, binding)) for a in term.args),  # type: ignore[arg-type]
    )


def _match_args(
    atom: Atom, values: tuple[object, ...], binding: dict[Variable, object]
) -> Optional[dict[Variable, object]]:
    """Match an atom's argument pattern against a fact's value tuple."""
    result = dict(binding)
    for arg, value in zip(atom.args, values):
        if isinstance(arg, Variable):
            if arg in result:
                if result[arg] != value:
                    return None
            else:
                result[arg] = value
        elif isinstance(arg, Constant):
            if arg.value != value:
                return None
        else:  # FunctionTerm pattern: structural match against a ground term
            if not _match_function(arg, value, result):
                return None
    return result


def _match_function(
    pattern: FunctionTerm, value: object, binding: dict[Variable, object]
) -> bool:
    if not isinstance(value, FunctionTerm):
        return False
    if pattern.functor != value.functor or len(pattern.args) != len(value.args):
        return False
    for p_arg, v_arg in zip(pattern.args, value.args):
        v_value = v_arg.value if isinstance(v_arg, Constant) else v_arg
        if isinstance(p_arg, Variable):
            if p_arg in binding:
                if binding[p_arg] != v_value:
                    return False
            else:
                binding[p_arg] = v_value
        elif isinstance(p_arg, Constant):
            if p_arg.value != v_value:
                return False
        else:
            if not _match_function(p_arg, v_value, binding):
                return False
    return True


def evaluate_rule_body(
    body: tuple[Atom, ...],
    database: Mapping[str, set[tuple[object, ...]]],
    delta: Optional[Mapping[str, set[tuple[object, ...]]]] = None,
) -> Iterator[dict[Variable, object]]:
    """Yield every variable binding satisfying *body* over *database*.

    When *delta* is given, only derivations using at least one fact
    from *delta* are produced (the semi-naive restriction).  The join
    order is the textual order of the body; each subgoal is evaluated
    against the facts of its predicate with early pruning of
    inconsistent bindings.
    """
    if delta is None:
        yield from _join(body, 0, {}, database, None, False)
    else:
        # Union database for positions after the delta'd one.
        for delta_pos in range(len(body)):
            yield from _join(body, 0, {}, database, delta, False, delta_pos)


def _join(
    body: tuple[Atom, ...],
    index: int,
    binding: dict[Variable, object],
    database: Mapping[str, set[tuple[object, ...]]],
    delta: Optional[Mapping[str, set[tuple[object, ...]]]],
    used_delta: bool,
    delta_pos: int = -1,
) -> Iterator[dict[Variable, object]]:
    if index == len(body):
        yield binding
        return
    atom = body[index]
    if delta is None:
        facts: Iterable[tuple[object, ...]] = database.get(atom.predicate, ())
    elif index == delta_pos:
        facts = delta.get(atom.predicate, ())
    elif index < delta_pos:
        # Before the delta position: old facts only, to avoid duplicates.
        old = database.get(atom.predicate, set()) - delta.get(atom.predicate, set())
        facts = old
    else:
        facts = database.get(atom.predicate, ())
    for values in facts:
        if len(values) != atom.arity:
            continue
        extended = _match_args(atom, values, binding)
        if extended is not None:
            yield from _join(
                body, index + 1, extended, database, delta, used_delta, delta_pos
            )


def _fire_rule(
    rule: Rule,
    database: Database,
    delta: Optional[Database],
) -> set[tuple[object, ...]]:
    derived: set[tuple[object, ...]] = set()
    for binding in evaluate_rule_body(rule.body, database, delta):
        derived.add(tuple(_term_value(arg, binding) for arg in rule.head.args))
    return derived


def evaluate_program(
    program: Program,
    edb: Mapping[str, Iterable[tuple[object, ...]]],
) -> Database:
    """Compute the fixpoint of *program* over the facts in *edb*.

    Returns a database containing both the EDB facts and all derived
    IDB facts.
    """
    database: Database = {pred: set(facts) for pred, facts in edb.items()}
    # Round 0: naive firing over the EDB.
    delta: Database = {}
    for rule in program.rules:
        new = _fire_rule(rule, database, None)
        fresh = new - database.get(rule.head.predicate, set())
        if fresh:
            database.setdefault(rule.head.predicate, set()).update(fresh)
            delta.setdefault(rule.head.predicate, set()).update(fresh)

    while delta:
        next_delta: Database = {}
        for rule in program.rules:
            if not any(atom.predicate in delta for atom in rule.body):
                continue
            new = _fire_rule(rule, database, delta)
            fresh = new - database.get(rule.head.predicate, set())
            if fresh:
                next_delta.setdefault(rule.head.predicate, set()).update(fresh)
        for pred, facts in next_delta.items():
            database.setdefault(pred, set()).update(facts)
        delta = next_delta
    return database


def evaluate_conjunctive_query(
    query: ConjunctiveQuery, database: Database
) -> set[tuple[object, ...]]:
    """All answers of *query* over *database*."""
    answers: set[tuple[object, ...]] = set()
    for binding in evaluate_rule_body(query.body, database):
        row = []
        for arg in query.head.args:
            if isinstance(arg, Variable):
                try:
                    row.append(binding[arg])
                except KeyError:
                    raise ExecutionError(
                        f"unbound head variable {arg} in {query}"
                    ) from None
            elif isinstance(arg, Constant):
                row.append(arg.value)
            else:
                row.append(arg)
        answers.add(tuple(row))
    return answers
