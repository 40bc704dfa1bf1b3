"""Bottom-up datalog evaluation.

The engine evaluates a :class:`~repro.datalog.program.Program` over a
database of ground facts using semi-naive iteration: in each round a
rule only fires when at least one body atom matches a fact derived in
the previous round.  This is the substrate used to

* execute concrete query plans (a plan is a single nonrecursive rule
  over source relations),
* evaluate inverse-rule programs, which derive mediated-schema facts
  (possibly containing Skolem terms) from source facts.

Databases are plain dictionaries ``{predicate: set of value tuples}``.
Values are raw Python objects (the ``value`` payload of constants);
Skolem terms appear as :class:`~repro.datalog.terms.FunctionTerm`
instances nested inside tuples.  Every body is evaluated by one
compiled positional join (``_compile_args`` / ``_run_steps``).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.errors import ExecutionError
from repro.datalog.program import Program, Rule
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Constant, FunctionTerm, Term, Variable

#: A database maps predicate names to sets of value tuples.
Database = dict[str, set[tuple[object, ...]]]
Relations = Mapping[str, set[tuple[object, ...]]]
Facts = Iterable[tuple[object, ...]]


def _compile_args(
    args: tuple[Term, ...], slot_of: dict[Variable, int], constants: list[object]
) -> tuple:
    """Compile an atom's (or a function-term pattern's) arguments to a step.

    Solutions live in one slot list: variable ``v`` at ``slot_of[v]``,
    the k-th constant at ``-k`` (so a constant test is a slot test).  A
    variable's first occurrence in body order binds its slot, every
    later one tests it: decided here, once, not per fact.  The step is
    ``(arity, tests, binds, rest)`` -- ``(position, slot)`` pairs, and
    None or ``(nests, late tests)`` -- matched in that order.  Nests
    are function-term patterns ``(position, functor, step)``; late
    tests read a slot bound while matching this same fact (``p(X, X)``,
    a variable first seen inside a pattern) and so follow the binds.
    """
    filled = len(slot_of)
    tests, binds, nests, late = [], [], [], []
    for pos, arg in enumerate(args):
        if isinstance(arg, Variable):
            slot = slot_of.get(arg)
            if slot is None:
                slot_of[arg] = slot = len(slot_of)
                binds.append((pos, slot))
            else:
                (tests if slot < filled else late).append((pos, slot))
        elif isinstance(arg, Constant):
            constants.append(arg.value)
            tests.append((pos, -len(constants)))
        else:
            inner = _compile_args(arg.args, slot_of, constants)
            nests.append((pos, arg.functor, inner))
    return len(args), tests, binds, (nests, late) if nests or late else None


def _match(step: tuple, values: Sequence[object], slots: list[object]) -> bool:
    """Match one fact, or one ground function term's arguments, whole."""
    arity, tests, binds, rest = step
    if len(values) != arity or any(slots[s] != values[p] for p, s in tests):
        return False
    for pos, slot in binds:
        slots[slot] = values[pos]
    if rest is None:
        return True
    nests, late = rest
    for pos, functor, inner in nests:
        term = values[pos]
        if not isinstance(term, FunctionTerm) or functor != term.functor:
            return False
        inside = [a.value if isinstance(a, Constant) else a for a in term.args]
        if not _match(inner, inside, slots):
            return False
    return not any(slots[s] != values[p] for p, s in late)


def _run_steps(
    steps: list[tuple], facts: list[Facts], slots: list[object]
) -> Iterator[list[object]]:
    """Yield *slots*, refilled in place, once per solution of the join.

    Atoms join in textual order and ``facts[i]`` is walked in its own
    iteration order -- the order of a nested loop over the body, which
    is part of the contract: result sets are filled, and later
    iterated, in it.  A failed fact leaves garbage only in slots that
    are rebound before they are read.  No index: every atom scans its
    relation (docs/algorithms.md, "Plan execution", says why).
    """
    if not steps:
        yield slots
        return
    last = len(steps) - 1
    pending = [iter(facts[0])]
    while pending:
        depth = len(pending) - 1
        step = steps[depth]
        arity, tests, binds, rest = step
        if rest is not None:
            tests = binds = ()  # the uncommon atom: _match does the whole fact
        for values in pending[depth]:
            if len(values) != arity or (
                rest is not None and not _match(step, values, slots)
            ):
                continue
            for pos, slot in tests:
                if slots[slot] != values[pos]:
                    break
            else:
                for pos, slot in binds:
                    slots[slot] = values[pos]
                if depth == last:
                    yield slots
                else:
                    pending.append(iter(facts[depth + 1]))
                    break
        else:
            pending.pop()


def _fact_lists(
    body: tuple[Atom, ...], database: Relations, delta: Optional[Relations]
) -> Iterator[list[Facts]]:
    """The per-atom fact collections of each join a body evaluation runs.

    With *delta*, one join per body position whose predicate has delta
    facts: that atom reads the delta, the atoms before it the old facts
    (``database - delta``, taken at most once per atom) to avoid
    duplicates, and the atoms after it the whole database.
    """
    whole = [database.get(atom.predicate, frozenset()) for atom in body]
    if delta is None:
        yield whole
        return
    old: list[Facts] = []
    for pos, atom in enumerate(body):
        if delta.get(atom.predicate):
            for before in range(len(old), pos):
                gone = delta.get(body[before].predicate, frozenset())
                old.append(whole[before] - gone)
            yield old[:pos] + [delta[atom.predicate]] + whole[pos + 1 :]


def _solve(
    body: tuple[Atom, ...],
    database: Relations,
    delta: Optional[Relations],
    rule: Union[Rule, ConjunctiveQuery, None] = None,
) -> Iterator:
    """Compile *body*, join it and project every solution: to the head row
    of *rule* (whose body it is), or to a fresh ``{Variable: value}`` dict."""
    slot_of: dict[Variable, int] = {}
    constants: list[object] = []
    steps = [_compile_args(atom.args, slot_of, constants) for atom in body]
    project = (
        _head_projection(rule, slot_of, constants)  # may add head constants
        if rule is not None
        # zip stops at the last variable: the constants behind are dropped.
        else lambda slots: dict(zip(slot_of, slots))
    )
    slots = [None] * len(slot_of) + constants[::-1]
    joins = (_run_steps(steps, f, slots) for f in _fact_lists(body, database, delta))
    return map(project, chain.from_iterable(joins))


def evaluate_rule_body(
    body: tuple[Atom, ...],
    database: Relations,
    delta: Optional[Relations] = None,
) -> Iterator[dict[Variable, object]]:
    """Yield every variable binding satisfying *body* over *database*.

    When *delta* is given, only derivations using at least one fact
    from *delta* are produced (the semi-naive restriction).  The join
    order is the textual order of the body; each subgoal is evaluated
    against the facts of its predicate with early pruning of
    inconsistent bindings.  Every binding is a fresh dict.
    """
    return _solve(body, database, delta)


def _term_value(
    term: Term, slots: list[object], slot_of: dict[Variable, int]
) -> object:
    """Evaluate a head term to a raw value over a solution's *slots*."""
    if isinstance(term, Variable):
        return slots[slot_of[term]]
    if isinstance(term, Constant):
        return term.value
    # Skolem term: build a ground FunctionTerm with evaluated arguments.
    return FunctionTerm(
        term.functor,
        tuple(Constant(_term_value(a, slots, slot_of)) for a in term.args),  # type: ignore[arg-type]
    )


def _head_projection(
    rule: Union[Rule, ConjunctiveQuery], slot_of: dict[Variable, int], constants: list
) -> Callable[[list[object]], tuple[object, ...]]:
    """The function from a solution's slots to its head row.

    Head constants join *constants*, so a head of variables and
    constants is one ``itemgetter``; only Skolem terms are built per
    row.  An unsafe head fails here, before any fact is read.
    """
    args = rule.head.args
    indices: list[int] = []
    for arg in args:
        if isinstance(arg, Constant):
            constants.append(arg.value)
            indices.append(-len(constants))
        elif arg in slot_of:
            indices.append(slot_of[arg])
        else:  # a Skolem term, or a variable the body does not bind
            break
    else:
        if len(indices) > 1:
            return itemgetter(*indices)
        return lambda slots: tuple([slots[i] for i in indices])
    for var in rule.head.variables():
        if var not in slot_of:
            raise ExecutionError(f"unbound head variable {var} in {rule}")
    return lambda slots: tuple([_term_value(a, slots, slot_of) for a in args])


def evaluate_rule(
    rule: Union[Rule, ConjunctiveQuery],
    database: Relations,
    delta: Optional[Relations] = None,
) -> set[tuple[object, ...]]:
    """The head rows of *rule* over every solution of its body."""
    return set(_solve(rule.body, database, delta, rule))


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
        new = evaluate_rule(rule, database)
        fresh = new - database.get(rule.head.predicate, set())
        if fresh:
            database.setdefault(rule.head.predicate, set()).update(fresh)
            delta.setdefault(rule.head.predicate, set()).update(fresh)

    while delta:
        next_delta: Database = {}
        for rule in program.rules:
            # A rule with no delta predicate in its body joins nothing.
            new = evaluate_rule(rule, database, delta)
            fresh = new - database.get(rule.head.predicate, set())
            if fresh:
                next_delta.setdefault(rule.head.predicate, set()).update(fresh)
        for pred, facts in next_delta.items():
            database.setdefault(pred, set()).update(facts)
        delta = next_delta
    return database


def answer_query(
    program: Program,
    edb: Mapping[str, Iterable[tuple[object, ...]]],
    query_predicate: str,
) -> set[tuple[object, ...]]:
    """Evaluate *program* and return the facts of *query_predicate*.

    Answers containing Skolem function terms are dropped: those are not
    certain answers.
    """
    database = evaluate_program(program, edb)
    answers = database.get(query_predicate, set())
    return {
        row
        for row in answers
        if not any(isinstance(v, FunctionTerm) for v in row)
    }
