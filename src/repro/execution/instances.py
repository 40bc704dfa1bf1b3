"""Materializing source instances from an overlap model.

The overlap model is an abstract statement about which answer tuples
each source can contribute.  For end-to-end validation we turn it into
concrete data so that the coverage utility's predictions become exact
statements about execution: the number of new answers a plan
contributes equals the residual of its box.

The correspondence is exact when every subgoal contributes one output
column of the query (the paper's coverage model likewise treats a
plan's answer set as the combination of its per-subgoal
contributions).  We therefore materialize the *product query*

    q(Y1, ..., YL) :- r1(Y1), ..., rL(YL)

where universe element ``e`` of bucket ``i`` becomes the fact
``r_i(x_i_e)`` and a source's instance holds exactly the facts
selected by its extension bitmask.  A plan's answers are then
literally the tuples of its box.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Variable
from repro.reformulation.plans import PlanSpace
from repro.sources.overlap import OverlapModel

#: Facts keyed by relation (or source) name.
FactMap = dict[str, set[tuple[object, ...]]]


def element_value(bucket: int, element: int) -> str:
    """The constant naming universe element *element* of *bucket*."""
    return f"x{bucket}_{element}"


def product_query(width: int, name: str = "q") -> ConjunctiveQuery:
    """The product query ``q(Y1..YL) :- r1(Y1), ..., rL(YL)``."""
    variables = [Variable(f"Y{i}") for i in range(width)]
    head = Atom(name, tuple(variables))
    body = tuple(Atom(f"r{i + 1}", (variables[i],)) for i in range(width))
    return ConjunctiveQuery(head, body)


def _mask_elements(mask: int) -> list[int]:
    elements = []
    index = 0
    while mask:
        if mask & 1:
            elements.append(index)
        mask >>= 1
        index += 1
    return elements


def materialize_instances(
    space: PlanSpace,
    model: OverlapModel,
) -> tuple[FactMap, FactMap]:
    """Build (source instances, schema-relation contents).

    Source instances contain the unary facts selected by each source's
    extension mask; schema contents are the per-bucket unions (the
    ground truth a complete source would hold).
    """
    if len(model.universe_sizes) != space.width:
        raise ExecutionError(
            f"overlap model has {len(model.universe_sizes)} buckets, "
            f"plan space has {space.width}"
        )
    source_facts: FactMap = {}
    schema_facts: FactMap = {f"r{i + 1}": set() for i in range(space.width)}
    for bucket in space.buckets:
        relation = f"r{bucket.index + 1}"
        for source in bucket.sources:
            mask = model.extension(bucket.index, source.name)
            rows = {
                (element_value(bucket.index, e),) for e in _mask_elements(mask)
            }
            source_facts.setdefault(source.name, set()).update(rows)
            schema_facts[relation].update(rows)
    return source_facts, schema_facts

