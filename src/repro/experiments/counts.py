"""EXPERIMENTS.md's evaluation-count tables: one generator, one diff.

Utility-evaluation counts are the quantity the paper explains its
results with, and here they are deterministic: seeded domains and
deterministic tie-breaks give the same count on every machine.  So
every count table in EXPERIMENTS.md is produced by this module, and the
file and the code are compared exactly.  A table sits between
``<!-- counts:NAME -->`` and ``<!-- /counts -->``; its rows and columns
are the :data:`TABLES` entry of that name::

    python -m repro experiments --check EXPERIMENTS.md   # every row
    python -m repro experiments --write EXPERIMENTS.md   # regenerate

A row is *cheap* when it computes in a fraction of a second; the tier-1
test diffs those, and a CI step diffs every row.  Wall-clock times are
not generated: they depend on the machine, so EXPERIMENTS.md keeps them
as recorded notes.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.errors import InternalError
from repro.experiments.figure6 import PANELS, SWEEPS
from repro.experiments.harness import AlgorithmSpec, PanelSpec
from repro.ordering.abstraction import (
    AbstractionHeuristic,
    ExtensionSimilarityHeuristic,
    OutputCountHeuristic,
    RandomHeuristic,
)
from repro.ordering.base import OrderingStats
from repro.ordering.bruteforce import PIOrderer
from repro.ordering.drips import DripsPlanner
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.utility.coverage import CoverageUtility
from repro.workloads.paper_example import paper_example
from repro.workloads.synthetic import SyntheticDomain, SyntheticParams, generate_domain

Cell = Union[int, str]
#: A table's computed rows: label cells -> count cells.
Rows = dict[tuple[str, ...], tuple[Cell, ...]]


@dataclass(frozen=True)
class CountRow:
    """One table row: its label cells and how to compute the rest."""

    labels: tuple[str, ...]
    compute: Callable[[], tuple[Cell, ...]]
    cheap: bool = True


@dataclass(frozen=True)
class CountTable:
    """One count table of EXPERIMENTS.md."""

    name: str
    header: tuple[str, ...]
    rows: tuple[CountRow, ...]

    def header_lines(self) -> list[str]:
        return [_line(self.header), "|" + "---|" * len(self.header)]


def _line(cells: Sequence[object]) -> str:
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def _stats(algorithm: AlgorithmSpec, domain: SyntheticDomain, k: int) -> OrderingStats:
    orderer = algorithm.build(domain)
    returned = len(orderer.order_list(domain.space, k))
    if returned != min(k, domain.space.size):
        raise InternalError(f"{algorithm.name} returned {returned} of {k} plans")
    return orderer.stats


def _counts(
    spec: PanelSpec, bucket_size: int, field: str = "plans_evaluated"
) -> tuple[int, ...]:
    """*field* per algorithm of *spec*, the mean over its seeds rounded."""
    per_seed = []
    for seed in spec.seeds:
        domain = spec.domain(bucket_size, seed)
        per_seed.append(
            [getattr(_stats(algo, domain, spec.k), field) for algo in spec.algorithms]
        )
    return tuple(round(statistics.mean(column)) for column in zip(*per_seed))


# -- the tables ------------------------------------------------------------------


def _figure6(name: str, letters: str, bucket_sizes: tuple[int, ...]) -> CountTable:
    algorithms = PANELS[letters[0]].algorithms
    rows = tuple(
        CountRow(
            (str(PANELS[letter].k), str(bucket)),
            functools.partial(_counts, PANELS[letter], bucket),
            cheap=PANELS[letter].k <= 10,
        )
        for letter in letters
        for bucket in bucket_sizes
    )
    return CountTable(name, ("k", "bucket", *(a.name for a in algorithms)), rows)


def _coverage(k: int, *algorithms: AlgorithmSpec, **fields: object) -> PanelSpec:
    return dataclasses.replace(PanelSpec("claim", "coverage", k, algorithms), **fields)


def _first_iteration(seed: int) -> tuple[Cell, ...]:
    """Section 6: Streamer's first iteration against PI's, coverage."""
    spec = _coverage(
        1,
        AlgorithmSpec("Streamer", lambda d: StreamerOrderer(d.coverage())),
        AlgorithmSpec("PI", lambda d: PIOrderer(d.coverage())),
        seeds=(seed,),
    )
    streamer, pi = _counts(spec, 16, "first_plan_evaluations")
    return streamer, pi, f"{100 * streamer / pi:.1f} %"


#: The ablation's heuristics, in EXPERIMENTS.md's row order.
HEURISTICS: dict[str, Callable[[SyntheticDomain], AbstractionHeuristic]] = {
    "output-count": lambda d: OutputCountHeuristic(),
    "extension-similarity": lambda d: ExtensionSimilarityHeuristic(d.model),
    "random": lambda d: RandomHeuristic(seed=0),
}


def _ablation(heuristic: str) -> tuple[int, ...]:
    """Section 6's summary: the abstraction heuristic decides the work."""
    make = HEURISTICS[heuristic]
    spec = _coverage(
        10,
        AlgorithmSpec("Streamer", lambda d: StreamerOrderer(d.coverage(), make(d))),
        AlgorithmSpec("iDrips", lambda d: IDripsOrderer(d.coverage(), make(d))),
        seeds=(0, 1, 2),
    )
    return _counts(spec, 16)


#: Section 4: Greedy against PI on measure (1).
_GREEDY = PanelSpec(
    "greedy",
    "linear cost",
    10,
    (
        AlgorithmSpec("Greedy", lambda d: GreedyOrderer(d.linear_cost())),
        AlgorithmSpec("PI", lambda d: PIOrderer(d.linear_cost())),
    ),
)


def _drips(figure3: bool) -> tuple[int, ...]:
    """Section 5.1: Drips' best plan of a 3 x 3 coverage space."""
    if figure3:
        example = paper_example()
        space, utility = example.space, CoverageUtility(example.model)
    else:
        domain = generate_domain(SyntheticParams(query_length=2, bucket_size=3, seed=7))
        space, utility = domain.space, domain.coverage()
    drips = DripsPlanner(utility)
    drips.best_plan(space)
    return space.size, drips.stats.concrete_evaluations, drips.stats.plans_evaluated


def _sweep(label: object, spec: PanelSpec, cheap: bool) -> CountRow:
    (bucket,) = spec.bucket_sizes
    return CountRow((str(label),), functools.partial(_counts, spec, bucket), cheap)


#: Every count table of EXPERIMENTS.md, in file order.
TABLES: tuple[CountTable, ...] = (
    _figure6("coverage", "abc", (8, 16)),
    _figure6("failure", "def", (16,)),
    _figure6("caching", "ghi", (16,)),
    _figure6("monetary", "jkl", (16,)),
    CountTable(
        "first-iteration",
        ("seed", "Streamer", "PI", "Streamer / PI"),
        tuple(
            CountRow((str(seed),), functools.partial(_first_iteration, seed))
            for seed in (0, 1, 2)
        ),
    ),
    CountTable(
        "overlap",
        ("overlap rate", "PI", "Streamer"),
        tuple(_sweep(spec.overlap_rate, spec, cheap=False) for spec in SWEEPS["overlap"]),
    ),
    CountTable(
        "query-length",
        ("query length", "PI", "iDrips", "Streamer"),
        tuple(
            _sweep(spec.query_length, spec, cheap=spec.query_length <= 4)
            for spec in SWEEPS["qlen"]
        ),
    ),
    CountTable(
        "drips",
        ("space", "plans", "Drips concrete", "Drips total"),
        (
            CountRow(("Figure 3",), functools.partial(_drips, True)),
            CountRow(("synthetic, seed 7",), functools.partial(_drips, False)),
        ),
    ),
    CountTable(
        "greedy",
        ("bucket", "Greedy", "PI"),
        tuple(
            CountRow((str(bucket),), functools.partial(_counts, _GREEDY, bucket))
            for bucket in (8, 16, 32)
        ),
    ),
    CountTable(
        "ablation",
        ("heuristic", "Streamer", "iDrips"),
        tuple(
            CountRow((name,), functools.partial(_ablation, name), cheap=False)
            for name in HEURISTICS
        ),
    ),
)


def generate(
    tables: Optional[Sequence[CountTable]] = None, *, cheap: bool = False
) -> dict[CountTable, Rows]:
    """Compute every row of *tables* (default :data:`TABLES`), or with
    ``cheap`` only the cheap ones."""
    return {
        table: {row.labels: row.compute() for row in table.rows if row.cheap or not cheap}
        for table in (TABLES if tables is None else tables)
    }


# -- the file ----------------------------------------------------------------------


def _block(lines: list[str], name: str) -> tuple[int, int]:
    """Line indices [start, end) of table *name*'s block in *lines*."""
    begin, end = f"<!-- counts:{name} -->", "<!-- /counts -->"
    try:
        start = lines.index(begin) + 1
        return start, lines.index(end, start)
    except ValueError:
        raise KeyError(f"no '{begin}' ... '{end}' block") from None


def _cells(line: str) -> tuple[str, ...]:
    return tuple(cell.strip() for cell in line.strip().strip("|").split("|"))


def check(text: str, generated: Mapping[CountTable, Rows]) -> list[str]:
    """Every difference between *text*'s count tables and *generated*.

    A table whose rows were all generated must match line for line; of
    a partly generated one (``generate(cheap=True)``), only the
    generated rows are compared.
    """
    lines = text.splitlines()
    problems = []
    for table, rows in generated.items():
        try:
            start, end = _block(lines, table.name)
        except KeyError as exc:
            problems.append(f"{table.name}: {exc.args[0]}")
            continue
        block = lines[start:end]
        if block[:2] != table.header_lines():
            problems.append(
                f"{table.name}: header {block[:2]}, the code gives "
                f"{table.header_lines()}"
            )
        width = len(table.rows[0].labels)
        found: dict[tuple[str, ...], str] = {}
        for line in block[2:]:
            labels = _cells(line)[:width]
            if labels in found:
                problems.append(
                    f"{table.name}: rows {found[labels]!r} and {line!r} "
                    "share their labels"
                )
            found[labels] = line
        for labels, cells in rows.items():
            expected = _line(labels + cells)
            line = found.pop(labels, None)
            if line != expected:
                problems.append(
                    f"{table.name}: EXPERIMENTS.md has {line!r}, the code "
                    f"gives {expected!r}"
                )
        if len(rows) == len(table.rows):
            problems.extend(
                f"{table.name}: row {line!r} is not generated"
                for line in found.values()
            )
    return problems


def write(text: str, generated: Mapping[CountTable, Rows]) -> str:
    """*text* with each table of *generated* rewritten in place."""
    lines = text.splitlines()
    for table, rows in generated.items():
        start, end = _block(lines, table.name)
        lines[start:end] = table.header_lines() + [
            _line(labels + cells) for labels, cells in rows.items()
        ]
    return "\n".join(lines) + "\n"
