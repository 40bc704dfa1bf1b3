"""Panel runner: time-to-k-th-plan versus bucket size.

Figure 6 of the paper plots "the time it takes from when the query is
issued until the first k best plans have been found, against the
bucket size" — excluding bucket construction, which "takes the same
time for all three algorithms".  A :class:`PanelSpec` captures one
panel: the utility measure, k, the algorithms, and the sweep over
bucket sizes; :func:`run_panel` executes it over one or more seeds and
returns mean timings plus the evaluation counters.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import InternalError
from repro.observability.tracing import Stopwatch
from repro.ordering import ORDERER_TABLE
from repro.ordering.base import PlanOrderer
from repro.workloads.domain import Domain
from repro.workloads.synthetic import SyntheticParams, generate_domain

#: Builds an orderer (with its utility measure) for a generated domain.
OrdererBuilder = Callable[[Domain], PlanOrderer]


@dataclass(frozen=True)
class AlgorithmSpec:
    """An algorithm entry of a panel."""

    name: str
    build: OrdererBuilder


def algorithm(orderer: str, measure: str, name: Optional[str] = None) -> AlgorithmSpec:
    """The :data:`~repro.ordering.ORDERER_TABLE` orderer *orderer* on the
    domain's *measure*, named after the orderer unless *name* is given."""
    cls = ORDERER_TABLE[orderer]
    return AlgorithmSpec(name or cls.name, lambda d: cls(d.measure(measure)))


@dataclass(frozen=True)
class PanelSpec:
    """One panel of the evaluation."""

    panel_id: str
    title: str
    k: int
    algorithms: tuple[AlgorithmSpec, ...]
    bucket_sizes: tuple[int, ...] = (4, 8, 12, 16)
    query_length: int = 3
    overlap_rate: float = 0.3
    seeds: tuple[int, ...] = (0,)
    groups_per_bucket: Optional[int] = None

    def domain(self, bucket_size: int, seed: int) -> Domain:
        return generate_domain(
            SyntheticParams(
                query_length=self.query_length,
                bucket_size=bucket_size,
                overlap_rate=self.overlap_rate,
                groups_per_bucket=self.groups_per_bucket,
                seed=seed,
            )
        )


@dataclass
class PanelRow:
    """Mean results over the seeds for one (algorithm, bucket size) cell."""

    algorithm: str
    bucket_size: int
    seconds: float
    plans_evaluated: float
    first_plan_evaluations: float


@dataclass
class PanelResult:
    """All rows of a panel plus formatting helpers."""

    spec: PanelSpec
    rows: list[PanelRow] = field(default_factory=list)

    def row(self, algorithm: str, bucket_size: int) -> PanelRow:
        for candidate in self.rows:
            if (
                candidate.algorithm == algorithm
                and candidate.bucket_size == bucket_size
            ):
                return candidate
        raise KeyError((algorithm, bucket_size))

    def format_table(self) -> str:
        """An ASCII table in the shape of one Figure 6 panel."""
        lines = [
            f"Panel {self.spec.panel_id}: {self.spec.title} "
            f"(k={self.spec.k}, query length {self.spec.query_length}, "
            f"overlap {self.spec.overlap_rate})",
            f"{'bucket':>8} "
            + " ".join(
                f"{algo.name + ' [s]':>16}" for algo in self.spec.algorithms
            )
            + " "
            + " ".join(
                f"{algo.name + ' evals':>16}" for algo in self.spec.algorithms
            ),
        ]
        for bucket_size in self.spec.bucket_sizes:
            cells_time = []
            cells_eval = []
            for algo in self.spec.algorithms:
                row = self.row(algo.name, bucket_size)
                cells_time.append(f"{row.seconds:>16.4f}")
                cells_eval.append(f"{row.plans_evaluated:>16.0f}")
            lines.append(
                f"{bucket_size:>8} " + " ".join(cells_time) + " "
                + " ".join(cells_eval)
            )
        return "\n".join(lines)


def run_panel(
    spec: PanelSpec,
    bucket_sizes: Optional[Sequence[int]] = None,
) -> PanelResult:
    """Run every (bucket size, seed, algorithm) cell of a panel.

    Each seed's domain is generated once and ordered by every
    algorithm; each run must return ``min(k, plans)`` plans.
    """
    if bucket_sizes is not None:
        spec = dataclasses.replace(spec, bucket_sizes=tuple(bucket_sizes))
    result = PanelResult(spec)
    for bucket_size in spec.bucket_sizes:
        runs: dict[str, list[tuple[float, PlanOrderer]]] = {
            algo.name: [] for algo in spec.algorithms
        }
        for seed in spec.seeds:
            domain = spec.domain(bucket_size, seed)
            for algo in spec.algorithms:
                orderer = algo.build(domain)
                with Stopwatch() as watch:
                    returned = len(orderer.order_list(domain.space, spec.k))
                if returned != min(spec.k, domain.space.size):
                    raise InternalError(
                        f"{algo.name} returned {returned} of {spec.k} plans"
                    )
                runs[algo.name].append((watch.elapsed, orderer))
        for name, cells in runs.items():
            result.rows.append(
                PanelRow(
                    algorithm=name,
                    bucket_size=bucket_size,
                    seconds=statistics.mean(t for t, _ in cells),
                    plans_evaluated=statistics.mean(
                        o.stats.plans_evaluated for _, o in cells
                    ),
                    first_plan_evaluations=statistics.mean(
                        o.stats.first_plan_evaluations for _, o in cells
                    ),
                )
            )
    return result
