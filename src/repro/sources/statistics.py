"""Per-source statistics used by the utility measures.

The paper's cost measures (Section 3) are parameterized by, for each
source ``V_i``:

* ``n_i``      -- the expected number of items the source outputs
                  (``n_tuples`` here),
* ``alpha_i``  -- the cost of transmitting one item from the source to
                  the system site (``transfer_cost``),
* ``h``        -- the overhead of accessing a source; ``h`` is shared
                  across sources in the paper, so it lives on the
                  measure, not here,
* a failure probability (Section 6's "cost with probability of source
  failure"), and
* monetary fees (Section 6's "average monetary cost per tuple").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CatalogError


@dataclass(frozen=True, slots=True)
class SourceStats:
    """Immutable scalar statistics of a single data source."""

    n_tuples: int = 100
    transfer_cost: float = 1.0
    failure_prob: float = 0.0
    access_fee: float = 0.0
    fee_per_item: float = 0.0

    def __post_init__(self) -> None:
        if self.n_tuples < 0:
            raise CatalogError(f"negative n_tuples: {self.n_tuples}")
        if self.transfer_cost < 0:
            raise CatalogError(f"negative transfer_cost: {self.transfer_cost}")
        if not 0.0 <= self.failure_prob < 1.0:
            raise CatalogError(
                f"failure_prob must be in [0, 1), got {self.failure_prob}"
            )
        if self.access_fee < 0 or self.fee_per_item < 0:
            raise CatalogError("fees must be non-negative")
