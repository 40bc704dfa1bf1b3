"""Source extensions and overlap.

The coverage utility (paper, Example 2.1) needs to know how much the
tuple sets of two sources overlap.  We model each bucket's potential
answer tuples as a discrete universe of ``universe_size`` elements and
each source's extension as a subset, stored as a Python int bitmask
(bit ``j`` set means the source can return tuple ``j`` of that
bucket's universe).

A query plan then corresponds to the *cross-product box* of its
per-slot extensions, and residual coverage, plan overlap, and plan
independence all become exact bit arithmetic (see
:mod:`repro.utility.boxes`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import CatalogError


class OverlapModel:
    """Per-bucket universes and per-source extension bitmasks.

    Parameters
    ----------
    universe_sizes:
        Universe size for each bucket (= query subgoal), indexed by
        bucket position.
    extensions:
        Mapping ``(bucket_index, source_name) -> bitmask``.
    """

    def __init__(
        self,
        universe_sizes: Iterable[int],
        extensions: Mapping[tuple[int, str], int],
    ) -> None:
        self._universe_sizes = tuple(universe_sizes)
        if any(size <= 0 for size in self._universe_sizes):
            raise CatalogError("universe sizes must be positive")
        self._extensions: dict[tuple[int, str], int] = {}
        for (bucket, name), mask in extensions.items():
            self._check_mask(bucket, name, mask)
            self._extensions[(bucket, name)] = mask

    def _check_mask(self, bucket: int, name: str, mask: int) -> None:
        if not 0 <= bucket < len(self._universe_sizes):
            raise CatalogError(f"bucket index {bucket} out of range for {name!r}")
        if mask < 0:
            raise CatalogError(f"negative mask for {name!r}")
        if mask >> self._universe_sizes[bucket]:
            raise CatalogError(
                f"mask for {name!r} exceeds bucket {bucket} universe "
                f"({self._universe_sizes[bucket]} bits)"
            )

    # -- accessors --------------------------------------------------------------

    @property
    def universe_sizes(self) -> tuple[int, ...]:
        return self._universe_sizes

    def universe_size(self, bucket: int) -> int:
        return self._universe_sizes[bucket]

    def total_universe_size(self) -> int:
        total = 1
        for size in self._universe_sizes:
            total *= size
        return total

    def extension(self, bucket: int, source_name: str) -> int:
        """The bitmask of tuples source *source_name* covers in *bucket*."""
        try:
            return self._extensions[(bucket, source_name)]
        except KeyError:
            raise CatalogError(
                f"no extension registered for source {source_name!r} "
                f"in bucket {bucket}"
            ) from None
