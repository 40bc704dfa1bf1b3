"""A consistent-hash ring over shard ids.

Routing must satisfy two properties the obvious ``hash(key) % N``
lacks:

* **cross-process stability** — the router and any offline tooling
  must agree on placements, and Python's builtin ``hash`` is salted
  per process (``PYTHONHASHSEED``).  Ring points therefore come from
  SHA-256, which is stable everywhere.
* **minimal disruption** — a ring with one more shard places all but
  ~1/N of the key space where the smaller ring did, rather than
  reshuffling everything the way ``% N`` would.

Each shard contributes :data:`REPLICAS` virtual points so the arcs
even out; a key routes to the first shard point at or after its own
hash, wrapping around.  :meth:`candidates` walks onward around the
ring — the failover order when the primary shard's breaker is open.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Iterator

__all__ = ["ConsistentHashRing", "REPLICAS"]

#: Virtual ring points per shard.
REPLICAS = 64


def _point(label: str) -> int:
    """A stable 64-bit ring position for *label*."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """SHA-256 consistent hashing of string keys onto integer shards."""

    def __init__(self, shards: Iterable[int]) -> None:
        ring = sorted(
            (_point(f"shard-{shard}:{replica}"), shard)
            for shard in shards
            for replica in range(REPLICAS)
        )
        self._points = [point for point, _ in ring]
        self._owners = [owner for _, owner in ring]

    def candidates(self, key: str) -> Iterator[int]:
        """All shards in ring order from *key*: primary, then failovers.

        The primary owns *key*: its point is the first at or after the
        key's hash.  Yields each shard exactly once; exhausting the
        iterator means every shard was tried.
        """
        start = bisect.bisect_left(self._points, _point(key))
        seen: set[int] = set()
        total = len(self._points)
        for offset in range(total):
            owner = self._owners[(start + offset) % total]
            if owner not in seen:
                seen.add(owner)
                yield owner
