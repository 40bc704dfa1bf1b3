"""A process-local metric registry: counters, gauges, timing histograms.

This subsumes the ad-hoc ``OrderingStats`` counters: every orderer's
stats object is now a *view* over counters living in a
:class:`MetricRegistry`, so one registry can hold the counters of a
whole experiment run — several algorithms, the mediator, the utility
cache — and export them together as JSON.

Naming convention: dotted paths, ``<component>.<metric>``, e.g.
``ordering.iDrips.concrete_evaluations`` or ``utility_cache.hits``.
"""

from __future__ import annotations

import json
import threading
from typing import Mapping, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]

#: Default histogram bucket upper bounds (seconds-flavored, exponential).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically *intended* counter; ``set`` exists for views."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value

    def absorb(self, payload: Mapping[str, object]) -> None:
        """Fold another counter's export in: counts add up."""
        self.value += float(payload.get("value", 0))  # type: ignore[arg-type]

    def as_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (graph size, heap depth, ...)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def absorb(self, payload: Mapping[str, object]) -> None:
        """Fold another gauge's export in: last write wins.

        Gauges are point-in-time readings, so "sum across shards" is
        usually meaningless (the cluster's ``service.active`` is the
        sum, but a shard's heap depth is not); merge callers that need
        a sum should export it as a counter instead.
        """
        self.value = float(payload.get("value", 0))  # type: ignore[arg-type]

    def as_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bound histogram with count/sum/min/max, for timings."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        self.name = name
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last = +inf
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The *q*-quantile (0..1) estimated from the bucket counts.

        Standard Prometheus-style estimation: find the bucket the
        target rank falls into, then interpolate linearly inside it
        (the first bucket starts at 0: every histogram here times
        something).
        The estimate is clamped to the observed ``[min, max]`` so tiny
        samples do not report a p99 beyond anything ever seen, and the
        overflow bucket reports ``max`` (its upper edge is infinite).
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[index]
            if in_bucket > 0 and cumulative + in_bucket >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                fraction = (rank - cumulative) / in_bucket
                estimate = lower + (bound - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
        return self.max

    def percentiles(self) -> dict[str, float]:
        """The standard latency trio: p50/p90/p99."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def bucket_keys(self) -> tuple[str, ...]:
        """The export keys of every bucket, in bound order."""
        return tuple(f"le_{bound:g}" for bound in self.bounds) + ("le_inf",)

    def absorb(self, payload: Mapping[str, object]) -> None:
        """Fold another histogram's export in (same bucket layout).

        Per-bucket counts, the observation count and the sum add up;
        min/max extend.  Quantile estimates are *recomputed* from the
        merged buckets, which is the whole point of merging counts
        instead of averaging percentiles.
        """
        buckets = payload.get("buckets")
        if not isinstance(buckets, Mapping):
            raise ValueError(
                f"histogram {self.name!r}: export has no buckets: {payload!r}"
            )
        keys = self.bucket_keys()
        if set(map(str, buckets)) != set(keys):
            raise ValueError(
                f"histogram {self.name!r}: bucket layout mismatch "
                f"({sorted(map(str, buckets))} vs {sorted(keys)})"
            )
        for index, key in enumerate(keys):
            self.bucket_counts[index] += int(buckets[key])  # type: ignore[call-overload]
        added = int(payload.get("count", 0))  # type: ignore[arg-type]
        self.count += added
        self.total += float(payload.get("sum", 0.0))  # type: ignore[arg-type]
        if added > 0:
            self.min = min(self.min, float(payload.get("min", self.min)))  # type: ignore[arg-type]
            self.max = max(self.max, float(payload.get("max", self.max)))  # type: ignore[arg-type]

    def as_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            **self.percentiles(),
            "buckets": {
                **{f"le_{bound:g}": count
                   for bound, count in zip(self.bounds, self.bucket_counts)},
                "le_inf": self.bucket_counts[-1],
            },
        }


def _bounds_from_export(name: str, payload: Mapping[str, object]) -> tuple[float, ...]:
    """Recover a histogram's bucket bounds from its ``as_dict`` export.

    Bucket keys are ``le_{bound:g}`` plus the ``le_inf`` overflow;
    ``%g`` round-trips through ``float`` exactly for the magnitudes a
    latency histogram uses, so a registry merged from a JSON export
    reconstructs the same layout the emitting process had.
    """
    buckets = payload.get("buckets")
    if not isinstance(buckets, Mapping):
        raise ValueError(
            f"histogram {name!r}: export has no buckets: {payload!r}"
        )
    bounds: list[float] = []
    for key in map(str, buckets):
        if key == "le_inf":
            continue
        if not key.startswith("le_"):
            raise ValueError(f"histogram {name!r}: bad bucket key {key!r}")
        try:
            bounds.append(float(key[3:]))
        except ValueError:
            raise ValueError(
                f"histogram {name!r}: bad bucket key {key!r}"
            ) from None
    return tuple(sorted(bounds))


class MetricRegistry:
    """Get-or-create registry of named metrics with exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # Registration is serialized so concurrent sessions sharing one
        # registry cannot race two metric objects under the same name
        # (updates to the loser would be silently lost).  Updates to a
        # registered metric stay lock-free.
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
        if metric.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}"
            )
        return metric

    @property
    def lock(self) -> threading.Lock:
        """Serialization point for multi-threaded metric *updates*.

        Single-threaded callers never need it; concurrent sessions in
        the service layer take it around read-modify-write bursts so
        counters stay exact under contention.
        """
        return self._lock

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, bounds or DEFAULT_BUCKETS), "histogram"
        )

    # -- merging ----------------------------------------------------------------

    def merge(
        self, other: "MetricRegistry | Mapping[str, Mapping[str, object]]"
    ) -> "MetricRegistry":
        """Fold another registry's metrics (or its export) into this one.

        The cross-shard aggregation primitive, mirroring
        :meth:`~repro.observability.tracing.Tracer.merge`: each worker
        process owns a private registry and the router merges their
        ``as_dict()`` exports into one cluster view.  Same-name metrics
        combine by kind — counters sum, gauges keep the last write,
        histograms absorb bucket-wise (see each metric's ``absorb``).
        A name registered here under a different kind than in *other*
        raises :class:`TypeError`, exactly like ``_get_or_create``.
        Returns ``self`` for chaining.
        """
        exported = (
            other.as_dict() if isinstance(other, MetricRegistry) else other
        )
        for name, payload in exported.items():
            kind = str(payload.get("kind", ""))
            if kind == "counter":
                self.counter(name).absorb(payload)
            elif kind == "gauge":
                self.gauge(name).absorb(payload)
            elif kind == "histogram":
                bounds = _bounds_from_export(name, payload)
                self.histogram(name, bounds=bounds).absorb(payload)
            else:
                raise ValueError(
                    f"cannot merge metric {name!r} of unknown kind {kind!r}"
                )
        return self

    # -- introspection ----------------------------------------------------------

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def as_dict(self) -> dict[str, dict[str, object]]:
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.as_dict() for name, metric in metrics}

    # -- exporters --------------------------------------------------------------

    def to_json(self, indent: int = 2, extra: Optional[dict] = None) -> str:
        """The registry (plus optional extra sections) as a JSON document."""
        payload: dict[str, object] = {"metrics": self.as_dict()}
        if extra:
            payload.update(extra)
        return json.dumps(payload, indent=indent, sort_keys=True)

    def write_json(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(extra=extra))
            handle.write("\n")

