"""Prometheus text-format exposition for the metric registry.

The registry's JSON exporter is for offline analysis; a running
service needs the pull format every scraper already speaks.  This
module renders a :class:`~repro.observability.metrics.MetricRegistry`
(or a previously written JSON export of one) as `Prometheus text
exposition format, version 0.0.4` — ``# TYPE`` comments, cumulative
histogram buckets with ``le`` labels, ``_sum``/``_count`` series.

Metric names are the registry's dotted paths with every non-metric
character mapped to ``_`` and a ``repro_`` namespace prefix:
``service.first_answer_s`` becomes ``repro_service_first_answer_s``.
Counters additionally get the conventional ``_total`` suffix.

Nothing here imports the service layer; the HTTP endpoint
(:mod:`repro.service.metricsd`) and the ``repro metrics-dump`` CLI
both call into these renderers.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.errors import ObservabilityError
from repro.observability.metrics import MetricRegistry

__all__ = [
    "render_export",
    "render_registry",
    "sanitize_metric_name",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_NAMESPACE = "repro"


def sanitize_metric_name(name: str) -> str:
    """A dotted registry path as a legal, ``repro_``-prefixed metric name."""
    flat = _NAME_RE.sub("_", name.strip())
    if not flat:
        raise ObservabilityError(f"cannot derive a metric name from {name!r}")
    return f"{_NAMESPACE}_{flat}"


def _format_value(value: object) -> str:
    number = float(value)  # type: ignore[arg-type]
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _render_counter(name: str, payload: Mapping[str, object]) -> list[str]:
    return [
        f"# TYPE {name}_total counter",
        f"{name}_total {_format_value(payload.get('value', 0))}",
    ]


def _render_gauge(name: str, payload: Mapping[str, object]) -> list[str]:
    return [
        f"# TYPE {name} gauge",
        f"{name} {_format_value(payload.get('value', 0))}",
    ]


def _bucket_bound(key: str) -> str:
    # JSON bucket keys look like ``le_0.005`` / ``le_inf``.
    text = key[3:] if key.startswith("le_") else key
    return "+Inf" if text == "inf" else text


def _render_histogram(name: str, payload: Mapping[str, object]) -> list[str]:
    lines = [f"# TYPE {name} histogram"]
    buckets = payload.get("buckets")
    cumulative = 0.0
    if isinstance(buckets, Mapping):
        # JSON round-trips may have sorted the keys alphabetically
        # ("le_10" before "le_2.5"); cumulate in numeric bound order.
        def numeric_bound(key: str) -> float:
            bound = _bucket_bound(key)
            return float("inf") if bound == "+Inf" else float(bound)

        for key in sorted(map(str, buckets), key=numeric_bound):
            cumulative += float(buckets[key])  # type: ignore[arg-type]
            bound = _bucket_bound(key)
            lines.append(
                f'{name}_bucket{{le="{bound}"}} {_format_value(cumulative)}'
            )
    lines.append(f"{name}_sum {_format_value(payload.get('sum', 0.0))}")
    lines.append(f"{name}_count {_format_value(payload.get('count', 0))}")
    # The estimated percentiles ride along as a companion gauge family
    # so dashboards get latency quantiles without PromQL on buckets.
    for quantile in ("p50", "p90", "p99"):
        if quantile in payload:
            lines.append(
                f'{name}_quantile{{quantile="0.{quantile[1:]}"}} '
                f"{_format_value(payload[quantile])}"
            )
    return lines


_RENDERERS = {
    "counter": _render_counter,
    "gauge": _render_gauge,
    "histogram": _render_histogram,
}


def render_export(metrics: Mapping[str, Mapping[str, object]]) -> str:
    """Prometheus text from a ``MetricRegistry.as_dict()`` payload.

    Also accepts the ``{"metrics": {...}}`` envelope that
    ``MetricRegistry.to_json`` writes, so a file produced by
    ``--metrics-out`` converts directly (``repro metrics-dump``).
    """
    inner = metrics.get("metrics")
    if isinstance(inner, Mapping) and all(
        isinstance(v, Mapping) for v in inner.values()
    ):
        metrics = inner  # type: ignore[assignment]
    lines: list[str] = []
    for name in sorted(metrics):
        payload = metrics[name]
        if not isinstance(payload, Mapping):
            raise ObservabilityError(
                f"metric {name!r} export is not an object: {payload!r}"
            )
        kind = str(payload.get("kind", ""))
        renderer = _RENDERERS.get(kind)
        if renderer is None:
            raise ObservabilityError(
                f"metric {name!r} has unknown kind {kind!r}"
            )
        lines.extend(renderer(sanitize_metric_name(name), payload))
    return "".join(line + "\n" for line in lines)


def render_registry(registry: MetricRegistry) -> str:
    """One registry as Prometheus text."""
    return render_export(registry.as_dict())
