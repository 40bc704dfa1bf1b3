"""Observability: tracing spans, metric registry, event journal, memoization.

The measurement substrate behind the repository's performance claims
(the paper's Section 5/6 comparisons are *quantitative*).  Five
modules:

* :mod:`repro.observability.tracing` — nestable wall-time spans with a
  free disabled mode (:data:`NOOP_TRACER` is the default everywhere);
* :mod:`repro.observability.metrics` — counters, gauges and timing
  histograms in a :class:`MetricRegistry` with a JSON exporter;
  ``OrderingStats`` is a view over such a registry;
* :mod:`repro.observability.caching` — :class:`CachingUtilityMeasure`,
  an exact memoization wrapper for utility measures reporting
  hit/miss counters through the registry;
* :mod:`repro.observability.journal` — :class:`EventJournal`, the
  thread-safe JSON-lines event sink with request correlation ids
  (:data:`NOOP_JOURNAL` is the default everywhere);
* :mod:`repro.observability.prometheus` — text-format exposition of a
  registry for scrapers (:func:`render_registry`).

See ``docs/observability.md`` for usage.
"""

from repro.observability.caching import CachingUtilityMeasure
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import Tracer

__all__ = ["CachingUtilityMeasure", "MetricRegistry", "Tracer"]
