"""Nestable tracing spans with a zero-cost disabled mode.

The ordering algorithms are compared on *work done per answer
emitted*; wall-clock numbers only mean something when we know which
stage spent them.  A :class:`Tracer` records a tree of named spans —
``greedy.order`` containing many ``utility.eval`` spans — aggregating
per *path* (the ``/``-joined chain of enclosing span names): call
count, total / min / max wall time, plus any user-attached attributes.

Tracing is opt-in.  The module-level :data:`NOOP_TRACER` is the
default everywhere; its ``span()`` hands back one shared no-op context
manager, so an instrumented hot path pays a single attribute check and
no allocation when tracing is off.  Code with a per-call span in a
tight loop should guard on ``tracer.enabled`` and skip the ``with``
block entirely — see ``PlanOrderer._evaluate_plan`` for the idiom.

Spans measure with :func:`time.perf_counter` and are not thread-safe;
each worker should own its tracer and merge the exported dicts.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

__all__ = ["Span", "SpanStats", "Stopwatch", "Tracer", "NOOP_TRACER"]


class Stopwatch:
    """A bare ``perf_counter`` timer usable as a context manager.

    This is the timer primitive every span uses; code that needs an
    elapsed time without a tracer (e.g. AnyK's per-plan delay) uses it
    directly.
    """

    __slots__ = ("started", "elapsed")

    def __init__(self) -> None:
        self.started: Optional[float] = None
        self.elapsed: float = 0.0

    def start(self) -> "Stopwatch":
        self.started = time.perf_counter()
        return self

    def stop(self) -> float:
        if self.started is None:
            raise RuntimeError("stopwatch was never started")
        self.elapsed = time.perf_counter() - self.started
        return self.elapsed

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class SpanStats:
    """Aggregate of every completed span sharing one path."""

    __slots__ = ("path", "calls", "total_s", "min_s", "max_s", "attributes")

    def __init__(self, path: str) -> None:
        self.path = path
        self.calls = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.attributes: dict[str, object] = {}

    def record(self, elapsed: float, attributes: Optional[dict]) -> None:
        self.calls += 1
        self.total_s += elapsed
        self.min_s = min(self.min_s, elapsed)
        self.max_s = max(self.max_s, elapsed)
        if attributes:
            self.attributes.update(attributes)

    def absorb(self, payload: dict) -> None:
        """Fold another tracer's exported stats for this path in.

        *payload* is one value of :meth:`Tracer.as_dict` — ``mean_s``
        is derived and ignored; calls/total add, min/max extend.
        """
        calls = int(payload.get("calls", 0))
        if calls <= 0:
            return
        self.calls += calls
        self.total_s += float(payload.get("total_s", 0.0))
        self.min_s = min(self.min_s, float(payload.get("min_s", float("inf"))))
        self.max_s = max(self.max_s, float(payload.get("max_s", 0.0)))
        attributes = payload.get("attributes")
        if attributes:
            self.attributes.update(attributes)

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "calls": self.calls,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.calls if self.calls else 0.0,
            "min_s": self.min_s if self.calls else 0.0,
            "max_s": self.max_s,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload


class Span:
    """One live span; records into its tracer when the block exits."""

    __slots__ = ("_tracer", "name", "path", "attributes", "_watch", "elapsed")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.path = ""
        self.attributes = attributes
        self._watch = Stopwatch()
        self.elapsed = 0.0

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self.path = self._tracer._push(self.name)
        self._watch.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = self._watch.stop()
        self._tracer._pop(self)


class _NoopSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()
    elapsed = 0.0
    path = ""

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Aggregating span recorder.

    ``enabled=False`` turns every ``span()`` into the shared no-op, so
    a tracer can be threaded through unconditionally and switched at
    one place.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._stack: list[str] = []
        self._spans: dict[str, SpanStats] = {}

    # -- recording --------------------------------------------------------------

    def span(self, name: str, **attributes: object):
        """A context manager timing one occurrence of *name*."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, attributes)

    def _push(self, name: str) -> str:
        self._stack.append(name)
        return "/".join(self._stack)

    def _pop(self, span: Span) -> None:
        self._stack.pop()
        stats = self._spans.get(span.path)
        if stats is None:
            stats = self._spans[span.path] = SpanStats(span.path)
        stats.record(span.elapsed, span.attributes)

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "Tracer | dict[str, dict]") -> "Tracer":
        """Fold another tracer's spans (or its export) into this one.

        Spans are not thread-safe to *record* concurrently, so each
        worker thread owns a private tracer and the single consumer
        merges the exports once the workers have quiesced — see
        ``PipelinedSession``.  Same-path stats aggregate (calls and
        totals add, min/max extend); ``prefix`` nesting is the
        caller's job (worker spans already carry their full path).
        Returns ``self`` for chaining.
        """
        exported = other.as_dict() if isinstance(other, Tracer) else other
        for path, payload in exported.items():
            stats = self._spans.get(path)
            if stats is None:
                stats = self._spans[path] = SpanStats(path)
            stats.absorb(payload)
        return self

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __contains__(self, path: str) -> bool:
        return path in self._spans

    def get(self, path: str) -> Optional[SpanStats]:
        return self._spans.get(path)

    def paths(self) -> Iterator[str]:
        return iter(self._spans)

    def as_dict(self) -> dict[str, dict[str, object]]:
        """``{span path: {calls, total_s, mean_s, min_s, max_s}}``."""
        return {
            path: stats.as_dict() for path, stats in sorted(self._spans.items())
        }

    def format_table(self) -> str:
        """A fixed-width text table of every span path."""
        lines = [f"{'span':<44} {'calls':>8} {'total [s]':>12} {'mean [s]':>12}"]
        for path, stats in sorted(self._spans.items()):
            payload = stats.as_dict()
            lines.append(
                f"{path:<44} {payload['calls']:>8} "
                f"{payload['total_s']:>12.6f} {payload['mean_s']:>12.6f}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._stack.clear()
        self._spans.clear()


#: The default tracer: permanently disabled, shared by everyone.
NOOP_TRACER = Tracer(enabled=False)
