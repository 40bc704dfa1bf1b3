"""End-to-end measurement: rounds against a fresh server, and their summary.

A *round* is one server life: spawn the subprocess (one ``setup_s``
sample), optionally warm its shared cache, send the workload's request
list closed-loop until the list or the round's time budget ends, read
the server's peak memory and CPU time, stop it, and only then — off the
clock — run the oracle over everything that came back.

Every metric is computed per round — a timing is the median over that
round's requests — and a run reports the mean over the better half of its
rounds (:func:`better_half_mean`; for memory, the median), with the
rounds' median, quartiles and count beside it.  Whatever else runs on the
host only ever adds time, in bursts of seconds and in phases of minutes,
so the quieter half of the rounds says more about the program than the
noisier half; a change to the program moves every round alike.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from benchmarks.e2e.client import Reply, drive
from benchmarks.e2e.oracle import Checker, check_journal
from benchmarks.e2e.server import ServerProcess
from benchmarks.e2e.workloads import Workload

#: Unit of the end-to-end metrics, and which way the host's noise pushes
#: them (names and units are the BENCHMARK.json contract).  Noise slows
#: every clock; memory it leaves alone.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ttfa_p50_ms": ("ms", "lower"),
    "tthalf_p50_ms": ("ms", "lower"),
    "ttl_p50_ms": ("ms", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", None),
}


def calibration_ms() -> float:
    """A fixed pure-Python loop, best of three: how fast is this machine now?"""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def median(values: list[float]) -> float:
    """The median; 0.0 if empty (a round in which every request failed)."""
    return statistics.median(values) if values else 0.0


def better_half_mean(values: list[float], better: str) -> float:
    """The mean over the better half of *values* (the middle one included)."""
    ranked = sorted(values, reverse=better == "higher")
    return statistics.fmean(ranked[: (len(ranked) + 1) // 2]) if ranked else 0.0


@dataclass
class Summary:
    """One metric over the rounds of a run.

    ``value`` is what the run reports; median, quartiles and count
    describe all the rounds.
    """

    unit: str
    value: float
    median: float
    q1: float
    q3: float
    n: int

    @classmethod
    def of(cls, values: list[float], unit: str, better: Optional[str]) -> "Summary":
        """*better* is the end noise cannot reach; None reports the median."""
        middle = median(values)
        value = better_half_mean(values, better) if better else middle
        if len(values) < 2:
            return cls(unit, value, middle, middle, middle, len(values))
        q1, _, q3 = statistics.quantiles(values, n=4)
        return cls(unit, value, middle, q1, q3, len(values))

    @property
    def spread(self) -> float:
        """Interquartile range of the rounds as a share of their median."""
        return (self.q3 - self.q1) / self.median if self.median else 0.0

    def as_dict(self) -> dict:
        return {"unit": self.unit, "value": self.value, "median": self.median,
                "q1": self.q1, "q3": self.q3, "n": self.n}


@dataclass
class Round:
    """What one server life measured."""

    setup_s: float
    phases: dict[str, float]
    calibration_ms: float
    duration_s: float
    peak_rss_mib: float
    cpu_s: float
    sent: int
    failed: int
    ttfa_ms: list[float] = field(default_factory=list)
    tthalf_ms: list[float] = field(default_factory=list)
    ttl_ms: list[float] = field(default_factory=list)
    decode_ms: list[float] = field(default_factory=list)
    wire_bytes: list[int] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.sent - self.failed

    def metrics(self) -> dict[str, float]:
        """This round's value of every per-round end-to-end metric."""
        return {
            "setup_s": self.setup_s,
            "ttfa_p50_ms": median(self.ttfa_ms),
            "tthalf_p50_ms": median(self.tthalf_ms),
            "ttl_p50_ms": median(self.ttl_ms),
            "requests_per_s": self.completed / self.duration_s,
            "peak_rss_mib": self.peak_rss_mib,
        }


def run_round(workload: Workload, checker: Checker, budget_s: Optional[float],
              limit: Optional[int] = None, pinned: bool = True,
              connections: int = 1) -> Round:
    """One server life of *workload*; replies are checked off the clock.

    The measured requests are the list after the warm-up, cut to
    *limit* requests and to those that start within *budget_s*.  A cold
    workload's list is sent whole: how far the server's caches and
    memory grow must not depend on how fast the host is today.
    """
    spec = workload.spec
    if spec.cold:
        budget_s = None
    measured = workload.requests[spec.warmup:][:limit]
    calibration = calibration_ms()
    with ServerProcess(
        spec.name, workload.seed, observed=spec.observed, pinned=pinned
    ) as server:
        warm: list[Reply] = []
        if spec.warmup:
            warm, _ = drive(
                server.port, workload.requests[: spec.warmup], connections,
                tag="w",
            )
        _, cpu_before = server.usage()
        replies, duration = drive(
            server.port, measured, connections, budget_s=budget_s,
        )
        peak_rss_mib, cpu_after = server.usage()
        journal_errors = (
            check_journal(
                server.journal_path, [r.request_id for r in warm + replies]
            )
            if server.journal_path
            else []
        )
    checker.errors += journal_errors
    for reply in warm:
        checker.check_reply(reply)
    good = [reply for reply in replies if checker.check_reply(reply)]
    return Round(
        setup_s=server.setup_s,
        phases=server.phases,
        calibration_ms=calibration,
        duration_s=duration,
        peak_rss_mib=peak_rss_mib,
        cpu_s=cpu_after - cpu_before,
        sent=len(replies),
        failed=len(replies) - len(good) + (1 if journal_errors else 0),
        ttfa_ms=[r.ttfa_s * 1000.0 for r in good if r.ttfa_s is not None],
        tthalf_ms=[r.tthalf_s * 1000.0 for r in good if r.tthalf_s is not None],
        ttl_ms=[r.ttl_s * 1000.0 for r in good],
        decode_ms=[r.decode_s * 1000.0 for r in good],
        wire_bytes=[r.wire_bytes for r in good],
    )


def summarize(rounds: list[Round]) -> dict[str, Summary]:
    """Every end-to-end metric over the *rounds* of one run."""
    per_round = [r.metrics() for r in rounds]
    return {
        name: Summary.of([m[name] for m in per_round], unit, better)
        for name, (unit, better) in END_TO_END.items()
    }
