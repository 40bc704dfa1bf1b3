"""The scenario rule family: a utility measure's declared flags, checked.

A *scenario* is what a mediator session orders plans over: a catalog,
a user query, and the utility measures the experiments run.  The
orderers trust a measure's declared structure without checking it:
Greedy and any-k need ``is_fully_monotonic``, Streamer needs
``has_diminishing_returns`` (paper, Section 3), and every interval
orderer needs ``evaluate_slots`` to bound ``evaluate``.

``SCN006 measure-property`` searches a deterministic sample of
concrete plans for a counterexample to each of those flags.  The same
checker is the test suite's measure-property oracle
(``tests/property/test_interval_soundness.py``): there it runs on
small synthetic spaces, which the sample covers exhaustively; here on
the bundled workloads.  A finding is a genuine counterexample, silence
on a sampled space is not a certificate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, Location
from repro.datalog.query import ConjunctiveQuery
from repro.errors import ReproError, UtilityError
from repro.reformulation.buckets import bucket_candidates
from repro.reformulation.plans import QueryPlan
from repro.sources.catalog import Catalog, SourceDescription
from repro.utility.base import UtilityMeasure
from repro.utility.intervals import Interval

#: How many concrete plans SCN006 samples per scenario; spaces up to
#: this size are enumerated whole.
_SAMPLE_PLANS = 64
#: How many sampled plans the execution walk records, one at a time.
_EXECUTED = 4
#: Relative tolerance for float comparisons in the checks.
_EPS = 1e-9


@dataclass
class ScenarioContext:
    """One lintable scenario: catalog + query + measures."""

    name: str
    catalog: Catalog
    query: ConjunctiveQuery
    measures: tuple[UtilityMeasure, ...] = ()
    _candidates: Optional[tuple[tuple[SourceDescription, ...], ...]] = field(
        default=None, repr=False, compare=False
    )

    def candidates(self) -> tuple[tuple[SourceDescription, ...], ...]:
        """Per-subgoal bucket members (memoized, non-raising)."""
        if self._candidates is None:
            self._candidates = bucket_candidates(self.query, self.catalog)
        return self._candidates


def _slack(*values: float) -> float:
    return _EPS * max(1.0, *(abs(value) for value in values))


def _contains(interval: Interval, value: float) -> bool:
    slack = _slack(interval.lo, interval.hi, value)
    return interval.lo - slack <= value <= interval.hi + slack


def _diagnostic(
    context: ScenarioContext,
    measure: UtilityMeasure,
    message: str,
) -> Diagnostic:
    return Diagnostic(
        rule="SCN006",
        message=f"measure {measure.name!r}: {message}",
        location=Location(context.name),
    )


def _sample_plans(context: ScenarioContext) -> list[QueryPlan]:
    """Up to ``_SAMPLE_PLANS`` concrete plans, deterministically."""
    candidates = context.candidates()
    if any(not members for members in candidates):
        return []
    size = 1
    for members in candidates:
        size *= len(members)
    if size <= _SAMPLE_PLANS:
        return [QueryPlan(combo) for combo in itertools.product(*candidates)]
    rng = random.Random(0)
    plans: dict[tuple[str, ...], QueryPlan] = {}
    while len(plans) < _SAMPLE_PLANS:
        plan = QueryPlan(tuple(rng.choice(members) for members in candidates))
        plans.setdefault(plan.key, plan)
    return list(plans.values())


def _supports_model(
    context: ScenarioContext,
    measure: UtilityMeasure,
    plans: Sequence[QueryPlan],
) -> bool:
    """Can the measure evaluate this scenario's plans at all?"""
    try:
        fresh = measure.new_context()
        measure.evaluate(plans[0], fresh)
        measure.evaluate_slots(context.candidates(), fresh)
    except ReproError:
        return False
    return True


def _check_point_slots(
    context: ScenarioContext,
    measure: UtilityMeasure,
    plans: Sequence[QueryPlan],
) -> Iterator[Diagnostic]:
    """Slots holding one source each must evaluate to that plan's point."""
    fresh = measure.new_context()
    for plan in plans:
        value = measure.evaluate(plan, fresh)
        interval = measure.evaluate_slots(
            tuple((source,) for source in plan.sources), fresh
        )
        slack = _slack(interval.lo, interval.hi, value)
        if abs(interval.lo - value) <= slack and abs(interval.hi - value) <= slack:
            continue
        yield _diagnostic(
            context,
            measure,
            f"slots restricted to plan {plan} evaluate to {interval}, not "
            f"to the plan's own utility {value:g}",
        )
        return  # one counterexample per check is enough


def _check_executions(
    context: ScenarioContext,
    measure: UtilityMeasure,
    plans: Sequence[QueryPlan],
) -> Iterator[Diagnostic]:
    """Walk one execution context from empty through ``_EXECUTED`` plans.

    At every step ``evaluate_slots`` over the whole space must bound
    every sampled plan; from one step to the next a context-free
    measure's values must hold still, and one with diminishing returns
    must never rise.
    """
    slots = context.candidates()
    executed = measure.new_context()
    found: dict[str, Diagnostic] = {}
    previous: list[float] = []
    for step in range(min(_EXECUTED, len(plans)) + 1):
        if step:
            executed.record(plans[step - 1])
        interval = measure.evaluate_slots(slots, executed)
        values = [measure.evaluate(plan, executed) for plan in plans]
        for plan, value in zip(plans, values):
            if "interval" in found or _contains(interval, value):
                continue
            found["interval"] = _diagnostic(
                context,
                measure,
                f"interval evaluation is unsound: after {step} "
                f"execution(s) evaluate_slots gave {interval} but plan "
                f"{plan} evaluates to {value:g}",
            )
        for plan, before, after in zip(plans, previous, values):
            if (
                measure.context_free
                and "context_free" not in found
                and abs(after - before) > _slack(before, after)
            ):
                found["context_free"] = _diagnostic(
                    context,
                    measure,
                    f"claims context freeness but plan {plan} moves from "
                    f"{before:g} to {after:g} when execution {step} is "
                    f"recorded",
                )
            if (
                measure.has_diminishing_returns
                and "diminishing" not in found
                and after > before + _slack(before, after)
            ):
                found["diminishing"] = _diagnostic(
                    context,
                    measure,
                    f"claims diminishing returns but plan {plan} improves "
                    f"from {before:g} to {after:g} when execution {step} "
                    f"is recorded",
                )
        previous = values
    yield from found.values()


def _check_full_monotonicity(
    context: ScenarioContext,
    measure: UtilityMeasure,
    plans: Sequence[QueryPlan],
) -> Iterator[Diagnostic]:
    """Upgrading any bucket to its preferred source never lowers utility.

    This is the exchange argument Greedy stands on: per bucket, the
    source with the best preference key composes into the best plan.
    """
    candidates = context.candidates()
    try:
        keys = [
            {
                source.name: measure.source_preference_key(bucket, source)
                for source in members
            }
            for bucket, members in enumerate(candidates)
        ]
    except UtilityError as exc:
        yield _diagnostic(
            context,
            measure,
            f"claims full monotonicity but defines no source preference "
            f"key ({exc})",
        )
        return
    preferred = [
        max(members, key=lambda s: (keys[bucket][s.name], s.name))
        for bucket, members in enumerate(candidates)
    ]
    fresh = measure.new_context()
    for plan in plans:
        before = measure.evaluate(plan, fresh)
        for bucket, best in enumerate(preferred):
            current = plan.sources[bucket]
            if keys[bucket][best.name] <= keys[bucket][current.name]:
                continue
            upgraded = QueryPlan(
                plan.sources[:bucket] + (best,) + plan.sources[bucket + 1 :]
            )
            after = measure.evaluate(upgraded, fresh)
            if after >= before - _slack(before, after):
                continue
            yield _diagnostic(
                context,
                measure,
                f"full monotonicity violated: in bucket {bucket}, "
                f"{best.name!r} is preferred over {current.name!r} yet "
                f"swapping it into plan {plan} lowers utility by "
                f"{before - after:g}",
            )
            return


def check_measure_properties(context: ScenarioContext) -> Iterator[Diagnostic]:
    """SCN006: a utility measure's declared structural flags fail a sampled check.

    The orderers trust evaluate_slots, is_fully_monotonic, context_free
    and has_diminishing_returns blindly (Greedy and Streamer are unsound
    without them); a sampled counterexample proves a flag is a lie.
    """
    plans = _sample_plans(context)
    if not plans:
        return
    for measure in context.measures:
        if not _supports_model(context, measure, plans):
            continue
        yield from _check_point_slots(context, measure, plans)
        yield from _check_executions(context, measure, plans)
        if measure.is_fully_monotonic:
            yield from _check_full_monotonicity(context, measure, plans)
