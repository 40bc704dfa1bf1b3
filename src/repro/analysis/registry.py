"""The rule table: every lint rule, all three families, in one catalog.

A rule is a metadata record (:class:`Rule`) carrying its checker.  Code
checkers receive a :class:`~repro.analysis.astutils.CodeModule`;
concurrency checkers the joined
:class:`~repro.analysis.concurrency.model.ProgramModel`; scenario
checkers a :class:`~repro.analysis.scenario.ScenarioContext`.  All
return an iterable of :class:`~repro.analysis.diagnostics.Diagnostic`.

Rule selection follows the familiar ``--select``/``--ignore``
convention: a pattern matches a rule when it equals the rule's id or
slug, or is a prefix of the id (so ``COD`` selects every code rule).
``--ignore`` wins over ``--select``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import AnalysisError
from repro.analysis.diagnostics import Diagnostic, Severity

#: Checker signature: context object in, diagnostics out.
Checker = Callable[[object], Iterable[Diagnostic]]

FAMILY_CODE = "code"
FAMILY_SCENARIO = "scenario"
FAMILY_CONCURRENCY = "concurrency"


@dataclass(frozen=True)
class Rule:
    """One lint rule: its metadata and its checker."""

    id: str
    slug: str
    family: str
    severity: Severity
    summary: str
    rationale: str
    check: Checker = field(compare=False, repr=False)

    def matches(self, pattern: str) -> bool:
        pattern = pattern.strip()
        if not pattern:
            return False
        return (
            pattern == self.slug
            or self.id.upper().startswith(pattern.upper())
        )


#: Every shipped rule by id, filled by :func:`rule` as the rule
#: modules are imported.
RULES: dict[str, Rule] = {}


def rule(
    rule_id: str,
    slug: str,
    family: str,
    severity: Severity,
    summary: str,
    rationale: str,
) -> Callable[[Checker], Checker]:
    """Decorator adding a checker to :data:`RULES` under the metadata."""

    def decorate(checker: Checker) -> Checker:
        if rule_id in RULES:
            raise AnalysisError(f"duplicate rule id {rule_id!r}")
        if any(r.slug == slug for r in RULES.values()):
            raise AnalysisError(f"duplicate rule slug {slug!r}")
        RULES[rule_id] = Rule(
            rule_id, slug, family, severity, summary, rationale, checker
        )
        return checker

    return decorate


def select_rules(
    family: str,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> tuple[Rule, ...]:
    """The rules of *family* to run under ``--select``/``--ignore``.

    Unknown patterns are an error — a typo in ``--select`` silently
    running nothing is the worst failure mode a linter can have.
    """
    shipped = [RULES[rule_id] for rule_id in sorted(RULES)]
    for pattern in (*select, *ignore):
        if not any(r.matches(pattern) for r in shipped):
            known = ", ".join(f"{r.id} ({r.slug})" for r in shipped)
            raise AnalysisError(
                f"pattern {pattern!r} matches no rule; known rules: {known}"
            )
    return tuple(
        r
        for r in shipped
        if r.family == family
        and (not select or any(r.matches(p) for p in select))
        and not any(r.matches(p) for p in ignore)
    )
