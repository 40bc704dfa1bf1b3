"""The shared diagnostics vocabulary of the static-analysis layer.

Every rule family — the scenario linter over catalogs/queries, the AST
lint pass over the codebase and the whole-program concurrency pass —
reports its findings as :class:`Diagnostic` records: rule id, severity,
location, message, and an optional fix hint.  :func:`render_text` is
the one report format.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class Severity(enum.IntEnum):
    """Finding severities, ordered so comparisons mean what they say.

    Both fail a lint run; the severity only says how sure the rule is
    that the finding is a defect.
    """

    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Location:
    """Where a finding points.

    For code findings ``file`` is a path and ``line``/``column`` are
    1-based source coordinates.  For scenario findings ``file`` is the
    scenario name (e.g. ``movies``) and ``line`` stays 0 — scenarios
    are objects, not text.
    """

    file: str
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        if self.line:
            if self.column:
                return f"{self.file}:{self.line}:{self.column}"
            return f"{self.file}:{self.line}"
        return self.file


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule at one location."""

    rule: str
    severity: Severity
    message: str
    location: Location
    fix_hint: str = ""
    #: Extra structured context (plan keys, source names, ...).
    data: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        text = f"{self.location}: {self.rule} {self.severity}: {self.message}"
        if self.fix_hint:
            text += f"  [hint: {self.fix_hint}]"
        return text


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Canonical order: by file, then line/column, then rule id."""
    return sorted(
        diagnostics,
        key=lambda d: (
            d.location.file,
            d.location.line,
            d.location.column,
            d.rule,
            d.message,
        ),
    )


def summarize(diagnostics: Sequence[Diagnostic]) -> str:
    """``2 errors, 1 warning`` — or ``no findings``."""
    if not diagnostics:
        return "no findings"
    counts = Counter(d.severity for d in diagnostics)
    parts = []
    for severity in sorted(counts, reverse=True):
        n = counts[severity]
        noun = str(severity) + ("s" if n != 1 else "")
        parts.append(f"{n} {noun}")
    return ", ".join(parts)


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """One finding per line, canonical order, summary trailer."""
    lines = [str(d) for d in sort_diagnostics(diagnostics)]
    lines.append(summarize(diagnostics))
    return "\n".join(lines)
