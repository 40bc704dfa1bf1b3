"""The shared diagnostics vocabulary of the static-analysis layer.

Every rule family — the scenario linter over catalogs/queries, the AST
lint pass over the codebase and the whole-program concurrency pass —
reports its findings as :class:`Diagnostic` records: rule id, location
and message.  Any finding fails a lint run.  :func:`render_text` is the
one report format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


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
    message: str
    location: Location

    def __str__(self) -> str:
        return f"{self.location}: {self.rule}: {self.message}"


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
    """``2 findings`` — or ``no findings``."""
    if not diagnostics:
        return "no findings"
    count = len(diagnostics)
    return f"{count} finding" + ("s" if count != 1 else "")


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """One finding per line, canonical order, summary trailer."""
    lines = [str(d) for d in sort_diagnostics(diagnostics)]
    lines.append(summarize(diagnostics))
    return "\n".join(lines)
