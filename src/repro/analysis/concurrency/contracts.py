"""CON004: journal emit sites checked against the live schema.

Rather than keeping a parallel copy of the contract, the checker
imports the real table at check time — :data:`EVENT_SCHEMA` from
:mod:`repro.observability.journal` — so the linter can never drift
from the runtime validator.  Every ``journal.emit("<event>", ...)``
call site must name a schema event and pass its required fields as
literal keywords.  Sites with a dynamic event name or ``**kwargs`` are
skipped (the runtime validator owns those).  The journal does not
validate on emit, so a bad site on a path no test drives surfaces only
in the tooling that reads the journal later.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.concurrency.model import ProgramModel
from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.registry import FAMILY_CONCURRENCY, rule


@rule(
    "CON004",
    "journal-contract",
    FAMILY_CONCURRENCY,
    Severity.ERROR,
    "journal.emit call site violates EVENT_SCHEMA",
    "The journal schema is a contract with external log tooling; an "
    "unknown event type or a missing required field breaks that "
    "tooling on exactly the code path that is already failing — catch "
    "it statically instead.",
)
def check_journal_contract(model: ProgramModel) -> Iterator[Diagnostic]:
    from repro.observability.journal import EVENT_SCHEMA

    for module in model.modules:
        for site in module.emits:
            if site.event is None:
                continue  # dynamic event name: runtime validator owns it
            required = EVENT_SCHEMA.get(site.event)
            if required is None:
                yield Diagnostic(
                    rule="CON004",
                    severity=Severity.ERROR,
                    message=(
                        f"journal event {site.event!r} is not in "
                        f"EVENT_SCHEMA (emitted via {site.receiver})"
                    ),
                    location=Location(module.path, site.line),
                    fix_hint="add the event type to EVENT_SCHEMA or fix "
                    "the typo; the vocabulary is closed by design",
                    data={"event": site.event},
                )
                continue
            if site.has_dynamic:
                continue  # **kwargs may supply the rest
            missing = sorted(
                required - site.literal_kwargs - {"request_id"}
            )
            if missing:
                yield Diagnostic(
                    rule="CON004",
                    severity=Severity.ERROR,
                    message=(
                        f"journal event {site.event!r} emitted without "
                        f"required field(s) {', '.join(missing)}"
                    ),
                    location=Location(module.path, site.line),
                    fix_hint="pass every field EVENT_SCHEMA requires as "
                    "a literal keyword argument",
                    data={"event": site.event, "missing": missing},
                )
