"""CON004: journal emit sites checked against the live schema.

Rather than keeping a parallel copy of the contract, the checker
imports the real table at check time — :data:`EVENT_SCHEMA` from
:mod:`repro.observability.journal` — so the linter can never drift
from the runtime validator.  Every ``.emit("<event>", ...)`` call site
naming a schema event must pass that event's required fields as
literal keywords.  Sites with a dynamic event name, or an event the
schema does not know, are skipped.  The journal does not validate on
emit, so a bad site on a path no test drives surfaces only in the
tooling that reads the journal later.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.concurrency.model import ProgramModel
from repro.analysis.diagnostics import Diagnostic, Location


def check_journal_contract(model: ProgramModel) -> Iterator[Diagnostic]:
    """CON004: a journal event emitted without a field its schema requires.

    The journal schema is a contract with external log tooling; a
    missing required field breaks that tooling on exactly the code path
    that is already failing — catch it statically instead.
    """
    from repro.observability.journal import EVENT_SCHEMA

    for module in model.modules:
        for site in module.emits:
            missing = sorted(EVENT_SCHEMA.get(site.event, set()) - site.literal_kwargs)
            if missing:
                yield Diagnostic(
                    rule="CON004",
                    message=f"journal event {site.event!r} emitted without "
                    f"required field(s) {', '.join(missing)}",
                    location=Location(module.path, site.line),
                )
