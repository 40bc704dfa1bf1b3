"""The whole-program concurrency rule family (CON001–CON004).

A two-phase pass over the entire source tree:

1. **fact extraction** (:mod:`~repro.analysis.concurrency.facts`) —
   each module is independently reduced to lock attributes, per-method
   acquisition/access/call/blocking summaries, thread spawns, and
   journal emit sites;
2. **whole-program solve** (:mod:`~repro.analysis.concurrency.model`)
   — the facts are joined into one :class:`ProgramModel`: lock aliases
   unified, the call graph resolved, may-acquire/may-block summaries
   closed, and the lock-order graph built.

The rules (:mod:`~repro.analysis.concurrency.rules`,
:mod:`~repro.analysis.concurrency.contracts`) then read the model:
deadlock cycles (CON001), thread-escaping unguarded state (CON002),
blocking under a held mutex (CON003), and conformance of journal
emit sites to the live event schema (CON004).

Entry point: :func:`build_model` — or ``repro lint --concurrency``
from the command line.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.astutils import CodeModule
from repro.analysis.concurrency.contracts import check_journal_contract
from repro.analysis.concurrency.facts import ModuleFacts, extract_module
from repro.analysis.concurrency.model import ProgramModel
from repro.analysis.concurrency.rules import (
    check_blocking_under_lock,
    check_potential_deadlock,
    check_unguarded_shared_state,
)

__all__ = [
    "CONCURRENCY_RULES",
    "ModuleFacts",
    "ProgramModel",
    "build_model",
    "extract_module",
]

#: The concurrency family, run once over the joined model.
CONCURRENCY_RULES = (
    check_potential_deadlock,
    check_unguarded_shared_state,
    check_blocking_under_lock,
    check_journal_contract,
)


def build_model(modules: Iterable[CodeModule]) -> ProgramModel:
    """Run both phases over already-parsed modules."""
    return ProgramModel(extract_module(module) for module in modules)
