"""Static analysis for the repro codebase and its scenarios.

The package hosts a shared diagnostics core (the finding record and a
text report) and three rule families, each a tuple of checkers:

* the **scenario linter** (:mod:`repro.analysis.scenario`) spot-checks
  each utility measure's declared structural flags on the bundled
  workloads — the same checker the property tests use as their oracle;
* the **code linter** (:mod:`repro.analysis.code_rules`) enforces this
  repo's concurrency and contract discipline on the source tree —
  lock discipline, the lazy-orderer contract, production asserts,
  swallowed broad excepts, bare sleeps, and library prints;
* the **concurrency analyzer** (:mod:`repro.analysis.concurrency`)
  joins every module into one program model and reports lock-order
  deadlock cycles, thread-escaping unguarded state, blocking calls
  under held mutexes, and journal emit sites off the event schema.

Entry points: ``repro lint`` on the command line, or
:func:`repro.analysis.runner.run_lint` programmatically.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    render_text,
    sort_diagnostics,
    summarize,
)
from repro.analysis.runner import (
    BUILTIN_SCENARIOS,
    builtin_scenarios,
    lint_code,
    lint_concurrency,
    lint_scenarios,
    load_modules,
    run_lint,
)
from repro.analysis.scenario import ScenarioContext

__all__ = [
    "BUILTIN_SCENARIOS",
    "Diagnostic",
    "Location",
    "ScenarioContext",
    "builtin_scenarios",
    "lint_code",
    "lint_concurrency",
    "lint_scenarios",
    "load_modules",
    "render_text",
    "run_lint",
    "sort_diagnostics",
    "summarize",
]
