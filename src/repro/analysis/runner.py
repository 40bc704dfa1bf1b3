"""Orchestration: discover targets, run the rule families.

The runner is what ``repro lint`` calls: it parses Python files for the
code and concurrency families, builds the bundled scenarios for the
scenario family, runs every rule of each chosen family, and returns
the diagnostics in canonical order.  Any finding fails the run; an
:class:`~repro.errors.AnalysisError` means the analysis itself could
not run (a missing path, an unreadable or unparsable file).
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Sequence

from repro.analysis.astutils import CodeModule
from repro.analysis.code_rules import CODE_RULES
from repro.analysis.concurrency import CONCURRENCY_RULES, build_model
from repro.analysis.diagnostics import Diagnostic, sort_diagnostics
from repro.analysis.scenario import ScenarioContext, check_measure_properties
from repro.errors import AnalysisError
from repro.workloads.cameras import camera_domain
from repro.workloads.domain import Domain
from repro.workloads.movies import movie_domain
from repro.workloads.paper_example import paper_example
from repro.workloads.random_lav import ordering_scenario
from repro.workloads.synthetic import generate_domain


def discover_python_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            found.add(path)
        elif os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for name in files:
                    if name.endswith(".py"):
                        found.add(os.path.join(root, name))
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return sorted(found)


def load_modules(paths: Sequence[str]) -> list[CodeModule]:
    """Parse every ``.py`` file under *paths*."""
    return [CodeModule.from_file(path) for path in discover_python_files(paths)]


def lint_code(modules: Sequence[CodeModule]) -> list[Diagnostic]:
    """Run the per-file code rules over parsed modules."""
    return sort_diagnostics(
        diagnostic
        for module in modules
        for check in CODE_RULES
        for diagnostic in check(module)
    )


def lint_concurrency(modules: Sequence[CodeModule]) -> list[Diagnostic]:
    """Run the whole-program concurrency pass over parsed modules.

    Unlike the per-file code family, all modules are reduced to facts
    first and the rules run once over the joined
    :class:`~repro.analysis.concurrency.model.ProgramModel`.
    """
    model = build_model(modules)
    return sort_diagnostics(
        diagnostic for check in CONCURRENCY_RULES for diagnostic in check(model)
    )


def lint_scenarios(contexts: Sequence[ScenarioContext]) -> list[Diagnostic]:
    """Run the scenario rule over scenario contexts."""
    return sort_diagnostics(
        diagnostic
        for context in contexts
        for diagnostic in check_measure_properties(context)
    )


# -- the bundled scenarios ---------------------------------------------------------


#: The bundled workloads ``repro lint --scenario`` checks: how to build
#: each domain, and which of its measures to check.
BUILTIN_SCENARIOS: dict[str, tuple[Callable[[], Domain], tuple[str, ...]]] = {
    "movies": (movie_domain, ("linear", "bind-join", "failure")),
    "cameras": (camera_domain, ("linear", "bind-join", "coverage")),
    "paper-example": (paper_example, ("linear", "coverage")),
    "synthetic": (
        partial(generate_domain, bucket_size=12, query_length=2, seed=3),
        ("linear", "bind-join", "coverage", "failure", "monetary"),
    ),
    "random-lav": (
        partial(ordering_scenario, 0),
        ("linear", "bind-join", "coverage"),
    ),
}


def builtin_scenarios() -> list[ScenarioContext]:
    """Every bundled scenario, built."""
    built = []
    for name, (make, measure_names) in BUILTIN_SCENARIOS.items():
        domain = make()
        measures = tuple(map(domain.measure, measure_names))
        built.append(ScenarioContext(name, domain.catalog, domain.query, measures))
    return built


def run_lint(
    *,
    code_paths: Sequence[str] = ("src/repro",),
    run_code: bool = False,
    run_scenarios: bool = False,
    run_concurrency: bool = False,
) -> list[Diagnostic]:
    """One ``repro lint`` invocation: the chosen families, one report."""
    diagnostics: list[Diagnostic] = []
    if run_code or run_concurrency:
        modules = load_modules(code_paths)
        if run_code:
            diagnostics.extend(lint_code(modules))
        if run_concurrency:
            diagnostics.extend(lint_concurrency(modules))
    if run_scenarios:
        diagnostics.extend(lint_scenarios(builtin_scenarios()))
    return sort_diagnostics(diagnostics)
