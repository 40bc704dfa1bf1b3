"""Orchestration: discover targets, run rule families, filter allows.

The runner is what ``repro lint`` calls: it parses Python files for the
code and concurrency families, builds the bundled scenarios for the
scenario family, applies ``--select``/``--ignore`` and inline
``# lint: allow[...]`` suppressions, and returns the surviving
diagnostics in canonical order.  Any finding fails the run; an
:class:`~repro.errors.AnalysisError` means the analysis itself could
not run (bad pattern, unreadable file, unknown scenario).
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Iterable, Sequence

# Importing the rule modules registers their checkers (the concurrency
# and scenario ones come with build_model and ScenarioContext below).
from repro.analysis import code_rules as _code_rules  # noqa: F401
from repro.analysis.astutils import CodeModule
from repro.analysis.concurrency import build_model
from repro.analysis.diagnostics import Diagnostic, sort_diagnostics
from repro.analysis.registry import (
    FAMILY_CODE,
    FAMILY_CONCURRENCY,
    FAMILY_SCENARIO,
    Rule,
    select_rules,
)
from repro.analysis.scenario import ScenarioContext
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
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                for name in files:
                    if name.endswith(".py"):
                        found.add(os.path.join(root, name))
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return sorted(found)


def load_modules(paths: Sequence[str]) -> list[CodeModule]:
    """Parse every ``.py`` file under *paths*."""
    return [CodeModule.from_file(path) for path in discover_python_files(paths)]


def _unsuppressed(
    modules: Sequence[CodeModule],
    findings: Iterable[tuple[Rule, Diagnostic]],
) -> list[Diagnostic]:
    """Drop findings an inline ``# lint: allow[...]`` covers."""
    by_path = {module.path: module for module in modules}
    kept = []
    for rule, diagnostic in findings:
        module = by_path.get(diagnostic.location.file)
        if module is not None and module.allowed(
            diagnostic.location.line, rule.id, rule.slug
        ):
            continue
        kept.append(diagnostic)
    return sort_diagnostics(kept)


def lint_code(
    modules: Sequence[CodeModule],
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> list[Diagnostic]:
    """Run the per-file code rules over parsed modules."""
    rules = select_rules(FAMILY_CODE, select, ignore)
    return _unsuppressed(
        modules,
        (
            (rule, diagnostic)
            for module in modules
            for rule in rules
            for diagnostic in rule.check(module)
        ),
    )


def lint_concurrency(
    modules: Sequence[CodeModule],
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> list[Diagnostic]:
    """Run the whole-program concurrency pass over parsed modules.

    Unlike the per-file code family, all modules are reduced to facts
    first and the rules run once over the joined
    :class:`~repro.analysis.concurrency.model.ProgramModel`.
    """
    rules = select_rules(FAMILY_CONCURRENCY, select, ignore)
    if not rules:
        return []
    model = build_model(modules)
    return _unsuppressed(
        modules,
        ((rule, diagnostic) for rule in rules for diagnostic in rule.check(model)),
    )


def lint_scenarios(
    contexts: Sequence[ScenarioContext],
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> list[Diagnostic]:
    """Run the scenario rules over scenario contexts."""
    rules = select_rules(FAMILY_SCENARIO, select, ignore)
    return sort_diagnostics(
        diagnostic
        for context in contexts
        for rule in rules
        for diagnostic in rule.check(context)
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


def builtin_scenarios(names: Sequence[str] = ()) -> list[ScenarioContext]:
    """The named bundled scenarios (all of them by default)."""
    built = []
    for name in names or BUILTIN_SCENARIOS:
        try:
            make, measure_names = BUILTIN_SCENARIOS[name]
        except KeyError:
            known = ", ".join(sorted(BUILTIN_SCENARIOS))
            raise AnalysisError(
                f"unknown scenario {name!r}; bundled scenarios: {known}"
            ) from None
        domain = make()
        measures = tuple(map(domain.measure, measure_names))
        built.append(ScenarioContext(name, domain.catalog, domain.query, measures))
    return built


def run_lint(
    *,
    code_paths: Sequence[str] = ("src/repro",),
    scenario_names: Sequence[str] = (),
    run_code: bool = False,
    run_scenarios: bool = False,
    run_concurrency: bool = False,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> list[Diagnostic]:
    """One ``repro lint`` invocation: the chosen families, one report."""
    diagnostics: list[Diagnostic] = []
    if run_code or run_concurrency:
        modules = load_modules(code_paths)
        if run_code:
            diagnostics.extend(lint_code(modules, select, ignore))
        if run_concurrency:
            diagnostics.extend(lint_concurrency(modules, select, ignore))
    if run_scenarios:
        diagnostics.extend(
            lint_scenarios(builtin_scenarios(scenario_names), select, ignore)
        )
    return sort_diagnostics(diagnostics)
