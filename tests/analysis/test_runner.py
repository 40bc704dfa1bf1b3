"""Tests for target discovery and family orchestration."""

import pytest

from repro.analysis.runner import (
    BUILTIN_SCENARIOS,
    builtin_scenarios,
    discover_python_files,
    lint_code,
    lint_scenarios,
    load_modules,
    run_lint,
)
from repro.errors import AnalysisError

BAD_MODULE = """\
import time


def pick(items):
    time.sleep(0.1)
    assert items
    return items[0]
"""

CLEAN_MODULE = """\
def pick(items):
    if not items:
        return None
    return items[0]
"""


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "bad.py").write_text(BAD_MODULE)
    (tmp_path / "pkg" / "clean.py").write_text(CLEAN_MODULE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python")
    return tmp_path


class TestDiscovery:
    def test_walks_directories_for_python_files(self, tree):
        files = discover_python_files([str(tree)])
        names = [f.rsplit("/", 1)[-1] for f in files]
        assert names == ["bad.py", "clean.py"]

    def test_accepts_single_files(self, tree):
        target = str(tree / "pkg" / "bad.py")
        assert discover_python_files([target]) == [target]

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such file"):
            discover_python_files([str(tmp_path / "absent")])


class TestLintCode:
    def test_reports_findings_with_real_locations(self, tree):
        diagnostics = lint_code(load_modules([str(tree)]))
        assert [d.rule for d in diagnostics] == ["COD006", "COD003"]
        assert all("bad.py" in d.location.file for d in diagnostics)


class TestScenarioFamily:
    def test_bundled_scenarios_are_clean(self):
        # The shipped workloads' measures hold to their declared flags.
        contexts = builtin_scenarios()
        assert lint_scenarios(contexts) == []
        assert {c.name for c in contexts} == set(BUILTIN_SCENARIOS)


class TestRunLint:
    def test_combines_families(self, tree):
        diagnostics = run_lint(
            code_paths=[str(tree)],
            run_code=True,
            run_scenarios=True,
        )
        assert [d.rule for d in diagnostics] == ["COD006", "COD003"]
