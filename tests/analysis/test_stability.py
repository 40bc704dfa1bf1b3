"""Determinism of the lint pipeline.

CI gates on the text report, so a double run over identical inputs
must render **byte-identical** output — no set-iteration order,
timestamps, or ids may leak into the report.
"""

from collections import Counter
from pathlib import Path

import repro
from repro.analysis.astutils import CodeModule
from repro.analysis.concurrency import build_model
from repro.analysis.concurrency.rules import _thread_entries
from repro.analysis.diagnostics import render_text
from repro.analysis.runner import lint_concurrency, load_modules, run_lint

BUGGY_SRC = '''
import threading


class Sender:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self.sock = sock
        self.sent = 0

    def send(self, data):
        with self._lock:
            self.sock.sendall(data)
            self.sent += 1
'''


def lint_fixture(source=BUGGY_SRC):
    return lint_concurrency([CodeModule.from_source(source, "fx/sender.py")])


class TestDoubleRunIdentity:
    def test_fixture_reports_are_byte_identical(self):
        first = lint_fixture()
        second = lint_fixture()
        assert first, "fixture must produce findings for this to mean much"
        assert render_text(first) == render_text(second)

    def test_real_tree_run_is_byte_identical(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(BUGGY_SRC)
        reports = [
            render_text(
                run_lint(
                    code_paths=(str(target),),
                    run_code=True,
                    run_concurrency=True,
                )
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert reports[0].endswith("1 finding")

    def test_the_trees_program_model_is_pinned(self):
        # What docs/analysis.md quotes of ``lint --concurrency src/repro``,
        # and the oracle that deleting an analyzer mechanism left the
        # model of the real tree as it was.
        model = build_model(load_modules([str(Path(repro.__file__).parent)]))
        assert model.kinds == {
            "BreakerBoard._lock": "lock",
            "ChaosBackend._lock": "lock",
            "CircuitBreaker._lock": "rlock",
            "ClusterSupervisor._lock": "lock",
            "EventJournal._lock": "lock",
            "HealthEpoch._lock": "lock",
            "MetricRegistry._lock": "lock",
            "QueryService._measure_lock": "lock",
            "QueryService._permits": "semaphore",
            "QueryService._places": "semaphore",
            "QueryService._prepared_lock": "lock",
            "ResilienceManager._seen_lock": "lock",
            "SourceHealthTracker._lock": "lock",
            "_Cursor._lock": "lock",
            "_SessionRun.cond": "condition",
        }
        acquired = {node for nodes in model.may_acquire.values() for node in nodes}
        assert len(acquired) == 13
        assert acquired < set(model.kinds)
        assert sorted(model.edges) == [
            ("QueryService._measure_lock", "MetricRegistry._lock")
        ]
        assert sorted(
            f"{cls}.{method}"
            for cls, methods in _thread_entries(model).items()
            for method in methods
        ) == [
            "ClusterSupervisor._probe_loop",
            "PipelinedSession._pipeline.produce",
            "PipelinedSession._pipeline.work",
            "_ClientWorker.run",
        ]
        assert Counter(
            blocker.kind
            for method in model.methods.values()
            for blocker in method.blocking
        ) == {"socket I/O": 6, "join": 1}

    def test_diagnostics_come_out_in_canonical_order(self):
        ordering = [
            (d.location.file, d.location.line, d.rule)
            for d in lint_fixture()
        ]
        assert ordering == sorted(ordering)
