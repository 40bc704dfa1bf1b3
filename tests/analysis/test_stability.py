"""Determinism of the lint pipeline.

CI gates on the text report, so a double run over identical inputs
must render **byte-identical** output — no set-iteration order,
timestamps, or ids may leak into the report.
"""

from repro.analysis.astutils import CodeModule
from repro.analysis.diagnostics import render_text
from repro.analysis.runner import lint_concurrency, run_lint

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
        assert reports[0].endswith("1 warning")

    def test_diagnostics_come_out_in_canonical_order(self):
        ordering = [
            (d.location.file, d.location.line, d.rule)
            for d in lint_fixture()
        ]
        assert ordering == sorted(ordering)
