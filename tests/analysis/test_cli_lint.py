"""End-to-end tests for ``repro lint``."""

import pytest

from repro.cli import main

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

BLOCKING_MODULE = """\
import threading


class Sender:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self.sock = sock

    def send(self, data):
        with self._lock:
            self.sock.sendall(data)
"""


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_MODULE)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN_MODULE)
    return str(path)


class TestExitCodes:
    def test_clean_file_exits_zero(self, clean_file, capsys):
        assert main(["lint", "--code", clean_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_file, capsys):
        assert main(["lint", "--code", bad_file]) == 1
        out = capsys.readouterr().out
        assert "COD003" in out
        assert "COD006" in out
        assert out.rstrip().endswith("2 findings")

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", "--code", str(tmp_path / "absent")]) == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        ["--select", "COD003"],
        ["--ignore", "COD003"],
        ["--workload", "movies"],
        ["--list-rules"],
        ["--format", "json"],
        ["--output", "report.json"],
        ["--baseline", "baseline.json"],
        ["--write-baseline", "baseline.json"],
        ["--fail-on", "error"],
        ["--no-hints"],
    ])
    def test_removed_options_are_usage_errors(self, clean_file, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--code", clean_file, *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConcurrencyFlag:
    @pytest.fixture
    def blocking_file(self, tmp_path):
        path = tmp_path / "sender.py"
        path.write_text(BLOCKING_MODULE)
        return str(path)

    def test_concurrency_family_finds_the_seeded_bug(
        self, blocking_file, capsys
    ):
        assert main(["lint", "--concurrency", blocking_file]) == 1
        assert "CON003" in capsys.readouterr().out

    def test_code_only_run_skips_con_rules(self, blocking_file, capsys):
        assert main(["lint", "--code", blocking_file]) == 0
        assert "CON003" not in capsys.readouterr().out

    def test_default_run_includes_all_families(self, blocking_file, capsys):
        assert main(["lint", blocking_file]) == 1
        payload_out = capsys.readouterr().out
        assert "CON003" in payload_out


class TestScenarioFlag:
    def test_scenario_run_skips_the_code_rules(self, bad_file, capsys):
        assert main(["lint", "--scenario", bad_file]) == 0
        assert "no findings" in capsys.readouterr().out
