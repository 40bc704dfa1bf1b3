"""Tests for the text report."""

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    render_text,
    summarize,
)


def make(severity=Severity.WARNING, message="m", file="f.py", line=3,
         fix_hint=""):
    return Diagnostic(
        rule="COD999",
        severity=severity,
        message=message,
        location=Location(file, line),
        fix_hint=fix_hint,
    )


class TestSummarize:
    def test_empty(self):
        assert summarize([]) == "no findings"

    def test_counts_by_severity_worst_first(self):
        text = summarize([
            make(Severity.WARNING),
            make(Severity.ERROR),
            make(Severity.ERROR),
        ])
        assert text == "2 errors, 1 warning"

    def test_singular_noun(self):
        assert summarize([make(Severity.ERROR)]) == "1 error"


class TestRenderText:
    def test_one_line_per_finding_plus_trailer(self):
        text = render_text([make(message="first"), make(message="second")])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[-1] == "2 warnings"

    def test_findings_come_out_sorted(self):
        text = render_text([
            make(file="z.py", message="later"),
            make(file="a.py", message="earlier"),
        ])
        assert text.index("a.py") < text.index("z.py")

    def test_hints_follow_the_message(self):
        text = render_text([make(message="boom", fix_hint="try harder")])
        assert "boom  [hint: try harder]" in text
