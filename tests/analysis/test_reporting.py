"""Tests for the text report."""

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    render_text,
    summarize,
)


def make(message="m", file="f.py", line=3):
    return Diagnostic(rule="COD999", message=message, location=Location(file, line))


class TestSummarize:
    def test_empty(self):
        assert summarize([]) == "no findings"

    def test_counts_the_findings(self):
        assert summarize([make(), make()]) == "2 findings"

    def test_singular_noun(self):
        assert summarize([make()]) == "1 finding"


class TestRenderText:
    def test_one_line_per_finding_plus_trailer(self):
        text = render_text([make(message="first"), make(message="second")])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[-1] == "2 findings"

    def test_findings_come_out_sorted(self):
        text = render_text([
            make(file="z.py", message="later"),
            make(file="a.py", message="earlier"),
        ])
        assert text.index("a.py") < text.index("z.py")
