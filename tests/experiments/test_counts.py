"""EXPERIMENTS.md's evaluation counts against their generator.

Every count table in EXPERIMENTS.md is produced by
:mod:`repro.experiments.counts`.  Its cheap rows are recomputed here and
diffed against the file cell for cell (CI's ``paper-counts`` job diffs
every row), and the paper's Section 6 claims are asserted on the same
numbers.
"""

from pathlib import Path

import pytest

from repro.experiments import counts
from repro.experiments.figure6 import main as figure6_main

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
TABLES = {table.name: table for table in counts.TABLES}


@pytest.fixture(scope="module")
def generated():
    return counts.generate(cheap=True)


def rows(generated, name):
    return generated[TABLES[name]]


@pytest.mark.parametrize("table", counts.TABLES, ids=lambda table: table.name)
def test_cheap_rows_match_experiments_md(generated, table):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    assert counts.check(text, {table: generated[table]}) == []


class TestPaperClaims:
    """Section 6's shapes, on the counts EXPERIMENTS.md records."""

    @pytest.mark.parametrize("name", ["coverage", "failure"])
    def test_streamer_evaluates_least_for_the_first_plans(self, generated, name):
        for pi, idrips, streamer in rows(generated, name).values():
            assert streamer <= idrips < pi

    def test_idrips_evaluates_less_than_pi_under_caching(self, generated):
        for pi, idrips in rows(generated, "caching").values():
            assert idrips < pi

    def test_streamer_first_iteration_is_under_four_percent_of_pi(self, generated):
        for streamer, pi, _share in rows(generated, "first-iteration").values():
            assert streamer < 0.04 * pi

    def test_pi_pays_the_product_as_queries_grow(self, generated):
        for (length,), (pi, idrips, streamer) in rows(generated, "query-length").items():
            assert pi == 8 ** int(length)
            assert streamer < idrips

    def test_drips_evaluates_fewer_plans_than_brute_force(self, generated):
        for plans, concrete, _total in rows(generated, "drips").values():
            assert concrete < plans

    def test_greedy_is_flat_in_bucket_size(self, generated):
        for (bucket,), (greedy, pi) in rows(generated, "greedy").items():
            assert greedy <= 1 + 10 * 3  # 1 + k * width
            assert pi == int(bucket) ** 3


FAKE = counts.CountTable(
    "fake",
    ("k", "A"),
    (
        counts.CountRow(("1",), lambda: (5,)),
        counts.CountRow(("100",), lambda: (7,), cheap=False),
    ),
)
DOC = (
    "intro\n"
    "<!-- counts:fake -->\n"
    "| k | A |\n"
    "|---|---|\n"
    "| 1 | 5 |\n"
    "| 100 | 7 |\n"
    "<!-- /counts -->\n"
    "outro\n"
)


class TestDiff:
    """The diff itself, on a two-row table that computes nothing."""

    def check(self, text, cheap=False):
        return counts.check(text, counts.generate([FAKE], cheap=cheap))

    def test_the_generated_file_has_no_difference(self):
        assert self.check(DOC) == []

    def test_a_changed_cell_is_reported_with_both_lines(self):
        assert self.check(DOC.replace("| 1 | 5 |", "| 1 | 6 |")) == [
            "fake: EXPERIMENTS.md has '| 1 | 6 |', the code gives '| 1 | 5 |'"
        ]

    def test_cheap_compares_only_the_cheap_rows(self):
        doc = DOC.replace("| 100 | 7 |", "| 100 | 8 |")
        assert self.check(doc, cheap=True) == []
        assert len(self.check(doc)) == 1

    def test_a_missing_row_is_reported(self):
        assert self.check(DOC.replace("| 1 | 5 |\n", "")) == [
            "fake: EXPERIMENTS.md has None, the code gives '| 1 | 5 |'"
        ]

    def test_a_row_the_code_does_not_generate_is_reported(self):
        doc = DOC.replace("| 100 | 7 |\n", "| 100 | 7 |\n| 1000 | 9 |\n")
        assert self.check(doc) == ["fake: row '| 1000 | 9 |' is not generated"]
        assert self.check(doc, cheap=True) == []

    def test_a_duplicated_row_is_reported(self):
        # A stale row beside a correct copy: the file contradicts itself.
        doc = DOC.replace("| 1 | 5 |\n", "| 1 | 4 |\n| 1 | 5 |\n")
        expected = ["fake: rows '| 1 | 4 |' and '| 1 | 5 |' share their labels"]
        assert self.check(doc) == expected
        assert self.check(doc, cheap=True) == expected

    def test_a_changed_header_is_reported(self):
        assert len(self.check(DOC.replace("| k | A |", "| k | B |"))) == 1

    def test_a_missing_block_is_reported(self):
        assert self.check("intro\n") == [
            "fake: no '<!-- counts:fake -->' ... '<!-- /counts -->' block"
        ]

    def test_write_regenerates_the_block_in_place(self):
        doctored = DOC.replace("| 1 | 5 |", "| 1 | 6 |").replace("| 100 | 7 |\n", "")
        assert counts.write(doctored, counts.generate([FAKE])) == DOC


class TestCommandLine:
    @pytest.fixture
    def doc(self, tmp_path, monkeypatch):
        monkeypatch.setattr(counts, "TABLES", (FAKE,))
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(DOC, encoding="utf-8")
        return path

    def test_check_exits_0_on_the_generated_file(self, doc, capsys):
        assert figure6_main(["--check", str(doc)]) == 0
        assert "0 difference(s)" in capsys.readouterr().out

    def test_check_exits_1_and_prints_the_difference(self, doc, capsys):
        doc.write_text(DOC.replace("| 1 | 5 |", "| 1 | 6 |"), encoding="utf-8")
        assert figure6_main(["--check", str(doc)]) == 1
        assert "'| 1 | 6 |'" in capsys.readouterr().out

    def test_write_regenerates_the_file(self, doc):
        doc.write_text(DOC.replace("| 1 | 5 |", "| 1 | 6 |"), encoding="utf-8")
        assert figure6_main(["--write", str(doc)]) == 0
        assert doc.read_text(encoding="utf-8") == DOC

    def test_check_and_write_exclude_each_other(self):
        with pytest.raises(SystemExit) as excinfo:
            figure6_main(["--check", "a", "--write", "b"])
        assert excinfo.value.code == 2
