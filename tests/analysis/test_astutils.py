"""Tests for the shared AST plumbing: lock names, parsing, helpers."""

import ast

import pytest

from repro.analysis.astutils import (
    CodeModule,
    attribute_chain,
    base_names,
    is_lock_name,
    lock_context_attr,
)
from repro.errors import AnalysisError


def expression(text):
    return ast.parse(text, mode="eval").body


class TestIsLockName:
    # The one place COD001 and the concurrency facts learn what a lock
    # is: the name's last ``_``-separated word.
    @pytest.mark.parametrize("name", [
        "_lock", "lock", "_measure_lock", "_prefix_lock", "_rlock",
        "cond", "_condition", "_semaphore", "_LOCK",
    ])
    def test_lock_words(self, name):
        assert is_lock_name(name)

    @pytest.mark.parametrize("name", [
        "_clock", "_seconds", "_blocking", "_lock_depth", "_locked",
        "_count", "unlock_at",
    ])
    def test_names_that_merely_contain_a_lock_word(self, name):
        assert not is_lock_name(name)


class TestLockContextAttr:
    @pytest.mark.parametrize("source, chain", [
        ("with self._lock: pass", ("self", "_lock")),
        ("with self.registry.lock: pass", ("self", "registry", "lock")),
        ("with self._clock: pass", None),
        ("with lock: pass", None),
        ("with open(path): pass", None),
    ])
    def test_only_self_lock_chains_guard(self, source, chain):
        (statement,) = ast.parse(source).body
        assert lock_context_attr(statement.items[0]) == chain


class TestCodeModule:
    def test_syntax_error_names_the_file(self):
        with pytest.raises(AnalysisError, match="cannot parse fx/broken.py"):
            CodeModule.from_source("def broken(:\n", "fx/broken.py")

    def test_unreadable_file_is_an_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot read"):
            CodeModule.from_file(str(tmp_path / "absent.py"))


class TestHelpers:
    def test_attribute_chain_of_dotted_names(self):
        assert attribute_chain(expression("self.registry.lock")) == (
            "self", "registry", "lock"
        )

    def test_attribute_chain_stops_at_calls_and_subscripts(self):
        assert attribute_chain(expression("make().lock")) is None
        assert attribute_chain(expression("locks[0].acquire")) is None

    def test_base_names_keep_the_last_segment(self):
        (cls,) = ast.parse(
            "class Mine(base.PlanOrderer, Mixin): pass"
        ).body
        assert base_names(cls) == ("PlanOrderer", "Mixin")
