"""There is one anytime loop, checked mechanically.

``Mediator.answer`` and ``PipelinedSession.stream`` are two drivers of
the stages in ``AnytimeRun``.  These tests read the source of
``repro.execution`` and ``repro.service`` and fail if a second copy of
any stage grows back, and pin that the parameters the refactor removed
stay removed.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis.astutils import CodeModule
from repro.analysis.concurrency.facts import extract_module
from repro.execution.mediator import Mediator
from repro.observability.journal import EventJournal
from repro.observability.metrics import MetricRegistry
from repro.resilience.manager import ResilienceManager
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost

PACKAGE = Path(repro.__file__).parent
LOOP_MODULES = [
    CodeModule.from_file(str(path))
    for package in ("execution", "service")
    for path in sorted((PACKAGE / package).glob("*.py"))
]

PER_PLAN_EVENTS = [
    "plan.emitted", "plan.unsound", "plan.skipped", "plan.failed",
    "plan.executed", "answer.first", "answer.progress",
]


def calls(predicate):
    """(path, line) of every call in the loop modules matching *predicate*."""
    return [
        (module.path, node.lineno)
        for module in LOOP_MODULES
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Call) and predicate(node.func)
    ]


def method_names(owner, method):
    """Every identifier and attribute name used inside ``owner.method``."""
    (func,) = [
        func
        for module in LOOP_MODULES
        for cls in ast.walk(module.tree)
        if isinstance(cls, ast.ClassDef) and cls.name == owner
        for func in cls.body
        if isinstance(func, ast.FunctionDef) and func.name == method
    ]
    return {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(func)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


class TestOneLoop:
    @pytest.mark.parametrize("event", PER_PLAN_EVENTS)
    def test_one_emit_site_per_plan_event(self, event):
        sites = [
            (module.path, site.line)
            for module in LOOP_MODULES
            for site in extract_module(module).emits
            if site.event == event
        ]
        assert len(sites) == 1, sites

    def test_one_answer_batch_construction(self):
        sites = calls(
            lambda func: isinstance(func, ast.Name) and func.id == "AnswerBatch"
        )
        assert len(sites) == 1, sites

    @pytest.mark.parametrize("method", ["admit", "order"])
    def test_one_call_site(self, method):
        sites = calls(
            lambda func: isinstance(func, ast.Attribute) and func.attr == method
        )
        assert len(sites) == 1, sites

    def test_inline_driver_has_no_thread_queue_or_retry(self):
        names = method_names("Mediator", "answer")
        assert not names & {
            "threading", "Thread", "Queue", "Condition", "Event",
            "retry", "retries", "delay", "backoff",
        }

    def test_pipelined_driver_only_drives(self):
        names = method_names("PipelinedSession", "stream")
        assert not names & {
            "check_soundness", "plan_query", "admit", "record_batch",
            "record_success", "record_failure", "emit", "journal", "seen",
        }
        assert {"plans", "execute", "settle", "close"} <= names


class TestRemovedParameters:
    def test_session_reads_its_channels_from_the_mediator(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        for removed in (
            {"registry": MetricRegistry()},
            {"resilience": ResilienceManager()},
            {"journal": EventJournal()},
        ):
            with pytest.raises(TypeError):
                PipelinedSession(mediator, **removed)

    def test_adaptive_flag_is_gone_from_all_four_signatures(self, movies):
        mediator = Mediator(
            movies.catalog, movies.source_facts, resilience=ResilienceManager()
        )
        session = PipelinedSession(mediator)
        utility = LinearCost()
        with pytest.raises(TypeError):
            mediator.make_orderer(utility, adaptive=True)
        with pytest.raises(TypeError):
            mediator.answer(movies.query, utility, adaptive=True)
        with pytest.raises(TypeError):
            session.stream(movies.query, utility, adaptive=True)
        with pytest.raises(TypeError):
            session.run(movies.query, utility, adaptive=True)
