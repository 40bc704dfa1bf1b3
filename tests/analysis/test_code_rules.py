"""Fixture tests for the AST rule family.

Every rule gets at least one known-bad and one known-clean fixture; the
lock-discipline and lazy-orderer rules additionally carry deliberately
seeded violations mirroring real past bugs.
"""

import textwrap

import pytest

from repro.analysis.astutils import CodeModule
from repro.analysis.code_rules import (
    check_bare_sleep,
    check_broad_except,
    check_lazy_orderer_contract,
    check_library_print,
    check_lock_discipline,
    check_production_assert,
)
from repro.analysis.runner import lint_code, load_modules


def lint_source(source, path, check=None):
    """*check*'s findings on *source*, or every code rule's."""
    modules = [CodeModule.from_source(source, path)]
    if check is None:
        return lint_code(modules)
    return list(check(modules[0]))


def lint(source, check=None):
    return lint_source(textwrap.dedent(source), path="fixture.py", check=check)


def rules_hit(source, check=None):
    return [d.rule for d in lint(source, check)]


# -- COD001: lock discipline -------------------------------------------------------

SEEDED_LOCK_VIOLATION = """
    import threading

    class HitCounter:
        def __init__(self):
            self._lock = threading.Lock()
            self._hits = 0

        def record(self):
            with self._lock:
                self._hits += 1

        def record_fast(self):
            self._hits += 1  # seeded violation: write outside the lock
"""


class TestLockDiscipline:
    def test_catches_seeded_unguarded_write(self):
        (finding,) = lint(SEEDED_LOCK_VIOLATION, check=check_lock_discipline)
        assert finding.rule == "COD001"
        assert "self._hits" in finding.message
        assert "record_fast" in finding.message

    def test_catches_unguarded_read_of_locked_counter(self):
        findings = lint(
            """
            import threading

            class Gauge:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def set(self, value):
                    with self._lock:
                        self._value = value

                def peek(self):
                    return self._value
            """,
            check=check_lock_discipline,
        )
        assert [d.rule for d in findings] == ["COD001"]
        assert "read lock-free in peek()" in findings[0].message

    @pytest.mark.parametrize(
        "attr", ["_count", "_clock", "_seconds", "_blocking"]
    )
    def test_lock_words_match_whole_words(self, attr):
        # "_clock" and "_blocking" hold "lock", "_seconds" holds "cond":
        # none of them names a lock, so each is guarded state.
        findings = lint(
            f"""
            import threading

            class Meter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.{attr} = 0

                def bump(self):
                    with self._lock:
                        self.{attr} += 1

                def peek(self):
                    return self.{attr}
            """,
            check=check_lock_discipline,
        )
        assert [d.rule for d in findings] == ["COD001"]

    def test_clean_when_every_access_is_guarded(self):
        assert rules_hit(
            """
            import threading

            class SafeCounter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0

                def record(self):
                    with self._lock:
                        self._hits += 1

                def snapshot(self):
                    with self._lock:
                        return self._hits
            """,
            check=check_lock_discipline,
        ) == []

    def test_init_is_exempt(self):
        assert rules_hit(
            """
            import threading

            class LateBinder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                    self._items.append(0)  # pre-sharing: fine

                def add(self, item):
                    with self._lock:
                        self._items.append(item)
            """,
            check=check_lock_discipline,
        ) == []

    def test_reads_of_unmutated_reference_are_fine(self):
        # self._registry is only ever *read*; holding every read to the
        # lock that guards an unrelated attribute would be pure noise.
        assert rules_hit(
            """
            import threading

            class Router:
                def __init__(self, registry):
                    self._lock = threading.Lock()
                    self._registry = registry
                    self._pending = []

                def push(self, item, validate):
                    with self._lock:
                        validate(self._registry, item)
                        self._pending.append(item)

                def describe(self):
                    return self._registry.name
            """,
            check=check_lock_discipline,
        ) == []

    def test_method_calls_are_not_attribute_accesses(self):
        assert rules_hit(
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def run(self):
                    with self._lock:
                        self._step()

                def outside(self):
                    self._step()

                def _step(self):
                    pass
            """,
            check=check_lock_discipline,
        ) == []

# -- COD002: lazy orderer contract -------------------------------------------------

SEEDED_EAGER_ORDERER = """
    class EagerOrderer(PlanOrderer):
        def order(self, space, measure, context):
            # seeded violation: materializes the whole plan space before
            # the first plan reaches the consumer.
            ranked = sorted(space.plans(), key=str)
            for plan in ranked:
                yield plan
"""


class TestLazyOrdererContract:
    def test_catches_seeded_sorted_over_plans_before_first_yield(self):
        (finding,) = lint(SEEDED_EAGER_ORDERER, check=check_lazy_orderer_contract)
        assert finding.rule == "COD002"
        assert "sorted() over a .plans() enumeration" in finding.message

    def test_clean_lazy_generator(self):
        assert rules_hit(
            """
            class LazyOrderer(PlanOrderer):
                def order(self, space, measure, context):
                    for plan in space.plans():
                        yield plan
            """,
            check=check_lazy_orderer_contract,
        ) == []


# -- COD003: production asserts ----------------------------------------------------


class TestProductionAssert:
    def test_catches_assert_statement(self):
        (finding,) = lint(
            """
            def pick(items):
                best = items[0]
                assert best is not None
                return best
            """,
            check=check_production_assert,
        )
        assert finding.rule == "COD003"
        assert "python -O" in finding.message

    def test_clean_explicit_raise(self):
        assert rules_hit(
            """
            from repro.errors import InternalError

            def pick(items):
                best = items[0]
                if best is None:
                    raise InternalError("no candidate survived")
                return best
            """,
            check=check_production_assert,
        ) == []

    def test_long_conditions_are_truncated(self):
        (finding,) = lint(
            f"""
            def check(x):
                assert x in {{{", ".join(repr(f"option_{i}") for i in range(12))}}}
            """,
            check=check_production_assert,
        )
        assert "..." in finding.message


# -- COD004: broad except ----------------------------------------------------------


class TestBroadExcept:
    def test_catches_swallowing_except_exception(self):
        (finding,) = lint(
            """
            def run(task):
                try:
                    task()
                except Exception:
                    pass
            """,
            check=check_broad_except,
        )
        assert finding.rule == "COD004"
        assert "swallows" in finding.message

    def test_clean_when_handler_uses_the_exception(self):
        assert rules_hit(
            """
            def run(task, log):
                try:
                    task()
                except Exception as exc:
                    log.warning("task failed: %s", exc)
            """,
            check=check_broad_except,
        ) == []

    def test_narrow_handlers_are_out_of_scope(self):
        assert rules_hit(
            """
            def parse(text):
                try:
                    return int(text)
                except ValueError:
                    return None
            """,
            check=check_broad_except,
        ) == []


# -- COD006: bare time.sleep -------------------------------------------------------


class TestBareSleep:
    def test_catches_module_qualified_sleep(self):
        (finding,) = lint(
            """
            import time

            def backoff(delay):
                time.sleep(delay)
            """,
            check=check_bare_sleep,
        )
        assert finding.rule == "COD006"

    def test_catches_from_import_and_alias(self):
        hits = rules_hit(
            """
            from time import sleep as snooze

            def backoff(delay):
                snooze(delay)
            """,
            check=check_bare_sleep,
        )
        assert hits == ["COD006"]

    def test_clean_event_wait_and_unrelated_sleep(self):
        assert rules_hit(
            """
            import threading

            class Pauser:
                def __init__(self):
                    self._interrupt = threading.Event()

                def pause(self, delay, stop=None):
                    if stop is not None:
                        stop.wait(delay)
                    else:
                        self._interrupt.wait(delay)

            def sleep(machine):
                # A local function merely *named* sleep is fine.
                machine.suspend()
            """,
            check=check_bare_sleep,
        ) == []

# -- COD007: print in library code -------------------------------------------------


class TestLibraryPrint:
    def test_catches_print_in_library_module(self):
        (finding,) = lint_source(
            textwrap.dedent(
                """
                def drain(batches):
                    for batch in batches:
                        print(batch)
                """
            ),
            path="src/repro/service/session.py",
            check=check_library_print,
        )
        assert finding.rule == "COD007"

    def test_module_level_print_caught(self):
        hits = [
            d.rule
            for d in lint_source(
                'print("import-time banner")\n',
                path="src/repro/execution/mediator.py",
                check=check_library_print,
            )
        ]
        assert hits == ["COD007"]

    def test_cli_and_reporters_are_allow_listed(self):
        for path in (
            "src/repro/cli.py",
            "src/repro/__main__.py",
            "src/repro/experiments/figure6.py",
        ):
            assert (
                lint_source(
                    'print("user-facing output")\n',
                    path=path,
                    check=check_library_print,
                )
                == []
            ), path

    def test_allow_list_matches_whole_path_components(self):
        # Only a module *named* cli.py is the CLI.
        findings = lint_source(
            'print("x")\n',
            path="src/repro/service/loadgen_cli.py",
            check=check_library_print,
        )
        assert [d.rule for d in findings] == ["COD007"]

    def test_local_print_name_is_still_flagged_but_methods_are_not(self):
        # Attribute calls like writer.print() are not the builtin.
        assert (
            lint_source(
                textwrap.dedent(
                    """
                    def render(writer):
                        writer.print("ok")
                    """
                ),
                path="src/repro/service/server.py",
                check=check_library_print,
            )
            == []
        )

    def test_repo_library_tree_is_clean(self):
        """The rule holds on the actual source tree right now."""
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        assert [
            finding
            for module in load_modules([str(src)])
            for finding in check_library_print(module)
        ] == []


# -- cross-cutting behaviour -------------------------------------------------------


class TestTheFamily:
    def test_multiple_rules_fire_on_one_module(self):
        hits = rules_hit(
            """
            import time

            def pick(items):
                assert items
                try:
                    return items[0]
                except Exception:
                    time.sleep(0.1)
            """,
        )
        assert sorted(set(hits)) == ["COD003", "COD004", "COD006"]
