"""Fixture tests for the AST rule family.

Every rule gets at least one known-bad and one known-clean fixture; the
lock-discipline and lazy-orderer rules additionally carry deliberately
seeded violations mirroring real past bugs.
"""

import textwrap

import pytest

from repro.analysis.astutils import CodeModule
from repro.analysis.runner import lint_code, load_modules


def lint_source(source, path, **kwargs):
    return lint_code([CodeModule.from_source(source, path)], **kwargs)


def lint(source, **kwargs):
    return lint_source(textwrap.dedent(source), path="fixture.py", **kwargs)


def rules_hit(source, **kwargs):
    return [d.rule for d in lint(source, **kwargs)]


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
        (finding,) = lint(SEEDED_LOCK_VIOLATION, select=["COD001"])
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
            select=["COD001"],
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
            select=["COD001"],
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
            select=["COD001"],
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
            select=["COD001"],
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
            select=["COD001"],
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
            select=["COD001"],
        ) == []

    def test_inline_allow_suppresses_the_finding(self):
        assert rules_hit(
            """
            import threading

            class HitCounter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0

                def record(self):
                    with self._lock:
                        self._hits += 1

                def record_unsafe(self):
                    self._hits += 1  # lint: allow[lock-discipline]
            """,
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
        (finding,) = lint(SEEDED_EAGER_ORDERER, select=["COD002"])
        assert finding.rule == "COD002"
        assert "sorted() over a .plans() enumeration" in finding.message

    def test_catches_list_over_plan_space_parameter(self):
        (finding,) = lint(
            """
            class SnapshotOrderer(PlanOrderer):
                def order(self, space, measure, context):
                    everything = list(space)
                    yield from everything
            """,
            select=["COD002"],
        )
        assert "plan-space parameter 'space'" in finding.message

    def test_catches_non_generator_non_delegating_order(self):
        (finding,) = lint(
            """
            class BlockingOrderer(PlanOrderer):
                def order(self, space, measure, context):
                    best = max(space.plans(), key=str)
                    return [best]
            """,
            select=["COD002"],
        )
        assert "neither a generator nor a delegation" in finding.message

    def test_clean_lazy_generator(self):
        assert rules_hit(
            """
            class LazyOrderer(PlanOrderer):
                def order(self, space, measure, context):
                    for plan in space.plans():
                        yield plan
            """,
            select=["COD002"],
        ) == []

    def test_clean_delegation_to_another_orderer(self):
        assert rules_hit(
            """
            class AliasOrderer(PlanOrderer):
                def order(self, space, measure, context):
                    return self.order_spaces([space], measure, context)

                def order_spaces(self, spaces, measure, context):
                    for space in spaces:
                        yield from space.plans()
            """,
            select=["COD002"],
        ) == []

    def test_materializing_after_first_yield_is_allowed(self):
        # Bookkeeping over *emitted* plans is the algorithms' own
        # pattern; only pre-yield materialization breaks laziness.
        assert rules_hit(
            """
            class PrefixOrderer(PlanOrderer):
                def order(self, space, measure, context):
                    iterator = iter(space.plans())
                    yield next(iterator)
                    rest = list(space.plans())
                    yield from rest
            """,
            select=["COD002"],
        ) == []

    def test_non_orderer_classes_are_out_of_scope(self):
        assert rules_hit(
            """
            class PlanCache:
                def order(self, space):
                    return list(space.plans())
            """,
            select=["COD002"],
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
            select=["COD003"],
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
            select=["COD003"],
        ) == []

    def test_long_conditions_are_truncated(self):
        (finding,) = lint(
            f"""
            def check(x):
                assert x in {{{", ".join(repr(f"option_{i}") for i in range(12))}}}
            """,
            select=["COD003"],
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
            select=["COD004"],
        )
        assert finding.rule == "COD004"
        assert "swallows" in finding.message

    def test_catches_bare_except(self):
        (finding,) = lint(
            """
            def run(task):
                try:
                    task()
                except:
                    return None
            """,
            select=["COD004"],
        )
        assert "bare except" in finding.message

    def test_clean_when_handler_reraises(self):
        assert rules_hit(
            """
            def run(task):
                try:
                    task()
                except Exception:
                    raise
            """,
            select=["COD004"],
        ) == []

    def test_clean_when_handler_uses_the_exception(self):
        assert rules_hit(
            """
            def run(task, log):
                try:
                    task()
                except Exception as exc:
                    log.warning("task failed: %s", exc)
            """,
            select=["COD004"],
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
            select=["COD004"],
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
            select=["COD006"],
        )
        assert finding.rule == "COD006"
        assert "backoff()" in finding.message
        assert "CancellationToken.wait" in finding.fix_hint

    def test_catches_from_import_and_alias(self):
        hits = rules_hit(
            """
            from time import sleep as snooze

            def backoff(delay):
                snooze(delay)
            """,
            select=["COD006"],
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
            select=["COD006"],
        ) == []

    def test_allow_comment_suppresses(self):
        assert rules_hit(
            """
            import time

            def calibrate():
                # lint: allow[bare-sleep]
                time.sleep(0.001)
            """,
            select=["COD006"],
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
            select=["COD007"],
        )
        assert finding.rule == "COD007"
        assert "drain()" in finding.message
        assert "journal" in finding.fix_hint

    def test_module_level_print_caught(self):
        hits = [
            d.rule
            for d in lint_source(
                'print("import-time banner")\n',
                path="src/repro/execution/mediator.py",
                select=["COD007"],
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
                    select=["COD007"],
                )
                == []
            ), path

    def test_allow_list_matches_whole_path_components(self):
        # Only a module *named* cli.py is the CLI.
        findings = lint_source(
            'print("x")\n',
            path="src/repro/service/loadgen_cli.py",
            select=["COD007"],
        )
        assert [d.rule for d in findings] == ["COD007"]

    def test_windows_separators_still_allow_listed(self):
        assert (
            lint_source(
                'print("x")\n',
                path="src\\repro\\experiments\\figure6.py",
                select=["COD007"],
            )
            == []
        )

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
                select=["COD007"],
            )
            == []
        )

    def test_allow_comment_suppresses(self):
        assert (
            lint_source(
                textwrap.dedent(
                    """
                    def debug_dump(rows):
                        # lint: allow[library-print]
                        print(rows)
                    """
                ),
                path="src/repro/service/server.py",
                select=["COD007"],
            )
            == []
        )

    def test_repo_library_tree_is_clean(self):
        """The rule holds on the actual source tree right now."""
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        assert lint_code(load_modules([str(src)]), select=["COD007"]) == []


# -- cross-cutting behaviour -------------------------------------------------------


class TestSuppressionAndSelection:
    def test_allow_comment_on_preceding_line(self):
        assert rules_hit(
            """
            def pick(items):
                # lint: allow[COD003]
                assert items
                return items[0]
            """,
            select=["COD003"],
        ) == []

    def test_allow_for_one_rule_leaves_others_alone(self):
        hits = rules_hit(
            """
            import time

            def pick(items):
                time.sleep(0.1)  # lint: allow[bare-sleep]
                assert items
                return items[0]
            """,
        )
        assert hits == ["COD003"]

    def test_ignore_beats_select(self):
        assert rules_hit(
            """
            def pick(items):
                assert items
                return items[0]
            """,
            select=["COD"],
            ignore=["COD003"],
        ) == []

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
