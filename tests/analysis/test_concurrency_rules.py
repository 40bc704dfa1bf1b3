"""Fixture corpus for the concurrency rule family (CON001–CON004).

Every rule gets at least one seeded-bug fixture (known-true-positive)
and a paired clean fixture differing only in the property under test,
both run through the rule's checker on the joined model — the same
two phases ``repro lint --concurrency`` runs, minus the filesystem.
"""

from repro.analysis.astutils import CodeModule
from repro.analysis.concurrency import build_model
from repro.analysis.concurrency.contracts import check_journal_contract
from repro.analysis.concurrency.rules import (
    check_blocking_under_lock,
    check_potential_deadlock,
    check_unguarded_shared_state,
)
from repro.analysis.runner import lint_concurrency


def lint_concurrency_sources(sources, check=None):
    """*check*'s findings on the joined *sources*, or every rule's."""
    modules = [CodeModule.from_source(source, path) for path, source in sources]
    if check is None:
        return lint_concurrency(modules)
    return list(check(build_model(modules)))


def rules_hit(*sources, check=None):
    return [d.rule for d in lint_concurrency_sources(list(sources), check)]


# -- CON001: lock-order cycles -----------------------------------------------------

DEADLOCK_SRC = '''
import threading


class A:
    def __init__(self):
        self._lock = threading.Lock()
        self.b = B(self)

    def outer(self):
        with self._lock:
            self.b.poke()


class B:
    def __init__(self, parent):
        self._lock = threading.Lock()
        self.parent = parent

    def poke(self):
        with self._lock:
            pass

    def reverse(self):
        with self._lock:
            self.parent.outer()
'''

ORDERED_LOCKS_SRC = '''
import threading


class A:
    def __init__(self):
        self._lock = threading.Lock()
        self.b = B()

    def outer(self):
        with self._lock:
            self.b.poke()


class B:
    def __init__(self):
        self._lock = threading.Lock()

    def poke(self):
        with self._lock:
            pass

    def alone(self):
        with self._lock:
            pass
'''


class TestPotentialDeadlock:
    def test_opposite_order_through_parent_pointer(self):
        hits = rules_hit(("fx/deadlock.py", DEADLOCK_SRC), check=check_potential_deadlock)
        assert "CON001" in hits

    def test_cycle_witnesses_name_both_sites(self):
        findings = lint_concurrency_sources(
            [("fx/deadlock.py", DEADLOCK_SRC)], check=check_potential_deadlock
        )
        cycles = [f for f in findings if "cycle" in f.message]
        assert cycles, [f.message for f in findings]
        assert "fx/deadlock.py:12" in cycles[0].message
        assert "fx/deadlock.py:26" in cycles[0].message

    def test_consistent_order_is_clean(self):
        assert rules_hit(
            ("fx/ordered.py", ORDERED_LOCKS_SRC), check=check_potential_deadlock
        ) == []

    def test_plain_lock_reacquired_through_a_call(self):
        findings = lint_concurrency_sources(
            [("fx/reentry.py", REENTRY_SRC)], check=check_potential_deadlock
        )
        assert [f.rule for f in findings] == ["CON001"]
        assert "cycle Board._lock -> Board._lock" in findings[0].message

    def test_rlock_reentry_is_clean(self):
        reentrant = REENTRY_SRC.replace("threading.Lock()", "threading.RLock()")
        assert rules_hit(("fx/reentry.py", reentrant), check=check_potential_deadlock) == []


REENTRY_SRC = '''
import threading


class Board:
    def __init__(self):
        self._lock = threading.Lock()
        self._states = {}

    def states(self):
        with self._lock:
            return dict(self._states)

    def describe(self):
        with self._lock:
            return len(self.states())
'''


CLOCKED_SRC = '''
import threading


class Meter:
    def __init__(self, clock, seconds, blocking):
        self._lock = threading.Lock()
        self._clock = clock
        self._seconds = seconds
        self._blocking = blocking
'''


class TestLockNodes:
    def test_lock_words_match_whole_words(self):
        # "_clock" and "_blocking" hold "lock", "_seconds" holds "cond":
        # none of them names a lock, so none is a lock-order node.
        model = build_model([CodeModule.from_source(CLOCKED_SRC, "fx/meter.py")])
        assert sorted(model.kinds) == ["Meter._lock"]


# -- CON002: unguarded shared state ------------------------------------------------

UNGUARDED_SRC = '''
import threading


class Worker:
    def __init__(self):
        self.count = 0
        self._thread = None

    def start(self):
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def _run(self):
        self.count += 1

    def snapshot(self):
        return self.count
'''


class TestUnguardedSharedState:
    def test_thread_written_counter_without_lock(self):
        findings = lint_concurrency_sources(
            [("fx/unguarded.py", UNGUARDED_SRC)], check=check_unguarded_shared_state
        )
        assert [f.rule for f in findings] == ["CON002"]
        assert "count" in findings[0].message

    def test_thread_subclass_run_is_a_thread_entry(self):
        findings = lint_concurrency_sources(
            [("fx/subclass.py", SUBCLASS_SRC)], check=check_unguarded_shared_state
        )
        assert [f.rule for f in findings] == ["CON002"]
        assert "run() runs on a spawned thread" in findings[0].message

    def test_state_only_read_on_both_sides_is_clean(self):
        read_only = SUBCLASS_SRC.replace(
            "self.done += 1", "print(self.done)"
        )
        assert rules_hit(("fx/subclass.py", read_only), check=check_unguarded_shared_state) == []


SUBCLASS_SRC = '''
import threading


class Replayer(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        self.done = 0

    def run(self):
        self.done += 1

    def progress(self):
        return self.done
'''


# -- CON003: blocking under a held mutex -------------------------------------------

BLOCKING_SRC = '''
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

NONBLOCKING_SRC = '''
import threading


class Sender:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self.sock = sock
        self.sent = 0

    def send(self, data):
        self.sock.sendall(data)
        with self._lock:
            self.sent += 1
'''


class TestBlockingUnderLock:
    def test_socket_io_inside_critical_section(self):
        findings = lint_concurrency_sources(
            [("fx/blocking.py", BLOCKING_SRC)], check=check_blocking_under_lock
        )
        assert [f.rule for f in findings] == ["CON003"]
        assert "sendall" in findings[0].message

    def test_io_outside_the_lock_is_clean(self):
        assert rules_hit(
            ("fx/nonblocking.py", NONBLOCKING_SRC), check=check_blocking_under_lock
        ) == []

    def test_timeoutless_join_under_lock(self):
        findings = lint_concurrency_sources(
            [("fx/joins.py", JOIN_SRC)], check=check_blocking_under_lock
        )
        assert [f.rule for f in findings] == ["CON003"]
        assert "(join)" in findings[0].message

    def test_bounded_join_under_lock_is_clean(self):
        bounded = JOIN_SRC.replace(".join()", ".join(timeout=1.0)")
        assert rules_hit(("fx/joins.py", bounded), check=check_blocking_under_lock) == []

    def test_a_method_of_the_class_named_like_socket_io_is_clean(self):
        # The datalog parser's ``self.accept(...)`` is its own method,
        # which the call graph resolves; on another receiver the same
        # name is socket I/O.
        assert rules_hit(
            ("fx/accepts.py", ACCEPT_SRC), check=check_blocking_under_lock
        ) == []
        on_a_socket = ACCEPT_SRC.replace("self.accept()", "conn.accept()")
        assert rules_hit(
            ("fx/accepts.py", on_a_socket), check=check_blocking_under_lock
        ) == ["CON003"]



JOIN_SRC = '''
import threading


class Pool:
    def __init__(self):
        self._lock = threading.Lock()
        self._worker_thread = threading.Thread(target=print)

    def close(self):
        with self._lock:
            self._worker_thread.join()
'''

ACCEPT_SRC = '''
import threading


class Parser:
    def __init__(self):
        self._lock = threading.Lock()

    def accept(self):
        return True

    def step(self, conn):
        with self._lock:
            return self.accept()
'''

# -- CON004: journal emit sites vs EVENT_SCHEMA ------------------------------------

BAD_EMITS_SRC = '''
class Service:
    def __init__(self, journal):
        self.journal = journal

    def go(self):
        self.journal.emit("request.admitted", measure="linear")
'''

GOOD_EMITS_SRC = '''
class Service:
    def __init__(self, journal):
        self.journal = journal

    def go(self, event, extra):
        self.journal.emit(
            "request.admitted", measure="linear", orderer="greedy"
        )
        self.journal.emit(event, **extra)
'''


class TestJournalContract:
    def test_missing_required_field(self):
        (finding,) = lint_concurrency_sources(
            [("fx/bad_emits.py", BAD_EMITS_SRC)], check=check_journal_contract
        )
        assert "without required field(s) orderer" in finding.message

    def test_complete_and_dynamic_emits_are_clean(self):
        assert rules_hit(
            ("fx/good_emits.py", GOOD_EMITS_SRC), check=check_journal_contract
        ) == []


# -- cross-rule: the corpus as one program -----------------------------------------


class TestWholeCorpus:
    def test_every_rule_fires_on_the_seeded_corpus(self):
        hits = set(
            rules_hit(
                ("fx/deadlock.py", DEADLOCK_SRC),
                ("fx/unguarded.py", UNGUARDED_SRC),
                ("fx/blocking.py", BLOCKING_SRC),
                ("fx/bad_emits.py", BAD_EMITS_SRC),
            )
        )
        assert hits == {"CON001", "CON002", "CON003", "CON004"}

    def test_the_clean_corpus_is_silent(self):
        assert rules_hit(
            ("fx/ordered.py", ORDERED_LOCKS_SRC),
            ("fx/nonblocking.py", NONBLOCKING_SRC),
            ("fx/good_emits.py", GOOD_EMITS_SRC),
        ) == []

