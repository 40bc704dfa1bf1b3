"""Supervisor lifecycle tests with stub processes (no real processes).

Two shutdown races were found by auditing the probe loop:

* ``_handle_death`` used to respawn a crashed worker even after
  ``stop()`` had begun terminating everything — the respawned process
  outlived the supervisor;
* ``stop()`` used to read ``handle.process`` without ``_lock`` while
  the probe thread reassigns it inside ``_spawn`` — a torn read could
  terminate the old incarnation and leak the new one.

The tests drive ``_handle_death``/``stop``/``_probe_loop`` directly
with stub processes, so they stay fast and deterministic.  The worker
states tier-1's real clusters never reach — ``restart_failed`` and
``abandoned`` — are driven here too.
"""

from __future__ import annotations

import io
import multiprocessing
from types import SimpleNamespace

import pytest

from repro.cluster.spec import WorkerSpec
from repro.cluster.supervisor import MAX_RESTARTS_PER_SHARD, ClusterSupervisor
from repro.observability.journal import EventJournal
from tests.journal_reader import events


class _StubProcess:
    """A dead-on-arrival process stub recording lifecycle calls."""

    def __init__(self, alive: bool = False) -> None:
        self._alive = alive
        self.calls: list[str] = []

    def is_alive(self) -> bool:
        self.calls.append("is_alive")
        return self._alive

    def terminate(self) -> None:
        self.calls.append("terminate")
        self._alive = False

    def kill(self) -> None:
        self.calls.append("kill")
        self._alive = False

    def join(self, timeout=None) -> None:
        self.calls.append("join")

    def start(self) -> None:
        self.calls.append("start")


class _StubConn:
    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


@pytest.fixture
def supervisor():
    sink = io.StringIO()
    instance = ClusterSupervisor(
        [WorkerSpec(shard=0)], journal=EventJournal(stream=sink)
    )
    instance.sink = sink
    return instance


def worker_states(supervisor):
    return [
        record.get("state")
        for record in events(supervisor.sink, event="cluster.worker")
    ]


class TestStopRespawnRace:
    def test_death_during_shutdown_does_not_respawn(self, supervisor, monkeypatch):
        """A crash noticed after stop() began must not spawn a worker."""
        spawned = []
        monkeypatch.setattr(
            supervisor, "_spawn", lambda handle: spawned.append(handle.shard)
        )
        handle = supervisor._handles[0]
        handle.process = _StubProcess(alive=False)

        supervisor._stop.set()  # stop() sets this before touching processes
        supervisor._handle_death(handle)

        assert spawned == []
        assert handle.restarts == 0
        states = worker_states(supervisor)
        assert "died" in states
        assert "restarted" not in states
        assert "abandoned" not in states

    def test_death_before_shutdown_still_respawns(self, supervisor, monkeypatch):
        """The guard must not suppress legitimate restarts."""
        spawned = []
        monkeypatch.setattr(
            supervisor, "_spawn", lambda handle: spawned.append(handle.shard)
        )
        monkeypatch.setattr(
            supervisor, "_await_ready", lambda shards, timeout_s: None
        )
        handle = supervisor._handles[0]
        handle.process = _StubProcess(alive=False)

        supervisor._handle_death(handle)

        assert spawned == [0]
        assert handle.restarts == 1
        assert "restarted" in worker_states(supervisor)


class TestStopLocking:
    def test_stop_terminates_the_snapshot_and_closes_the_pipe(self, supervisor):
        handle = supervisor._handles[0]
        process = _StubProcess(alive=True)
        conn = _StubConn()
        handle.process = process
        handle.ready_conn = conn

        supervisor.stop()

        assert "terminate" in process.calls
        assert conn.closed
        assert handle.ready_conn is None
        assert "stopped" in worker_states(supervisor)

    def test_stop_without_processes_is_a_no_op(self, supervisor):
        supervisor.stop()
        assert worker_states(supervisor) == []

    def test_stop_snapshots_the_process_under_the_lock(self, supervisor):
        """The ``handle.process`` read must happen under supervisor._lock.

        Locked in as a structural regression guard: if someone reverts
        to the bare ``handle.process`` read, this fails even though the
        race itself is too narrow to provoke reliably.
        """

        class _RecordingLock:
            def __init__(self, inner) -> None:
                self._inner = inner
                self.entries = 0

            def __enter__(self):
                self.entries += 1
                return self._inner.__enter__()

            def __exit__(self, *exc_info):
                return self._inner.__exit__(*exc_info)

        handle = supervisor._handles[0]
        handle.process = _StubProcess(alive=False)
        recording = _RecordingLock(supervisor._lock)
        supervisor._lock = recording

        supervisor.stop()

        # One entry for the process snapshot, one for the pipe swap.
        assert recording.entries >= 2


class _Ticks:
    """A stop event that lets the probe loop make *n* passes."""

    def __init__(self, n: int) -> None:
        self.n = n

    def wait(self, timeout=None) -> bool:
        self.n -= 1
        return self.n < 0

    def is_set(self) -> bool:
        return self.n < 0


def assert_down(supervisor):
    assert supervisor.port_of(0) is None
    assert not supervisor.routable(0)
    assert supervisor.breaker_states() == {"shard-0": "open"}


class TestUnreachedStates:
    def test_a_spent_budget_is_abandoned_once_not_every_tick(self, supervisor):
        handle = supervisor._handles[0]
        handle.process = _StubProcess(alive=False)
        handle.port = 7000
        handle.restarts = MAX_RESTARTS_PER_SHARD
        supervisor._stop = _Ticks(5)

        supervisor._probe_loop()

        assert worker_states(supervisor) == ["died", "abandoned"]
        assert_down(supervisor)

    def test_a_ready_pipe_eof_is_restart_failed(self, supervisor):
        # The respawned worker closes its pipe end without reporting.
        supervisor._ctx = SimpleNamespace(
            Pipe=multiprocessing.Pipe,
            Process=lambda **kwargs: _StubProcess(alive=False),
        )
        handle = supervisor._handles[0]
        handle.process = _StubProcess(alive=False)
        handle.port = 7000

        supervisor._handle_death(handle)
        handle.ready_conn.close()

        assert worker_states(supervisor) == [
            "died", "spawned", "restart_failed"
        ]
        assert handle.restarts == 1
        assert_down(supervisor)
