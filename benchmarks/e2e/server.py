"""The server side: one subprocess per round, and its parent-side handle.

Run as ``python -m benchmarks.e2e.server --workload W --seed N`` the
module builds the workload's inputs, boots ``QueryService`` behind
``frontend.start_server`` on port 0, prints one JSON line with the port
and its own phase timings, and serves until its stdin closes — so a
parent that dies, however it dies, never leaves a server holding a
port.

:class:`ServerProcess` is the parent side: spawn, wait for the
listening line (that wait is one ``setup_s`` sample), read the
server's peak memory and CPU time from ``/proc``, terminate and reap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from benchmarks.e2e.run import ROOT

#: Seconds a server may take to print its listening line.
BOOT_TIMEOUT_S = 60.0


def serve(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.server")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--journal", default=None)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    from repro.observability.journal import EventJournal
    from repro.service.frontend import start_server

    from benchmarks.e2e.workloads import build_workload, make_service

    imported = time.perf_counter()
    workload = build_workload(args.workload, args.seed)
    built = time.perf_counter()
    sink = None
    journal = None
    if args.journal:
        sink = open(args.journal, "w", encoding="utf-8")
        journal = EventJournal(stream=sink)
    try:
        service = make_service(
            workload,
            journal=journal,
            resilience=workload.spec.observed,
            trace_requests=workload.spec.observed,
        )
        server, _thread = start_server(service, port=0)
        try:
            print(
                json.dumps(
                    {
                        "port": server.port,
                        "import_s": imported - started,
                        "generate_s": workload.generate_s,
                        "materialize_s": workload.materialize_s,
                        "boot_s": time.perf_counter() - built,
                    }
                ),
                flush=True,
            )
            sys.stdin.read()  # the parent closing the pipe is the stop signal
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()
    finally:
        if sink is not None:
            sink.close()
    return 0


@functools.cache
def placement() -> tuple[frozenset[int], Optional[int]]:
    """(CPUs of the client, CPU of the server), decided once per process.

    With two or more CPUs the server gets the last one to itself and the
    load generator keeps the rest, so neither steals the other's time
    and the server's threads stop migrating; with one CPU nothing is
    pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return frozenset(cpus), None
    return frozenset(cpus[:-1]), cpus[-1]


def _proc_fields(pid: int) -> tuple[float, float]:
    """(peak resident MiB, CPU seconds) of a live process from ``/proc``."""
    peak_kib = 0
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                peak_kib = int(line.split()[1])
                break
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th of the whole line.
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return peak_kib / 1024.0, ticks / os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One server life, as a context manager that always reaps."""

    def __init__(self, workload: str, seed: int, *, observed: bool = False,
                 pinned: bool = True) -> None:
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.journal_path: Optional[str] = None
        if observed:
            handle, self.journal_path = tempfile.mkstemp(
                prefix="journal-", suffix=".jsonl", dir=out_dir()
            )
            os.close(handle)
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self.phases: dict[str, float] = {}

    def __enter__(self) -> "ServerProcess":
        command = [
            sys.executable, "-m", "benchmarks.e2e.server",
            "--workload", self.workload, "--seed", str(self.seed),
        ]
        if self.journal_path:
            command += ["--journal", self.journal_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        client_cpus, server_cpu = placement()
        if server_cpu is not None:
            # An unpinned server inherits this process's mask, so the
            # client gives it every CPU and shares them.
            os.sched_setaffinity(
                0, client_cpus if self.pinned else client_cpus | {server_cpu}
            )
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            if server_cpu is not None and self.pinned:
                # Before the interpreter has started any thread, so
                # every server thread inherits the placement.
                os.sched_setaffinity(self.process.pid, {server_cpu})
            line = self._read_listening_line()
            self.setup_s = time.perf_counter() - started
            self.phases = json.loads(line)
            self.port = int(self.phases.pop("port"))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _read_listening_line(self) -> str:
        # A blocking readline cannot time out on its own; a server that
        # hangs during boot is killed by the watchdog and shows as EOF.
        process = self.process
        watchdog = threading.Timer(BOOT_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            line = process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError(
                f"server for {self.workload} exited with code "
                f"{process.wait()} before listening"
            )
        return line

    def usage(self) -> tuple[float, float]:
        """(peak resident MiB, CPU seconds) so far; call before exit."""
        return _proc_fields(self.process.pid)

    def __exit__(self, *exc_info: object) -> None:
        process = self.process
        if process is not None:
            if process.stdin is not None:
                process.stdin.close()
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
            self.process = None
        if self.journal_path and os.path.exists(self.journal_path):
            os.remove(self.journal_path)


def out_dir() -> Path:
    """``benchmarks/e2e/out`` (git-ignored): traces, reports, temp journals."""
    path = Path(__file__).resolve().parent / "out"
    path.mkdir(exist_ok=True)
    return path


if __name__ == "__main__":
    raise SystemExit(serve())
