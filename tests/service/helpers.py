"""Helpers shared by the service tests: wire round trips, wedged
requests, whole session streams, a short retry backoff, and one
backend per session path."""

import contextlib
import threading
import time

import pytest

from repro.resilience.chaos import ChaosBackend, ChaosProfile
from repro.service import policy, protocol
from repro.service.backends import InMemoryBackend


def calm_chaos():
    """A blocking backend that injects nothing: the pipelined path."""
    return ChaosBackend(ChaosProfile("calm", {}))


#: A session runs inline over a backend that never blocks and through
#: its pipeline over one that does; tests of the session take both.
BACKENDS = {"inline": InMemoryBackend, "pipelined": calm_chaos}


def run(session, query, utility, **kwargs):
    """One request's whole stream: ``(batches, report)``."""
    batches = list(session.stream(query, utility, **kwargs))
    return batches, session.last_report


@contextlib.contextmanager
def backoff(base_s=0.001, cap_s=0.002):
    """Retry backoff of *base_s*, doubling up to *cap_s*, while inside."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policy, "BACKOFF_BASE_S", base_s)
        patch.setattr(policy, "BACKOFF_CAP_S", cap_s)
        yield


def read_replies(stream):
    """Reply records up to and including the terminal one."""
    replies = []
    while True:
        line = stream.readline()
        assert line, "server closed the connection mid-request"
        reply = protocol.decode_line(line)
        replies.append(reply)
        if reply["type"] in ("summary", "error"):
            return replies


def roundtrip(stream, record):
    stream.write(protocol.encode_line(record))
    stream.flush()
    return read_replies(stream)


def wait_until(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def wedge(service):
    """Hold every admitted request of *service* until the returned
    event is set; the second event reports that one is being held."""
    release, holding = threading.Event(), threading.Event()
    original = service._run_admitted

    def held_run(*args, **kwargs):
        holding.set()
        assert release.wait(timeout=30.0)
        return original(*args, **kwargs)

    service._run_admitted = held_run
    return release, holding
