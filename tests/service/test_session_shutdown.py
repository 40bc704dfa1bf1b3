"""Session shutdown wakes every thread by notification, never by poll.

``_TICK_S`` is only a liveness bound.  With it stretched to 2 s, any
shutdown path that relies on a poll expiring — a worker that never got
its ``_DONE`` marker, a producer left on a full queue — costs its
request at least 2 s, so every one of 140 requests ending inside half
of that shows that none of them waited one out.  Each request is timed
on its own: a busy host slows them all, but does not add them up.  The
pipelined arm is the one with threads to shut down; the inline arm
holds the same requests to the same bound without any.
"""

import threading
import time

import pytest

from repro.execution.mediator import Mediator
from repro.service import session as session_module
from repro.service.policy import CancellationToken, RequestPolicy
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost
from tests.service.helpers import BACKENDS, run

STRETCHED_TICK_S = 2.0


def service_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-service-")
    ]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("workers,depth", [(2, 8), (3, 1)])
def test_no_request_waits_out_a_poll(movies, monkeypatch, workers, depth, backend):
    monkeypatch.setattr(session_module, "_TICK_S", STRETCHED_TICK_S)
    session = PipelinedSession(
        Mediator(movies.catalog, movies.source_facts),
        executor_workers=workers,
        queue_depth=depth,
        backend=BACKENDS[backend](),
    )
    utility = LinearCost()

    def no_poll_since(started):
        wall = time.perf_counter() - started
        assert wall < STRETCHED_TICK_S / 2, f"{wall:.2f}s: a shutdown polled"

    for _ in range(100):
        started = time.perf_counter()
        batches, report = run(session, movies.query, utility)
        no_poll_since(started)
        assert report.exhausted and len(batches) == 9
    for _ in range(20):
        started = time.perf_counter()
        _, report = run(
            session, movies.query, utility, policy=RequestPolicy(first_k_answers=1)
        )
        no_poll_since(started)
        assert report.satisfied
    for _ in range(20):
        started = time.perf_counter()
        token = CancellationToken()
        stream = session.stream(
            movies.query, utility, policy=RequestPolicy(cancellation=token)
        )
        next(stream)
        token.cancel()
        list(stream)
        no_poll_since(started)
        # A deep queue may have finished every plan before the cancel.
        report = session.last_report
        assert report.cancelled or report.exhausted
    assert service_threads() == []
