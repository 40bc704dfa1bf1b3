"""Acceptance: a chaos-stressed service survives a full loadgen run.

Under the bundled ``smoke`` profile (v4 permanently dead, v3 and v5
flaking at 35%), a 20-request load generation run against the TCP
front end must complete with zero transport errors, every reply must
carry degradation accounting, and at least one request must succeed
via fallback plans after the v4 breaker opens.  The chaos draws are
seeded, so what each draw injects is reproducible run to run.
"""

import threading

import pytest

from repro.errors import PermanentSourceError, SourceFailureError
from repro.resilience.chaos import (
    ChaosBackend,
    bundled_profile,
    deterministic_draw,
)
from repro.resilience.manager import ResilienceManager
from repro.service.frontend import start_server
from repro.service.loadgen import run_load
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import QueryRequest, QueryService, ServiceConfig
from repro.utility.cost import BindJoinCost, LinearCost
from repro.workloads.movies import movie_domain
from tests.service.helpers import backoff

REQUESTS = 20
QUERY = "q(T, R) :- play_in(A, T), review_of(R, T)"
FAST_POLICY = RequestPolicy(retry=RetryPolicy(max_attempts=2))


@pytest.fixture
def chaos_served():
    movies = movie_domain()
    resilience = ResilienceManager()
    service = QueryService(
        movies.catalog,
        movies.source_facts,
        measures={
            "linear": LinearCost,
            "failure": lambda: BindJoinCost(failure_aware=True),
        },
        config=ServiceConfig(default_policy=FAST_POLICY),
        backend=ChaosBackend(bundled_profile("smoke"), seed=7),
        resilience=resilience,
    )
    server, _thread = start_server(service, port=0)
    try:
        with backoff():
            yield server, resilience
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


def test_chaos_loadgen_completes_with_degradation_accounting(chaos_served):
    server, resilience = chaos_served
    report = run_load(
        "127.0.0.1",
        server.port,
        [QUERY],
        requests=REQUESTS,
        concurrency=3,
        timeout_s=30.0,
    )
    # Zero unhandled exceptions: every request completed normally.
    assert report.sent == REQUESTS
    assert report.completed == REQUESTS
    assert report.errors == 0
    assert report.rejected == 0
    # Every reply carried the degradation fields.
    assert report.degradation_reported == REQUESTS
    # The dead source tripped its breaker and stayed skipped.
    assert "v4" in report.sources_skipped
    assert report.plans_skipped >= 1
    assert resilience.breaker_states().get("v4") == "open"
    # At least one request still produced answers from fallback plans
    # after the breaker opened.
    assert report.fallback_successes >= 1
    # Degradation survives serialization for the CI artifact.
    payload = report.as_dict()
    assert payload["degradation"]["reported"] == REQUESTS
    assert "v4" in payload["degradation"]["sources_skipped"]


class RecordingChaos(ChaosBackend):
    """The smoke profile at seed 7, recording what each draw injected.

    ``outcomes`` maps ``(source, plan signature, attempt)`` to whether
    the draw failed the attempt.  The backend checks a plan's sources
    in body order, so a flaky source before the one that failed, or on
    an attempt that answered, passed its draw.
    """

    def __init__(self):
        super().__init__(bundled_profile("smoke"), seed=7)
        self.outcomes = {}
        self._tries = {}
        self._record_lock = threading.Lock()

    def execute(self, executable, database):
        signature = str(executable)
        with self._record_lock:
            attempt = self._tries[signature] = self._tries.get(signature, 0) + 1
        failed = None
        try:
            return super().execute(executable, database)
        except (SourceFailureError, PermanentSourceError) as exc:
            failed = exc
            raise
        finally:
            with self._record_lock:
                for atom in executable.body:
                    source = atom.predicate
                    key = (source, signature, attempt)
                    if failed is not None and source == failed.source:
                        if isinstance(failed, SourceFailureError):
                            self.outcomes[key] = True
                        break
                    if self.profile.profile_for(source).transient_prob > 0:
                        self.outcomes[key] = False


def test_same_seed_reproduces_the_same_injected_faults():
    """Seed 7 fixes what every (source, plan, attempt) draw injects.

    Which plans run, and so which draws are made, depends on what the
    breakers saw before each admission, and that on the worker
    schedule; the outcome of a draw that is made does not.
    """
    movies = movie_domain()

    def run_once():
        backend = RecordingChaos()
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            config=ServiceConfig(default_policy=FAST_POLICY),
            backend=backend,
            resilience=ResilienceManager(),
        )
        try:
            with backoff():
                for index in range(6):
                    service.execute(
                        QueryRequest(movies.query, request_id=f"r{index}")
                    )
        finally:
            service.shutdown()
        return backend.outcomes

    first, second = run_once(), run_once()
    common = first.keys() & second.keys()
    assert {first[key] for key in common} == {True, False}
    assert all(first[key] == second[key] for key in common)
    for (source, signature, attempt), failed in {**first, **second}.items():
        draw = deterministic_draw(7, f"{source}:{signature}", attempt)
        assert failed == (draw < 0.35)
