"""Prepared queries: what a served query keeps across its requests.

A service parses each query text once (``QueryService.prepared_query``)
and every request with that text runs on the one query object, which
keeps what depends only on the query and the catalog: its bucket
space, its slot certificates, the fallback search's verdicts and the
compiled join of each executable it keeps.  These tests hold a repeated
text to doing none of that work again, to the stream of a fresh
service, and the kept state to its bounds.
"""

import os
import sys
import threading
from collections import Counter

import pytest

from repro.datalog import engine
from repro.execution import mediator as mediator_module
from repro.reformulation import soundness
from repro.service import protocol
from repro.service import server as server_module
from repro.service.frontend import connect, start_server
from repro.service.server import QueryService
from repro.service.workloads import service_workload
from repro.utility.cost import LinearCost

#: Threads racing on one text: more than the host has cores.
THREADS = 2 * (os.cpu_count() or 1) + 1


def lav_service():
    """A service over the bundled random-LAV catalog, and its query's
    text: some of its plans are certified, some need the search."""
    catalog, facts, measures, query = service_workload("random-lav", 0)
    return QueryService(catalog, facts, measures=measures), str(query)


def execute(service, text, request_id="p"):
    """One request of *text* through the service's table, as served."""
    request = protocol.request_from_record(
        {"query": text, "id": request_id}, parse=service.prepared_query
    )
    result = service.execute(request)
    assert result.status == "ok", result.error
    return result


def stream(result):
    return [
        (b.rank, b.plan.key, b.sound, sorted(b.answers), sorted(b.new_answers))
        for b in result.batches
    ]


def counted(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.fixture
def calls(monkeypatch):
    """Calls of the parse, the bucket build, the certificate and the search."""
    calls = Counter()
    counted(monkeypatch, server_module, "parse_query", calls)
    counted(monkeypatch, mediator_module, "build_buckets", calls)
    counted(monkeypatch, soundness, "_certify", calls)
    counted(monkeypatch, soundness, "_search", calls)
    return calls


def test_a_repeated_text_is_parsed_reformulated_and_checked_once(calls):
    service, text = lav_service()
    first = execute(service, text)
    assert all(calls[name] > 0 for name in (
        "parse_query", "build_buckets", "_certify", "_search"
    )), calls
    calls.clear()
    second = execute(service, text)
    assert calls == Counter(), "the second request redid prepared work"
    assert stream(second) == stream(first)


def test_a_kept_executable_compiles_its_join_once(monkeypatch):
    service, text = lav_service()
    execute(service, text)
    verdicts = service.prepared_query(text)._prepared[soundness._VERDICTS]
    compiled = Counter()
    counted(monkeypatch, engine, "_compile_args", compiled)
    second = execute(service, text)
    # Only the certified plans build a fresh executable, one step per atom.
    fresh = [
        batch for batch in second.batches
        if batch.sound and batch.plan.key not in verdicts
    ]
    kept = [b for b in second.batches if b.sound and b.plan.key in verdicts]
    assert fresh and kept
    assert compiled["_compile_args"] == sum(len(b.plan) for b in fresh)


def test_served_batch_lines_equal_a_fresh_services():
    def lines(service, repeats):
        server, _thread = start_server(service, port=0)
        try:
            with connect("127.0.0.1", server.port) as sock:
                wire = sock.makefile("rwb")
                for _ in range(repeats):
                    wire.write(protocol.encode_line(
                        protocol.request_record(text, request_id="same")
                    ))
                    wire.flush()
                    batches = []
                    while b'"type": "batch"' in (line := wire.readline()):
                        batches.append(line)
                    assert b'"status": "ok"' in line, line
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()
        return batches

    warm, text = lav_service()
    second = lines(warm, repeats=2)
    assert list(warm._prepared) == [text]
    fresh, _ = lav_service()
    assert second and second == lines(fresh, repeats=1)


def test_threads_on_one_text_share_one_query_and_stream_alike():
    # More threads than cores, switching often, all racing to fill one
    # fresh service: each must get the one kept query object and the
    # stream a lone request gets.
    expected = stream(execute(*lav_service()))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            service, text = lav_service()
            start = threading.Barrier(THREADS)
            results, queries = [None] * THREADS, [None] * THREADS

            def run(slot):
                start.wait(timeout=10)
                results[slot] = execute(service, text, request_id=f"t{slot}")
                queries[slot] = service.prepared_query(text)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert [stream(result) for result in results] == [expected] * THREADS
            assert all(query is queries[0] for query in queries)
    finally:
        sys.setswitchinterval(previous)


def test_the_text_table_keeps_the_newest_texts(monkeypatch):
    monkeypatch.setattr(server_module, "PREPARED_QUERIES", 2)
    service, _ = lav_service()
    texts = [f"q(X) :- rel{i}(X, Y)" for i in range(3)]
    oldest, *kept = [service.prepared_query(text) for text in texts]
    assert list(service._prepared) == texts[1:]
    assert all(
        service.prepared_query(text) is query
        for text, query in zip(texts[1:], kept)
    )
    assert service.prepared_query(texts[0]) is not oldest


def test_the_verdicts_per_query_stop_at_their_cap(monkeypatch, calls):
    monkeypatch.setattr(soundness, "SEARCH_VERDICTS", 3)
    service, text = lav_service()
    first = execute(service, text)
    searched = calls["_search"]
    assert searched > 3
    verdicts = service.prepared_query(text)._prepared[soundness._VERDICTS]
    assert len(verdicts) == 3
    calls.clear()
    assert stream(execute(service, text)) == stream(first)
    assert calls["_search"] == searched - 3
    assert len(verdicts) == 3


def test_a_source_added_after_a_request_is_in_the_next_requests_buckets(movies):
    service = QueryService(
        movies.catalog, movies.source_facts, measures={"linear": LinearCost}
    )
    text = str(movies.query)
    before = {b.plan.key for b in execute(service, text).batches}
    movies.catalog.add_source("v7(R, M) :- review_of(R, M)")
    after = {b.plan.key for b in execute(service, text).batches}
    assert before < after
    assert {key[-1] for key in after - before} == {"v7"}


def test_certified_plans_leave_no_per_plan_entry(movies):
    service = QueryService(
        movies.catalog, movies.source_facts, measures={"linear": LinearCost}
    )
    text = str(movies.query)
    result = execute(service, text)
    assert len(result.batches) == 9 and all(b.sound for b in result.batches)
    prepared = service.prepared_query(text)._prepared
    # Certificates per (slot, source), the free variables, the space.
    assert soundness._VERDICTS not in prepared
    assert {key for key in prepared if not isinstance(key, tuple)} == {
        soundness._FREE, mediator_module._SPACE
    }
    assert all(
        isinstance(slot, int) and isinstance(name, str)
        for slot, name in (key for key in prepared if isinstance(key, tuple))
    )
