"""Tests for the Prometheus metrics HTTP endpoint."""

import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.observability.metrics import MetricRegistry
from repro.observability.prometheus import render_registry
from repro.service.metricsd import CONTENT_TYPE, start_metrics_server
from repro.service.server import QueryService, ServiceConfig
from repro.utility.cost import LinearCost
from tests.service.helpers import join_threads_since, reset


@pytest.fixture
def metrics_server():
    registry = MetricRegistry()
    registry.counter("requests").inc(5)
    registry.gauge("depth").set(2)
    registry.histogram("latency_s").observe(0.25)
    server, _thread = start_metrics_server(lambda: render_registry(registry))
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _get(port: int, path: str):
    return urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5.0
    )


class TestMetricsEndpoint:
    def test_scrape_is_parseable_prometheus_text(self, metrics_server, capsys):
        with _get(metrics_server.port, "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == CONTENT_TYPE
            payload = response.read()
            assert int(response.headers["Content-Length"]) == len(payload)
        body = payload.decode("utf-8")
        # A scrape every few seconds must not write to the server's stderr.
        assert capsys.readouterr().err == ""
        assert "repro_requests_total 5" in body
        assert "repro_depth 2" in body
        # Every non-comment line is `name{labels} value` or `name value`
        # with a float-parseable value — what a scraper requires.
        for line in body.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            if value not in ("+Inf", "-Inf"):
                float(value)

    def test_a_scraper_that_hangs_up_ends_quietly(self, capsys):
        # The scraper reads the first bytes of a response far larger
        # than the socket buffers, then resets its connection while the
        # body is still being written; socketserver would print the
        # error's traceback.
        server, _thread = start_metrics_server(lambda: "x" * (8 << 20))
        try:
            before = set(threading.enumerate())
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            assert sock.recv(1)
            reset(sock)
            join_threads_since(before)
        finally:
            server.shutdown()
            server.server_close()
        assert capsys.readouterr().err == ""

    def test_a_scraper_that_hangs_up_before_the_headers_ends_quietly(
        self, capsys
    ):
        # The reset lands while the text is still being rendered, so
        # the first write that fails is the flush of the headers.
        rendering, hung_up = threading.Event(), threading.Event()

        def text_fn():
            rendering.set()
            assert hung_up.wait(timeout=5.0)
            return "x"

        server, _thread = start_metrics_server(text_fn)
        try:
            before = set(threading.enumerate())
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            assert rendering.wait(timeout=5.0)
            reset(sock)
            hung_up.set()
            join_threads_since(before)
        finally:
            server.shutdown()
            server.server_close()
        assert capsys.readouterr().err == ""

    def test_healthz(self, metrics_server):
        with _get(metrics_server.port, "/healthz") as response:
            assert response.status == 200
            assert response.read() == b"ok\n"

    def test_unknown_path_is_404(self, metrics_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(metrics_server.port, "/nope")
        assert excinfo.value.code == 404

    def test_query_string_ignored(self, metrics_server):
        with _get(metrics_server.port, "/metrics?format=text") as response:
            assert response.status == 200

    def test_render_failure_is_500(self):
        def broken() -> str:
            raise RuntimeError("registry gone")

        server, _thread = start_metrics_server(broken)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.port, "/metrics")
            assert excinfo.value.code == 500
        finally:
            server.shutdown()
            server.server_close()


class TestServicePrometheusText:
    def test_service_registry_scrapes_end_to_end(self, movies):
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            measures={"linear": LinearCost},
            config=ServiceConfig(max_concurrent=2),
        )
        server, _thread = start_metrics_server(service.prometheus_text)
        try:
            from repro.service.server import QueryRequest

            assert service.execute(
                QueryRequest(movies.query, request_id="scrape-1")
            ).status == "ok"
            with _get(server.port, "/metrics") as response:
                body = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
        assert body.startswith("# TYPE repro_")
        assert "repro_service_requests_total" in body

    def test_a_separate_resilience_registry_is_scraped_too(self, movies):
        # What ``serve --chaos`` builds: the manager owns its registry.
        from repro.resilience.manager import ResilienceManager
        from repro.service.server import QueryRequest

        service = QueryService(
            movies.catalog,
            movies.source_facts,
            resilience=ResilienceManager(registry=MetricRegistry()),
        )
        assert service.execute(QueryRequest(movies.query)).status == "ok"
        text = service.prometheus_text()
        assert "repro_service_requests_total 1" in text
        assert "repro_resilience_breaker_v1_state 0" in text
