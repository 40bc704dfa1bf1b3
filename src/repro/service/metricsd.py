"""A tiny stdlib HTTP endpoint exposing Prometheus metrics.

``start_metrics_server`` binds a threading HTTP server with two
routes:

* ``GET /metrics`` — calls the supplied ``text_fn`` (usually
  :meth:`QueryService.prometheus_text`) and returns its output with
  the Prometheus text-format content type;
* ``GET /healthz`` — a constant ``ok`` body for liveness probes.

Everything else is 404.  The server runs on a daemon thread so a CLI
``repro serve --metrics-port`` process can be killed without
ceremony; proper shutdown is ``server.shutdown(); server.server_close()``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

__all__ = ["MetricsHTTPServer", "start_metrics_server"]

#: The content type scrapers expect for text exposition format 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _MetricsHandler(BaseHTTPRequestHandler):
    server: "MetricsHTTPServer"

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # a scrape every few seconds would drown the CLI's real output.
    def log_message(self, format: str, *args: object) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                body = self.server.text_fn().encode("utf-8")
            except Exception as exc:  # any failure is a 500
                self._respond(500, f"metrics render failed: {exc}\n".encode())
                return
            self._respond(200, body, content_type=CONTENT_TYPE)
        elif path == "/healthz":
            self._respond(200, b"ok\n")
        else:
            self._respond(404, b"not found\n")

    def _respond(
        self, status: int, body: bytes, content_type: str = "text/plain"
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # scraper went away mid-response


class MetricsHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to a metrics-text callable."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], text_fn: Callable[[], str]
    ) -> None:
        super().__init__(address, _MetricsHandler)
        self.text_fn = text_fn

    @property
    def port(self) -> int:
        return self.server_address[1]


def start_metrics_server(
    text_fn: Callable[[], str],
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[MetricsHTTPServer, threading.Thread]:
    """Serve ``/metrics`` in a background thread; ``port=0`` picks one."""
    server = MetricsHTTPServer((host, port), text_fn)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-metricsd",
        daemon=True,
    )
    thread.start()
    return server, thread
