"""JSON-over-HTTP frontend for :class:`~repro.service.MiningService`.

Deliberately stdlib-only (``http.server``): the repo has a
zero-dependency rule outside NumPy, and a threading HTTP server is
enough to exercise the service's real concurrency — each request
handler thread blocks in ``service.query`` while the scheduler's
worker pool does the mining, so admission control, coalescing, and
cache behaviour are identical to the Python API's.

Endpoints (version 1, under ``/v1``)
------------------------------------
``GET /v1/healthz``
    ``{"status": "ok"}`` — liveness probe.
``GET /v1/readyz``
    Readiness probe: 200 when datasets are preloaded and the worker
    pool is healthy, 503 otherwise (body says why).
``GET /v1/metrics``
    The whole metrics registry in Prometheus text exposition format
    (version 0.0.4), including p50/p90/p99 gauges for histograms.
``GET /v1/datasets``
    Registered dataset names; resident entries include their profile,
    shard plan, and pinned hybrid layout.
``GET /v1/stats``
    Registry / cache / scheduler / flight-recorder stats plus the
    full ``service.*`` metrics snapshot.
``GET /v1/debug/queries``
    The flight recorder's ring: most recent queries first (summaries,
    no span trees). ``GET /v1/debug/queries/<id>`` returns one record
    with options, metrics delta, and the full nested span tree.
``POST /v1/mine``
    Body: ``{"dataset": str, "min_support": float|int,
    "algorithm"?: str, "max_k"?: int, "timeout"?: float,
    ...per-algorithm options}`` — a 1:1 JSON image of
    :class:`~repro.core.request.MiningRequest`, which is exactly how
    the body is parsed and validated. Response: ``{"dataset",
    "algorithm", "source", "abs_support", "elapsed_seconds",
    "result"}`` where ``result`` is the shared
    :meth:`MiningResult.to_dict` document — byte-comparable with
    ``gpapriori mine --json``.

Every legacy unversioned path (``/healthz``, ``/mine``, ...) keeps
answering as an alias of its ``/v1`` form, with a ``Deprecation:
true`` response header so clients can find and migrate stragglers.
The ``http.requests`` metric labels routes by their canonical ``/v1``
form regardless of which spelling was requested.

Error mapping: malformed request → 400, unknown dataset → 404,
admission queue full → 429, missed deadline → 504, anything else the
library raises deliberately → 400/500 with ``{"error": ..., "type":
...}``.
"""

from __future__ import annotations

import json
import logging
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Tuple

from ..errors import (
    DatasetError,
    QueryTimeoutError,
    ReproError,
    ServiceOverloadError,
)
from ..obs.logging import get_logger, log_event
from ..obs.promexpo import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..obs.promexpo import render_prometheus
from .service import MiningService

__all__ = ["API_VERSION", "MiningHTTPServer", "MiningRequestHandler", "make_server"]

logger = get_logger("httpd")

API_VERSION = "v1"
"""The current (and only) HTTP API version prefix."""

_V1_ROUTES = (
    "/v1/healthz",
    "/v1/readyz",
    "/v1/metrics",
    "/v1/datasets",
    "/v1/stats",
    "/v1/mine",
    "/v1/debug/queries",
)


def _canonical_path(path: str) -> str:
    """Map any accepted spelling of a route onto its ``/v1`` form.

    ``/`` aliases the liveness probe; a bare legacy path gains the
    version prefix. Unknown paths come back prefixed too — the 404
    branch reports the path the client actually sent.
    """
    if path in ("", "/", "/v1", "/v1/"):
        return "/v1/healthz"
    if path.startswith("/v1/"):
        return path
    return "/v1" + path


def _is_legacy(path: str) -> bool:
    """Whether the request used a deprecated unversioned spelling."""
    return not (path == "/v1" or path.startswith("/v1/"))


def _route_label(path: str) -> str:
    """Collapse a request path onto a bounded label set.

    Metrics labels must not have unbounded cardinality, so paths are
    canonicalized to their ``/v1`` form first, ids are normalized
    (``/v1/debug/queries/q000123`` → ``/v1/debug/queries/:id``) and
    anything unrecognized becomes ``other``.
    """
    canonical = _canonical_path(path)
    if canonical.startswith("/v1/debug/queries/"):
        return "/v1/debug/queries/:id"
    if canonical in _V1_ROUTES:
        return canonical
    return "other"

MAX_BODY_BYTES = 1 << 20
"""Request bodies over 1 MiB are rejected outright (a mining query is
a few hundred bytes; anything bigger is a client bug or abuse)."""


class MiningRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request against the owning server's MiningService."""

    server: "MiningHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- helpers ------------------------------------------------------------

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if _is_legacy(self.path):
            # legacy unversioned alias: answer, but tell clients to move
            self.send_header("Deprecation", "true")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._observe_request(status)

    def _send_json(
        self, status: int, payload: Dict, headers: Dict[str, str] | None = None
    ) -> None:
        self._send_body(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            headers=headers,
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_error_json(self, status: int, exc: BaseException) -> None:
        self._send_json(status, {"error": str(exc), "type": type(exc).__name__})

    def _observe_request(self, status: int) -> None:
        """Per-request telemetry: labeled counter + structured log line."""
        route = _route_label(self.path)
        started = getattr(self, "_t_request", None)
        duration_ms = (
            round((time.perf_counter() - started) * 1000.0, 3)
            if started is not None
            else None
        )
        self.server.service.metrics.inc(
            "http.requests",
            labels={"method": self.command, "route": route, "status": str(status)},
        )
        log_event(
            logger,
            logging.INFO,
            "http.request",
            method=self.command,
            path=self.path,
            route=route,
            status=status,
            duration_ms=duration_ms,
        )

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        if self.server.verbose:
            super().log_message(fmt, *args)

    # -- GET ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._t_request = time.perf_counter()
        service = self.server.service
        path = _canonical_path(self.path)
        if path == "/v1/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/v1/readyz":
            readiness = service.ready()
            self._send_json(200 if readiness["ready"] else 503, readiness)
        elif path == "/v1/metrics":
            self._send_text(
                200, render_prometheus(service.metrics), PROMETHEUS_CONTENT_TYPE
            )
        elif path == "/v1/datasets":
            resident = {
                e.name: e.as_dict()
                for e in (
                    service.registry.get(n) for n in service.registry.resident()
                )
            }
            self._send_json(
                200,
                {"registered": service.registry.names(), "resident": resident},
            )
        elif path == "/v1/stats":
            self._send_json(200, service.stats())
        elif path == "/v1/debug/queries":
            self._send_json(
                200,
                {
                    "queries": [r.summary() for r in service.flight.last()],
                    **service.flight.stats(),
                },
            )
        elif path.startswith("/v1/debug/queries/"):
            query_id = path[len("/v1/debug/queries/"):]
            record = service.flight.get(query_id)
            if record is None:
                self._send_json(404, {"error": f"no such query: {query_id}"})
            else:
                self._send_json(200, record.detail())
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    # -- POST ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._t_request = time.perf_counter()
        if _canonical_path(self.path) != "/v1/mine":
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(
                400, {"error": f"body must be 1..{MAX_BODY_BYTES} bytes"}
            )
            return
        try:
            doc = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"body is not valid JSON: {exc}"})
            return
        status, payload, headers = self._run_query(doc)
        self._send_json(status, payload, headers=headers)

    def _run_query(self, doc) -> Tuple[int, Dict, Dict[str, str] | None]:
        if not isinstance(doc, dict):
            return 400, {"error": "body must be a JSON object"}, None
        if "dataset" not in doc or "min_support" not in doc:
            return 400, {"error": "body requires 'dataset' and 'min_support'"}, None
        options = dict(doc)
        dataset = options.pop("dataset")
        if not isinstance(dataset, str):
            return 400, {"error": "'dataset' must be a string"}, None
        # The body is the 1:1 JSON image of a MiningRequest: known
        # fields map onto the query's parameters, everything else is
        # an option. The service builds the request inside its traced
        # span, where the flight recorder sees validation errors too.
        service = self.server.service
        try:
            response = service.query(dataset, **options)
        except DatasetError as exc:
            return 404, {"error": str(exc), "type": type(exc).__name__}, None
        except ServiceOverloadError as exc:
            # Retry-After tells well-behaved clients how long to back
            # off; the value comes from the service's retry policy so
            # both sides of the wire share one backoff schedule.
            retry_after = service.retry.retry_after_seconds
            return (
                429,
                {
                    "error": str(exc),
                    "type": type(exc).__name__,
                    "retry_after_seconds": retry_after,
                },
                {"Retry-After": str(retry_after)},
            )
        except QueryTimeoutError as exc:
            return 504, {"error": str(exc), "type": type(exc).__name__}, None
        except ReproError as exc:
            return 400, {"error": str(exc), "type": type(exc).__name__}, None
        return 200, response.as_dict(), None


class MiningHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`MiningService`.

    ``daemon_threads`` keeps a hung handler from blocking shutdown;
    the per-query deadline is the service's job, not the socket's.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: MiningService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, MiningRequestHandler)
        self.service = service
        self.verbose = verbose

    @property
    def port(self) -> int:
        """The bound port (useful with ephemeral ``port=0``)."""
        return self.server_address[1]

    def get_request(self):
        """Accept a connection with Nagle's algorithm off.

        The handler writes headers and body in separate sends; with
        Nagle on, a kept-alive response's second send waits for the
        client's delayed ACK (about 40 ms).
        """
        conn, addr = super().get_request()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn, addr


def make_server(
    service: MiningService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> MiningHTTPServer:
    """Bind (but do not start) a server; ``port=0`` picks a free port."""
    return MiningHTTPServer((host, port), service, verbose=verbose)
