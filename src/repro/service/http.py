"""Localhost HTTP/JSON front-end for the job service.

Pure stdlib (:mod:`http.server`): a threading HTTP server whose
handler threads call straight into the thread-safe
:class:`~repro.service.service.JobService` API.  The surface is a
minimal JSON REST shape::

    GET  /health            liveness + the typed request kinds
    GET  /stats             queue / worker / cache / coalescing counters
    POST /jobs              {"kind", "params", "priority"} -> job view
    GET  /jobs/<id>         job view; ?wait=SECONDS long-polls until
                            the job is terminal (bounded per request)
    POST /jobs/<id>/cancel  {"cancelled": bool}
    POST /shutdown          stop accepting HTTP requests (the CLI then
                            drains the service); replies before dying

Bodies and replies are JSON; errors are ``{"error": message}`` with
400 (bad request), 404 (unknown job), 405 (bad method) or 503
(shutting down).  Circuits travel inside ``params`` as OpenQASM 2
text, so any HTTP client in any language can drive the service.
Only the typed kinds of :data:`~repro.service.requests.REQUEST_TYPES`
are accepted; the internal ``_sleep``/``_crash`` kinds get a 400.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .requests import REQUEST_TYPES
from .service import JobService, ServiceUnavailable

__all__ = ["ServiceHTTPServer", "make_server"]

_MAX_WAIT = 30.0  # cap one long-poll request; clients re-poll
_MAX_BODY = 64 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`JobService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: JobService,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.quiet = quiet


def make_server(
    service: JobService,
    host: str = "127.0.0.1",
    port: int = 8976,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind (but do not run) the front-end; port 0 picks a free port."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _reply(self, code: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._reply(code, {"error": message})

    def _read_body(self) -> Dict[str, Any]:
        """Read and parse the request body.

        Always consumes the body (up to the size cap) before any reply
        can be written: leaving unread bytes on a keep-alive connection
        would be parsed as the next request line.  Oversized bodies are
        rejected and the connection closed instead of drained.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # nothing was read, so the socket cannot be reused safely
            self.close_connection = True
            raise ValueError("invalid Content-Length header") from None
        if length < 0:
            self.close_connection = True
            raise ValueError("invalid Content-Length header")
        if length > _MAX_BODY:
            self.close_connection = True
            raise ValueError("request body too large")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode())
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        parsed = urllib.parse.urlsplit(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["health"]:
            self._reply(
                200, {"status": "ok", "kinds": sorted(REQUEST_TYPES)}
            )
        elif parts == ["stats"]:
            self._reply(200, self.server.service.stats())
        elif len(parts) == 2 and parts[0] == "jobs":
            self._get_job(parts[1], urllib.parse.parse_qs(parsed.query))
        else:
            self._error(404, f"no such route: GET {parsed.path}")

    def _get_job(self, job_id: str, query: Dict[str, list]) -> None:
        service = self.server.service
        wait: Optional[float] = None
        if "wait" in query:
            try:
                wait = min(_MAX_WAIT, max(0.0, float(query["wait"][0])))
            except ValueError:
                self._error(400, "wait must be a number of seconds")
                return
        try:
            if wait:
                service.wait([job_id], timeout=wait)
            view = service.status(job_id)
        except KeyError as exc:
            self._error(404, exc.args[0])
            return
        self._reply(200, view)

    def do_POST(self) -> None:  # noqa: N802
        parsed = urllib.parse.urlsplit(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        try:
            # consume the body up front, whatever the route, so error
            # replies never leave stray bytes on a keep-alive socket
            body = self._read_body()
            if parts == ["jobs"]:
                self._submit_job(body)
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "cancel"
            ):
                self._cancel_job(parts[1])
            elif parts == ["shutdown"]:
                self._shutdown()
            else:
                self._error(404, f"no such route: POST {parsed.path}")
        except ValueError as exc:
            # malformed JSON, bad params, unparsable QASM
            self._error(400, exc.args[0] if exc.args else str(exc))
        except ServiceUnavailable as exc:
            self._error(503, str(exc))

    def _submit_job(self, body: Dict[str, Any]) -> None:
        kind = body.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ValueError("submission needs a string 'kind'")
        if kind not in REQUEST_TYPES:
            raise ValueError(
                f"unknown request kind {kind!r}; "
                f"expected one of {', '.join(sorted(REQUEST_TYPES))}"
            )
        priority = body.get("priority", 0)
        if not isinstance(priority, int):
            raise ValueError("priority must be an integer")
        service = self.server.service
        job_id = service.submit(
            kind, body.get("params") or {}, priority=priority
        )
        self._reply(200, service.status(job_id))

    def _cancel_job(self, job_id: str) -> None:
        try:
            cancelled = self.server.service.cancel(job_id)
        except KeyError as exc:
            self._error(404, exc.args[0])
            return
        self._reply(200, {"id": job_id, "cancelled": cancelled})

    def _shutdown(self) -> None:
        self._reply(200, {"status": "shutting down"})
        # shutdown() blocks until serve_forever returns, so it must run
        # off this handler thread (which serve_forever is waiting on)
        threading.Thread(
            target=self.server.shutdown, name="repro-serve-shutdown"
        ).start()

    def do_DELETE(self) -> None:  # noqa: N802
        parts = [p for p in urllib.parse.urlsplit(self.path).path.split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            self._cancel_job(parts[1])
        else:
            self._error(405, "DELETE is only supported on /jobs/<id>")
