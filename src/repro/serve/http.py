"""Stdlib-only JSON-over-HTTP front end for the prediction service.

Protocol (all bodies are JSON):

- ``GET /healthz`` -> ``{"ok": true}``
- ``GET /stats`` -> the :meth:`PredictionService.stats_snapshot` body
- ``POST /v1/select`` with ``{"stencil": <stencil>, "gpu": "V100"}``
  -> ``{"oc": ..., "source": "model"|"fallback", ...}``; or
  ``{"requests": [...]}`` -> ``{"results": [...]}``
- ``POST /v1/predict`` with ``{"stencil": <stencil>, "oc": "ST_RT",
  "setting": {...}, "gpu": "V100"}`` -> ``{"time_ms": ...}``; batched
  form as above.

``<stencil>`` is either a library name (``"star2d2r"``) or an inline
``{"ndim": ..., "offsets": [[...], ...]}`` document (the campaign
storage format).  Single-item bodies may carry ``"budget_ms"``, a
per-request deadline budget forwarded to the admission controller.

Status mapping:

- Client errors (bad payloads, unknown GPUs/OCs) -> 400.
- A missing or oversized ``Content-Length`` -> 413; a malformed
  (non-integer) one -> 400.  Bodies are read only after the bound
  check, so an abusive client cannot make a handler thread buffer
  gigabytes.
- A shed request (:class:`~repro.errors.OverloadError`: admission
  queue full, or deadline expired before compute) -> 503 with a
  ``Retry-After`` header -- the client-visible half of load shedding.
- Unexpected failures -> 500.
- ``/healthz`` stays 200 while the process can answer at all, but its
  ``status`` field degrades to ``"overloaded"`` before requests are
  hard-shed (see :meth:`PredictionService.health`).

Requests are served on a thread per connection
(``ThreadingHTTPServer``), which is exactly the concurrency the
service's micro-batcher coalesces.  The server counts in-flight
connections so a draining shutdown can wait for them.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import OverloadError, ReproError, ServiceError
from ..profiling.storage import stencil_from_dict
from ..stencil import library
from ..stencil.stencil import Stencil
from .admission import _UNSET
from .service import PredictionService, setting_from_dict

#: Largest accepted request body; a service endpoint is not a file drop.
MAX_BODY_BYTES = 4 * 1024 * 1024


class _HttpError(Exception):
    """A request rejected before (or instead of) service dispatch."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _budget_s(doc: dict):
    """The request's deadline budget in seconds (unset -> policy default)."""
    raw = doc.get("budget_ms")
    if raw is None:
        return _UNSET
    try:
        return float(raw) / 1e3
    except (TypeError, ValueError):
        raise ServiceError(
            f"budget_ms must be a number, got {raw!r}"
        ) from None


def parse_stencil(doc) -> Stencil:
    """A stencil from its request form: library name or inline offsets."""
    if isinstance(doc, str):
        try:
            return library.get(doc)
        except ReproError:
            raise ServiceError(f"unknown stencil name {doc!r}") from None
    if isinstance(doc, dict):
        try:
            return stencil_from_dict(doc)
        except ReproError as e:
            raise ServiceError(f"bad stencil document: {e}") from None
    raise ServiceError(
        "stencil must be a library name or an {ndim, offsets} object"
    )


def _select_payload(service: PredictionService, doc: dict) -> dict:
    from .service import SelectRequest

    if "requests" in doc:
        reqs = [
            SelectRequest(parse_stencil(r.get("stencil")), str(r.get("gpu")))
            for r in doc["requests"]
        ]
        results = service.select_many(reqs)
        return {"results": [_select_result(r) for r in results]}
    result = service.select(
        parse_stencil(doc.get("stencil")),
        str(doc.get("gpu")),
        budget_s=_budget_s(doc),
    )
    return _select_result(result)


def _select_result(r) -> dict:
    return {
        "oc": r.oc,
        "source": r.source,
        "class": r.cls,
        "artifact": r.artifact,
        "rung": r.rung,
    }


def _predict_payload(service: PredictionService, doc: dict) -> dict:
    from .service import PredictRequest

    if "requests" in doc:
        reqs = [
            PredictRequest(
                parse_stencil(r.get("stencil")),
                str(r.get("oc")),
                setting_from_dict(r.get("setting")),
                str(r.get("gpu")),
            )
            for r in doc["requests"]
        ]
        times = service.predict_many(reqs)
        return {"results": [{"time_ms": t} for t in times]}
    t = service.predict(
        parse_stencil(doc.get("stencil")),
        str(doc.get("oc")),
        setting_from_dict(doc.get("setting")),
        str(doc.get("gpu")),
        budget_s=_budget_s(doc),
    )
    return {"time_ms": t}


class ServeHandler(BaseHTTPRequestHandler):
    """Request handler bound to a service via the server object."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> PredictionService:
        return self.server.service  # type: ignore[attr-defined]

    # Quiet by default: the service keeps structured telemetry instead
    # of an access log; opt back in with server.verbose = True.
    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    def _send_json(
        self, status: int, payload: dict,
        headers: "dict[str, str] | None" = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            # Without a declared length the only safe read bound is the
            # connection itself; reject instead of buffering blind.
            raise _HttpError(
                413, "missing Content-Length header (chunked or unbounded "
                     "bodies are not accepted)"
            )
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(
                400, f"malformed Content-Length header {raw_length!r}"
            ) from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES} byte limit"
            )
        if length <= 0:
            raise ServiceError("missing request body")
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ServiceError(f"request body is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ServiceError("request body must be a JSON object")
        return doc

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, self.service.health())
        elif self.path == "/stats":
            self._send_json(200, self.service.stats_snapshot())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        handlers = {"/v1/select": _select_payload, "/v1/predict": _predict_payload}
        handler = handlers.get(self.path)
        if handler is None:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        endpoint = self.path.rsplit("/", 1)[-1]
        try:
            doc = self._read_body()
            self._send_json(200, handler(self.service, doc))
        except _HttpError as e:
            self.service.stats.count_error(endpoint)
            self._send_json(e.status, {"error": str(e)})
        except OverloadError as e:
            # Shed, not failed: the admission controller already counted
            # it; tell the client when to come back.
            self._send_json(
                503,
                {"error": str(e), "kind": e.kind},
                headers={"Retry-After": f"{e.retry_after_s:.3f}"},
            )
        except ReproError as e:
            self.service.stats.count_error(endpoint)
            self._send_json(400, {"error": str(e)})
        except Exception as e:  # noqa: BLE001 - last-resort 500
            self.service.stats.count_error(endpoint)
            self._send_json(500, {"error": f"internal error: {e}"})


class ServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: PredictionService,
                 verbose: bool = False):
        super().__init__(address, ServeHandler)
        self.service = service
        self.verbose = verbose
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()

    # ------------------------------------------------------------------
    def finish_request(self, request, client_address) -> None:
        """Handle one connection, counted for draining shutdowns."""
        with self._in_flight_lock:
            self._in_flight += 1
        try:
            super().finish_request(request, client_address)
        finally:
            with self._in_flight_lock:
                self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        """Connections currently being handled (drain watches this)."""
        with self._in_flight_lock:
            return self._in_flight


def make_server(
    service: PredictionService, host: str = "127.0.0.1", port: int = 0,
    verbose: bool = False,
) -> ServeServer:
    """Bind a server (``port=0`` picks a free ephemeral port)."""
    return ServeServer((host, port), service, verbose=verbose)


def drain(server: ServeServer, timeout_s: float = 5.0) -> bool:
    """Graceful shutdown: stop accepting, wait out in-flight work.

    Returns ``True`` when every in-flight connection finished within
    *timeout_s*; the server socket is closed either way (a drain
    timeout abandons the stragglers rather than hanging shutdown).
    """
    import time

    server.shutdown()  # stops serve_forever: no new connections accepted
    deadline = time.monotonic() + max(0.0, timeout_s)
    while server.in_flight > 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    drained = server.in_flight == 0
    server.server_close()
    return drained
