"""The HTTP/JSON front-end: asyncio streams speaking just enough HTTP/1.1.

Endpoints (all responses are JSON unless noted):

* ``POST /verify``  — body ``{"prefix", "as_path", "collector"?,
  "deadline_s"?}`` → the route report (see
  :func:`repro.serve.core.report_as_dict`; the body arrives from the
  request core already encoded and is written as is).
* ``POST /explain`` — same body → the report plus decision-provenance
  ``events``.
* ``GET /healthz``  — liveness, headline counters, index
  generation/serials, and (with a worker pool) supervisor state; 503
  while draining *or* degraded to serial execution.
* ``GET /metrics``  — Prometheus exposition text for the session's
  registry (content type ``text/plain; version=0.0.4``).
* ``GET /debug/flight`` — the live flight ring (see
  :mod:`repro.obs.events`); filter with ``?id=``, ``&type=`` (repeat
  for several), ``&since=``/``&until=`` (epoch seconds), ``&limit=``.
* ``POST /reload``  — body ``{"journal": <journal jsonable>}`` or
  ``{"journal_path": "<file>"}`` → hot-swap the deltas into the live
  index (already-absorbed serials are skipped, so retries are
  idempotent); responds with the applied count, the new generation, and
  the per-source serials.

Every request is assigned a correlation id — a client-sent
``X-Request-Id`` header is honored when it is a clean token — and the id
is echoed as ``X-Request-Id`` on *every* response, success and error
alike, so a client can grep its id straight into the access log and
flight ring.

Error mapping: malformed request → 400, backpressure → 429 (with
``Retry-After``), deadline expiry → 504, unknown path → 404, anything
unexpected → 500.  Every error body is ``{"error": <code>, "detail":
<message>}``.  A response's ``Connection`` header says what the server
then does: ``close`` whenever the request asked for it (HTTP/1.0,
``Connection: close``) or its framing was unusable (malformed request
line, head over ``MAX_HEADER_BYTES``, bad ``Content-Length``, oversized
or chunked body) or the daemon is shutting down, ``keep-alive`` otherwise.

This is deliberately a hand-rolled stream handler, not
``http.server``: the daemon is a single asyncio process and the request
core is already async, so a thread-per-connection HTTP stack would just
reintroduce the contention the batcher removes.  Keep-alive is
supported; pipelining is not (requests on one connection are handled in
order).  The listening socket and the connections' lifecycle — including
a shutdown that never waits on a client — are
:class:`~repro.serve.frontend.StreamFrontend`'s.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs

from repro.obs import PROMETHEUS_CONTENT_TYPE, render_prometheus_snapshot
from repro.serve.core import (
    BadRequestError,
    BusyError,
    DeadlineExpired,
    Query,
    ServeError,
    _json_bytes,
)
from repro.serve.frontend import StreamFrontend

__all__ = ["HttpFrontend", "MAX_BODY_BYTES", "MAX_HEADER_BYTES"]

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

# ServeError code → HTTP status.
_ERROR_STATUS = {
    BadRequestError.code: 400,
    BusyError.code: 429,
    DeadlineExpired.code: 504,
}


class _HttpError(Exception):
    """Protocol-level failure (before the request core is reached).

    ``close`` marks a framing failure: where this request ends is
    unknown, so the connection cannot carry another one.
    """

    def __init__(self, status: int, detail: str, *, close: bool = False):
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.close = close


class HttpFrontend(StreamFrontend):
    """The HTTP protocol over the shared connection lifecycle."""

    protocol = "http"
    limit = MAX_HEADER_BYTES

    # -- connection handling ----------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bytes | None:
        """The next request's head, terminator included (EOF — between
        requests, or the client left mid-head — ends the connection)."""
        try:
            return await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            await self._send_error(writer, 400, "headers too large", keep_alive=False)
            return None

    async def _respond(
        self, head: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        request_line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
        try:
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            await self._send_error(
                writer, 400, "malformed request line", keep_alive=False
            )
            return False
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = version != "HTTP/1.0" and (
            headers.get("connection", "").lower() != "close"
        )
        target_path, _, query_string = target.partition("?")
        telemetry = self.service.new_telemetry(
            "http", headers.get("x-request-id")
        )
        id_headers: tuple[tuple[str, str], ...] = ()
        if telemetry is not None:
            telemetry.endpoint = target_path.lstrip("/") or "/"
            id_headers = (("X-Request-Id", telemetry.request_id),)
        try:
            body = await self._read_body(reader, headers)
            status, payload, content_type = await self._route(
                method, target_path, query_string, body, telemetry
            )
        except _HttpError as exc:
            self.service.finish_telemetry(
                telemetry, "bad-request" if exc.status < 500 else "error"
            )
            keep_alive = keep_alive and not exc.close
            await self._send_error(
                writer,
                exc.status,
                exc.detail,
                keep_alive=keep_alive,
                extra_headers=id_headers,
            )
            return keep_alive
        except ServeError as exc:
            status = _ERROR_STATUS.get(exc.code, 500)
            self.service.finish_telemetry(telemetry, exc.code)
            await self._send_error(
                writer,
                status,
                str(exc),
                keep_alive=keep_alive,
                code=exc.code,
                extra_headers=id_headers,
            )
            return keep_alive
        except Exception as exc:  # noqa: BLE001 - request isolation
            self._log.exception("unhandled error serving %s %s", method, target)
            self.service.finish_telemetry(telemetry, "error")
            await self._send_error(
                writer, 500, str(exc), keep_alive=keep_alive, extra_headers=id_headers
            )
            return keep_alive
        # For submitted queries the service already closed the record;
        # the GET endpoints (healthz/metrics/debug) close here.
        self.service.finish_telemetry(telemetry, "ok")
        await self._send(
            writer,
            status,
            payload,
            content_type,
            keep_alive,
            extra_headers=id_headers,
        )
        return keep_alive

    async def _read_body(self, reader: asyncio.StreamReader, headers: dict) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(400, "bad Content-Length", close=True)
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"body larger than {MAX_BODY_BYTES} bytes", close=True
            )
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _HttpError(400, "chunked bodies are not supported", close=True)
        return await reader.readexactly(length) if length else b""

    # -- dispatch ----------------------------------------------------------

    async def _route(
        self, method: str, path: str, query_string: str, body: bytes, telemetry
    ) -> tuple[int, bytes, str]:
        if path in ("/verify", "/explain"):
            if method != "POST":
                raise _HttpError(405, f"{path} expects POST")
            try:
                payload = json.loads(body.decode("utf-8") or "null")
            except (ValueError, UnicodeDecodeError) as exc:
                raise BadRequestError(f"bad JSON body: {exc}") from exc
            query = Query.from_payload(
                payload,
                path.lstrip("/"),
                request_id=telemetry.request_id if telemetry is not None else "",
            )
            body = await self.service.submit(query, telemetry)
            return 200, body, "application/json"
        if path == "/reload":
            if method != "POST":
                raise _HttpError(405, "/reload expects POST")
            try:
                payload = json.loads(body.decode("utf-8") or "null")
            except (ValueError, UnicodeDecodeError) as exc:
                raise BadRequestError(f"bad JSON body: {exc}") from exc
            journal = _journal_from_payload(payload)
            summary = await self.service.reload(journal)
            return 200, _json_bytes(summary), "application/json"
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "/healthz expects GET")
            health = self.service.health()
            status = 200 if health["status"] == "ok" else 503
            return status, _json_bytes(health), "application/json"
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "/metrics expects GET")
            text = render_prometheus_snapshot(self.service.session.metrics_snapshot())
            return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
        if path == "/debug/flight":
            if method != "GET":
                raise _HttpError(405, "/debug/flight expects GET")
            return (
                200,
                _json_bytes(self._flight_payload(query_string)),
                "application/json",
            )
        raise _HttpError(404, f"no such endpoint: {path}")

    def _flight_payload(self, query_string: str) -> dict:
        """The ``/debug/flight`` body: recorder stats plus filtered events."""
        params = parse_qs(query_string, keep_blank_values=False)

        def scalar(name: str) -> str | None:
            values = params.get(name)
            return values[-1] if values else None

        def number(name: str) -> float | None:
            raw = scalar(name)
            if raw is None:
                return None
            try:
                return float(raw)
            except ValueError:
                raise _HttpError(400, f"'{name}' must be a number") from None

        limit = number("limit")
        recorder = self.service.flight
        events = recorder.events(
            request=scalar("id"),
            kinds=params.get("type"),
            since=number("since"),
            until=number("until"),
            limit=int(limit) if limit is not None else None,
        )
        return {
            "enabled": recorder.enabled,
            "stats": recorder.stats(),
            "events": events,
        }

    # -- responses ---------------------------------------------------------

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        keep_alive: bool,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        # A front-end that is shutting down closes after this response
        # whatever the request asked for.
        connection = "keep-alive" if keep_alive and not self._closing else "close"
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {connection}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        detail: str,
        *,
        keep_alive: bool,
        code: str | None = None,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        body = _json_bytes(
            {"error": code or _STATUS_TEXT.get(status, "error").lower(), "detail": detail}
        )
        extra = tuple(extra_headers)
        if status == 429:
            extra += (("Retry-After", "1"),)
        await self._send(
            writer, status, body, "application/json", keep_alive, extra_headers=extra
        )


def _journal_from_payload(payload):
    """Build a Journal from a ``/reload`` body; BadRequestError on misuse."""
    from repro.irr.journal import Journal, JournalError, load_journal

    if not isinstance(payload, dict):
        raise BadRequestError("request body must be a JSON object")
    if "journal_path" in payload:
        path = payload["journal_path"]
        if not isinstance(path, str):
            raise BadRequestError("'journal_path' must be a string")
        try:
            return load_journal(path)
        except (JournalError, OSError) as exc:
            raise BadRequestError(f"unreadable journal: {exc}") from exc
    if "journal" in payload:
        try:
            return Journal.from_jsonable(payload["journal"])
        except (JournalError, TypeError, KeyError, AttributeError) as exc:
            raise BadRequestError(f"bad journal payload: {exc}") from exc
    raise BadRequestError("provide 'journal' or 'journal_path'")
