"""REST + streaming-events API over asyncio streams (stdlib only).

A deliberately small HTTP/1.1 surface — enough for operators, load
generators, and CI smoke tests, with zero dependencies beyond asyncio:

========  ==================  ===========================================
method    path                semantics
========  ==================  ===========================================
GET       ``/healthz``        liveness + service clock reading
GET       ``/metrics``        :meth:`RecoveryService.metrics` snapshot
GET       ``/decisions``      all failover decisions (``?since=SEQ``)
POST      ``/heartbeats``     ``{"switches": [...]}`` or ``{"switch": s}``
POST      ``/failures``       one failure report → 202, or 429 on
                              backpressure (``reject`` queue full)
GET       ``/events``         JSONL stream of service events (decisions,
                              degradations, errors, lifecycle), live
========  ==================  ===========================================

Connections are one-shot (``Connection: close``) except ``/events``,
which streams newline-delimited JSON until the client disconnects or
the service stops.  Backpressure is explicit end to end: a rejected
failure report is an HTTP 429, and a slow ``/events`` consumer drops
oldest events in its own subscription buffer, never in the service.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from .ingest import FailureReport, Heartbeat
from .service import RecoveryService

__all__ = ["ApiError", "ServiceAPI"]

#: Upper bound on accepted request bodies (probe payloads are tiny).
_MAX_BODY = 1 << 20
_MAX_HEADER_LINES = 100


class ApiError(Exception):
    """A request error carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _iface(value: Any) -> tuple[str, tuple]:
    """Decode one ``[device, interface]`` endpoint from JSON."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not isinstance(value[0], str)
    ):
        raise ApiError(400, "endpoint must be [device, interface]")
    iface = value[1]
    if isinstance(iface, list):
        iface = tuple(iface)
    elif not isinstance(iface, tuple):
        iface = (iface,)
    return (value[0], iface)


def _parse_failure(body: dict[str, Any], now: float) -> FailureReport:
    kind = body.get("kind")
    if kind not in ("node", "link"):
        raise ApiError(400, "kind must be 'node' or 'link'")
    try:
        if kind == "node":
            logical = body.get("logical")
            if not isinstance(logical, str) or not logical:
                raise ApiError(400, "node failure needs 'logical'")
            return FailureReport(kind="node", logical=logical, reported_at=now)
        if "end_a" not in body or "end_b" not in body:
            raise ApiError(400, "link failure needs 'end_a' and 'end_b'")
        return FailureReport(
            kind="link",
            end_a=_iface(body["end_a"]),
            end_b=_iface(body["end_b"]),
            reported_at=now,
        )
    except ValueError as exc:
        raise ApiError(400, str(exc)) from exc


class ServiceAPI:
    """Serves one :class:`RecoveryService` over HTTP."""

    def __init__(
        self,
        service: RecoveryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; updated on start()
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ==================================================================
    # connection handling
    # ==================================================================

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except ApiError as exc:
                await self._respond_json(
                    writer, exc.status, {"error": str(exc)}
                )
                return
            if method == "GET" and path == "/events":
                await self._stream_events(writer)
                return
            try:
                status, payload = self._route(method, path, query, body)
            except ApiError as exc:
                status, payload = exc.status, {"error": str(exc)}
            await self._respond_json(writer, status, payload)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # Loop teardown cancels in-flight handlers; a handler
                # dying mid-goodbye must not spam the exception log.
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], dict[str, Any] | None]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ApiError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise ApiError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        path, _, raw_query = target.partition("?")
        query: dict[str, str] = {}
        for pair in raw_query.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value
        content_length = 0
        for _ in range(_MAX_HEADER_LINES):
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as exc:
                    raise ApiError(400, "bad Content-Length") from exc
        else:
            raise ApiError(431, "too many header lines")
        body: dict[str, Any] | None = None
        if content_length:
            if content_length > _MAX_BODY:
                raise ApiError(413, "request body too large")
            raw = await reader.readexactly(content_length)
            try:
                decoded = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ApiError(400, f"invalid JSON body: {exc}") from exc
            if not isinstance(decoded, dict):
                raise ApiError(400, "JSON body must be an object")
            body = decoded
        return method.upper(), path, query, body

    # ==================================================================
    # routing
    # ==================================================================

    def _route(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        body: dict[str, Any] | None,
    ) -> tuple[int, dict[str, Any]]:
        if method == "GET":
            if path == "/healthz":
                return 200, {
                    "status": "ok",
                    "now": self.service.clock.now(),
                    "started": self.service.started,
                }
            if path == "/metrics":
                return 200, self.service.metrics()
            if path == "/decisions":
                return self._get_decisions(query)
            raise ApiError(404, f"no such resource: {path}")
        if method == "POST":
            if path == "/heartbeats":
                return self._post_heartbeats(body)
            if path == "/failures":
                return self._post_failure(body)
            raise ApiError(404, f"no such resource: {path}")
        raise ApiError(405, f"method {method} not supported")

    def _get_decisions(
        self, query: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        since = -1
        if "since" in query:
            try:
                since = int(query["since"])
            except ValueError as exc:
                raise ApiError(400, "since must be an integer") from exc
        decisions = [
            d.to_dict() for d in self.service.decisions if d.seq > since
        ]
        return 200, {"decisions": decisions, "total": len(decisions)}

    def _post_heartbeats(
        self, body: dict[str, Any] | None
    ) -> tuple[int, dict[str, Any]]:
        if body is None:
            raise ApiError(400, "heartbeat POST needs a JSON body")
        switches: list[str]
        if "switches" in body:
            raw = body["switches"]
            if not isinstance(raw, list) or not all(
                isinstance(s, str) for s in raw
            ):
                raise ApiError(400, "'switches' must be a list of names")
            switches = raw
        elif "switch" in body and isinstance(body["switch"], str):
            switches = [body["switch"]]
        else:
            raise ApiError(400, "need 'switch' or 'switches'")
        now = self.service.clock.now()
        accepted = sum(
            self.service.submit_heartbeat(Heartbeat(switch, now))
            for switch in switches
        )
        return 202, {"accepted": accepted, "submitted": len(switches)}

    def _post_failure(
        self, body: dict[str, Any] | None
    ) -> tuple[int, dict[str, Any]]:
        if body is None:
            raise ApiError(400, "failure POST needs a JSON body")
        report = _parse_failure(body, self.service.clock.now())
        if not self.service.submit_failure(report):
            counters = self.service.reports.counters
            return 429, {
                "error": "failure-report queue full",
                "rejected": counters.rejected,
            }
        return 202, {"accepted": True, "reported_at": report.reported_at}

    # ==================================================================
    # responses
    # ==================================================================

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
    ) -> None:
        body = (json.dumps(payload) + "\n").encode()
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        writer.write(body)
        await writer.drain()

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        """The JSONL event stream: one JSON object per line, live.

        Subscribes before sending the headers, so a client that has read
        them sees every event published afterwards.
        """
        subscription = self.service.bus.subscribe(
            maxsize=self.service.config.event_buffer
        )
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Cache-Control: no-store\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            async for event in subscription:
                writer.write((json.dumps(event) + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            subscription.unsubscribe()


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
}
