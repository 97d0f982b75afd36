"""A minimal asyncio HTTP/1.1 server — stdlib only, by design.

The service tier adds **no dependencies**: this module implements just
enough of HTTP/1.1 for the API's needs — request-line + header parsing
with documented size caps, ``Content-Length`` bodies, JSON and plain
-text responses, and ``Transfer-Encoding: chunked`` streaming for the
live-progress route.  Every connection serves one request and closes
(``Connection: close``), which keeps the state machine trivial and is
exactly how ``curl``, ``http.client`` and load balancers with
health-check probes behave anyway.

The server is transport only: it parses a :class:`Request`, hands it
to an async ``router(request) -> Response`` callable, and writes the
result.  Routing, auth and the queue live in
:mod:`repro.service.app`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = ["HttpError", "Request", "Response", "HttpServer",
           "json_response", "text_response"]

# Operational caps: a request line or header block larger than this is
# not an API call, it is abuse or a confused client.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 65536
MAX_BODY_BYTES = 16 * 1024 * 1024
# How long a refused request's unread body is drained before the close.
_LINGER_SECONDS = 5.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            401: "Unauthorized", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 500: "Internal Server Error",
            503: "Service Unavailable"}


class HttpError(Exception):
    """Raise inside a route to produce a JSON error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict
    headers: dict
    body: bytes

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    def json(self):
        """The body parsed as JSON (:class:`HttpError` 400 on failure)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


@dataclass
class Response:
    """One response: fixed body, or a chunked stream.

    ``stream`` (an async iterator yielding ``str``/``bytes`` chunks)
    switches the writer to ``Transfer-Encoding: chunked``; ``body`` is
    ignored then.
    """

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)
    stream: object | None = None


def json_response(obj, *, status: int = 200) -> Response:
    return Response(status=status,
                    body=(json.dumps(obj, sort_keys=True) + "\n")
                    .encode("utf-8"),
                    content_type="application/json")


def text_response(text: str, *, status: int = 200) -> Response:
    return Response(status=status, body=text.encode("utf-8"),
                    content_type="text/plain; charset=utf-8")


async def _read_head(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request's line and headers, leaving its body unread
    (``body`` is empty); ``None`` when the client closed before
    sending."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request line")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long")
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HttpError(400, f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]

    headers: dict = {}
    total = 0
    while True:
        raw = await reader.readuntil(b"\r\n")
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "header block too large")
        text = raw.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    query = {k: v[-1] for k, v in parse_qs(split.query).items()}
    return Request(method=method, path=unquote(split.path), query=query,
                   headers=headers, body=b"")


def _body_length(request: Request) -> int:
    """The request's declared ``Content-Length`` (0 when absent)."""
    length = request.header("content-length")
    if length is None:
        return 0
    try:
        n = int(length)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length!r}")
    if n < 0 or n > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {n} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte cap")
    return n


async def _linger(reader: asyncio.StreamReader) -> None:
    """Discard what the client still sends, up to ``MAX_BODY_BYTES`` and
    for at most ``_LINGER_SECONDS``, before the connection closes.

    Closing a socket with unread input makes the kernel send a reset,
    which can reach a client still sending its body before it reads the
    refusal already written to it.
    """
    async def drain():
        left = MAX_BODY_BYTES
        while left > 0:
            chunk = await reader.read(min(left, 65536))
            if not chunk:
                return
            left -= len(chunk)

    try:
        await asyncio.wait_for(drain(), _LINGER_SECONDS)
    except asyncio.TimeoutError:
        pass


def _head(status: int, content_type: str, extra: dict, *,
          chunked: bool, length: int | None) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             "Connection: close"]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif length is not None:
        lines.append(f"Content-Length: {length}")
    lines.extend(f"{k}: {v}" for k, v in extra.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class HttpServer:
    """Serve ``router`` on an asyncio event loop.

    ``await start()`` binds (port 0 picks a free port — read
    :attr:`port` after), ``await stop()`` closes the listener and
    cancels in-flight connections (streams included).

    ``authorize(request) -> Response | None`` sees each request once its
    headers are read and before any body byte is: a response refuses
    the request without reading its body, ``None`` admits it.
    """

    def __init__(self, router, authorize, *, host: str = "127.0.0.1",
                 port: int = 0):
        self.router = router
        self.authorize = authorize
        self.host = host
        self.port = int(port)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_one(reader, writer)
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass  # client gone or server stopping: nothing to answer
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader, writer) -> None:
        try:
            request = await _read_head(reader)
            if request is None:
                return
            refusal = self.authorize(request)
            if refusal is not None:
                await self._write_fixed(writer, refusal)
                await _linger(reader)
                return
            n = _body_length(request)
            request.body = await reader.readexactly(n) if n else b""
        except HttpError as exc:
            await self._write_fixed(writer, json_response(
                {"error": exc.message}, status=exc.status))
            return
        try:
            response = await self.router(request)
        except HttpError as exc:
            response = json_response({"error": exc.message},
                                     status=exc.status)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a broken route never kills the server
            response = json_response(
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                status=500)
        if response.stream is not None:
            await self._write_stream(writer, response)
        else:
            await self._write_fixed(writer, response)

    async def _write_fixed(self, writer, response: Response) -> None:
        writer.write(_head(response.status, response.content_type,
                           response.headers, chunked=False,
                           length=len(response.body)))
        writer.write(response.body)
        await writer.drain()

    async def _write_stream(self, writer, response: Response) -> None:
        writer.write(_head(response.status, response.content_type,
                           response.headers, chunked=True, length=None))
        await writer.drain()
        try:
            async for chunk in response.stream:
                data = chunk.encode("utf-8") if isinstance(chunk, str) \
                    else bytes(chunk)
                if not data:
                    continue
                writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
                await writer.drain()
        finally:
            try:
                writer.write(b"0\r\n\r\n")
                await writer.drain()
            except (ConnectionError, OSError):
                pass
