"""A minimal, dependency-free HTTP/1.1 layer over asyncio streams.

The serving tier speaks just enough HTTP for a production query edge:
request-line + headers + ``Content-Length`` bodies in, status + headers +
body out, with keep-alive connections.  There is deliberately no routing
framework, no chunked transfer encoding (a ``501`` names the limitation)
and no TLS — the goal is a hardened *edge* over
:class:`~repro.serving.service.QueryService`, not a general web server.

Failure handling is the point of this module:

* every parse limit (request-line length, header count, body size) is
  explicit and maps to a targeted 4xx via :class:`ProtocolError`;
* a body that ends early — a client that died mid-upload — raises a 400
  ``truncated request body`` error, so a partial batch is *never* parsed,
  let alone aggregated;
* the ``net.read`` fault site (:mod:`repro.resilience.faults`) fires inside
  the body read, making the torn-upload path deterministically testable.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.exceptions import NetError, TransientFault
from repro.resilience import faults as _faults

#: Upper bound on one request line or header line, in bytes.
MAX_LINE_BYTES = 8192

#: Upper bound on the number of headers per request.
MAX_HEADERS = 64

#: Default upper bound on a request body (the server config can lower it).
DEFAULT_MAX_BODY_BYTES = 8 << 20

#: Reason phrases for the status codes the serving tier emits.
STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(NetError):
    """A malformed or unacceptable request; carries the HTTP status to send.

    ``close_connection`` marks errors after which the stream position is
    unknown (torn body, oversized line) — the connection must be closed
    because the next request boundary cannot be trusted.
    """

    def __init__(self, status: int, message: str, *, close_connection: bool = False):
        super().__init__(message)
        self.status = int(status)
        self.close_connection = bool(close_connection)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection may be reused after this request.

        HTTP/1.1 defaults to keep-alive unless ``Connection: close``;
        HTTP/1.0 defaults to close unless the client explicitly sends
        ``Connection: keep-alive`` — a 1.0 client left on an open
        connection may block waiting for EOF it will never see.
        """
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def header_float(self, name: str) -> Optional[float]:
        """A numeric header value, or ``None``; malformed values are a 400."""
        raw = self.headers.get(name)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise ProtocolError(400, f"header {name} must be a number, got {raw!r}") from None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One CRLF- (or LF-) terminated line, bounded by :data:`MAX_LINE_BYTES`."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.LimitOverrunError:
        # Longer than the stream's own buffer limit (64 KiB by default).
        raise ProtocolError(
            400, f"header line exceeds {MAX_LINE_BYTES} bytes", close_connection=True
        ) from None
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise EOFError from None  # clean close between requests
        raise ProtocolError(
            400, "connection closed mid-request", close_connection=True
        ) from None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            400, f"header line exceeds {MAX_LINE_BYTES} bytes", close_connection=True
        )
    return line.rstrip(b"\r\n")


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean end-of-stream.

    Raises :class:`ProtocolError` for anything malformed.  The body read
    fires the ``net.read`` injection site and converts short reads (client
    death, socket failure) into a 400 that closes the connection — the
    caller never sees a partially-read body.
    """
    try:
        request_line = await _read_line(reader)
    except EOFError:
        return None
    if not request_line:
        # Tolerate a stray blank line between pipelined requests.
        try:
            request_line = await _read_line(reader)
        except EOFError:
            return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ProtocolError(
            400, f"malformed request line {request_line!r}", close_connection=True
        )
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(400, f"unsupported protocol version {version!r}",
                            close_connection=True)

    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            break
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError(
                400, f"more than {MAX_HEADERS} headers", close_connection=True
            )
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator or not name.strip():
            raise ProtocolError(400, f"malformed header line {line!r}",
                                close_connection=True)
        key = name.strip().lower()
        value = value.strip()
        if key == "content-length" and headers.get(key, value) != value:
            # RFC 7230 §3.3.2: conflicting Content-Length values make the
            # message framing ambiguous (request-smuggling vector behind an
            # intermediary) — reject and close rather than let one win.
            raise ProtocolError(
                400,
                f"conflicting Content-Length headers: "
                f"{headers[key]!r} vs {value!r}",
                close_connection=True,
            )
        headers[key] = value

    if headers.get("transfer-encoding", "").lower() == "chunked":
        raise ProtocolError(
            501, "chunked transfer encoding is not supported; send Content-Length",
            close_connection=True,
        )

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise ProtocolError(
                400, f"malformed Content-Length {length_header!r}",
                close_connection=True,
            ) from None
        if length < 0:
            raise ProtocolError(400, "negative Content-Length", close_connection=True)
        if length > max_body_bytes:
            raise ProtocolError(
                413, f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit", close_connection=True,
            )
        if length:
            if _faults.ENABLED:
                try:
                    _faults.fire("net.read", bytes_expected=length)
                except TransientFault as fault:
                    # An injected read failure models the socket dying
                    # mid-upload: same contract as a real short read.
                    raise ProtocolError(
                        400,
                        f"request body read failed after 0 of {length} bytes: {fault}",
                        close_connection=True,
                    ) from fault
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise ProtocolError(
                    400,
                    f"truncated request body: got {len(error.partial)} of "
                    f"{length} bytes",
                    close_connection=True,
                ) from None

    split = urlsplit(target)
    path = unquote(split.path)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        target=target,
        path=path,
        query=query,
        headers=headers,
        body=body,
        version=version,
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: Sequence[Tuple[str, str]] = (),
    keep_alive: bool = True,
) -> bytes:
    """Serialise one response (status line, headers, body) to wire bytes."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def error_body(status: int, message: str, **extra: object) -> bytes:
    """The canonical JSON error body of the serving tier."""
    import json

    payload: Dict[str, object] = {
        "error": message,
        "status": int(status),
    }
    payload.update(extra)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def retry_after_headers(seconds: float) -> Tuple[Tuple[str, str], ...]:
    """``Retry-After`` (integer seconds, at least 1) for shed responses."""
    import math

    return (("Retry-After", str(max(1, math.ceil(seconds)))),)


__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "MAX_HEADERS",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Request",
    "STATUS_REASONS",
    "error_body",
    "read_request",
    "render_response",
    "retry_after_headers",
]
