"""Incremental HTTP/1.1 framing for the serving gateway.

This is the protocol layer of the three-layer gateway split: it turns a
byte stream into complete requests and JSON payloads back into complete
response segments, and knows nothing about sockets (that is
:mod:`repro.serving.transport`) or what the requests mean (that is
:mod:`repro.serving.handlers`).

:class:`RequestParser` is a push parser: the transport feeds it whatever
``recv`` returned — a byte, half a header line, three pipelined requests
in one segment — and gets back every request completed so far.  Framing
violations raise :class:`ProtocolError`, which carries the structured
error body the gateway answers with before closing the connection:
malformed framing means the byte stream can no longer be trusted, so
unlike an application-level :class:`~repro.serving.handlers.ApiError`
the connection never survives one.

Body-before-error ordering is structural here: a request object exists
only once its body has been consumed from the stream, so a 4xx response
can never leave an unread body behind to desync the next keep-alive
request.

:func:`encode_response` renders every response into one ``bytes``
segment (status line, headers, and body together), so a single ``send``
path never produces the header/body write split that triggers
delayed-ACK stalls on persistent connections.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from http.client import responses as _REASONS

from ..utils.serialization import _json_default

__all__ = ["ProtocolError", "Request", "RequestParser", "encode_json",
           "encode_body", "encode_head", "encode_response", "encode_error",
           "MAX_HEADER_BYTES", "MAX_BODY_BYTES",
           "DEADLINE_HEADER", "parse_deadline_ms"]

MAX_HEADER_BYTES = 16 * 1024            # request line + all headers
MAX_BODY_BYTES = 8 * 1024 * 1024        # JSON candidate payloads are small

_SERVER_NAME = "repro-serving/2.0"
_SUPPORTED_VERSIONS = {"HTTP/1.0", "HTTP/1.1"}


class ProtocolError(Exception):
    """A framing violation: answer with ``status`` and close the connection.

    ``kind``/``message`` mirror :class:`~repro.serving.handlers.ApiError`
    so clients see the same structured ``{"error": {type, message}}``
    body for protocol and application errors alike.  When raised from
    :meth:`RequestParser.feed`, ``completed`` carries the requests the
    same ``feed`` call finished *before* the stream went bad — a
    pipelining client is owed their responses ahead of the error.
    """

    def __init__(self, status: int, kind: str, message: str):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.completed: list = []


DEADLINE_HEADER = "x-deadline-ms"


def parse_deadline_ms(headers: dict[str, str]) -> float | None:
    """Deadline budget in ms from lowercased ``headers``, or None.

    Lenient by design: a malformed or non-positive value reads as "no
    deadline" rather than a 400 — a client bug in an optional
    latency-hygiene header should degrade to the pre-deadline behavior,
    not turn every request into an error.
    """
    raw = headers.get(DEADLINE_HEADER)
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    return value if value > 0 else None


@dataclass
class Request:
    """One fully framed HTTP request (body already consumed).

    ``received_at`` is the :func:`time.monotonic` instant the request was
    completed off the wire — the anchor the deadline budget
    (``X-Deadline-Ms``) counts down from.  The parser stamps it when the
    head finishes parsing, so queueing *inside* the gateway (dispatch
    backlog, scorer queue) counts against the budget but client-side
    send time does not.
    """

    method: str
    target: str                         # raw request target (may carry ?query)
    version: str
    headers: dict[str, str]             # header names lowercased
    body: bytes = b""
    received_at: float = field(default_factory=time.monotonic)

    @property
    def deadline(self) -> float | None:
        """Absolute monotonic deadline, or None without a (valid) budget."""
        budget_ms = parse_deadline_ms(self.headers)
        if budget_ms is None:
            return None
        return self.received_at + budget_ms / 1000.0

    @property
    def path(self) -> str:
        """Route path: target without query string or trailing slash."""
        return self.target.split("?", 1)[0].rstrip("/") or "/"

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to persistent; 1.0 must opt in."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class RequestParser:
    """Push parser: ``feed(data)`` returns every request completed so far.

    Tolerates arbitrary fragmentation (slow clients trickling bytes) and
    arbitrary coalescing (pipelined requests arriving in one segment).
    After a :class:`ProtocolError` the parser refuses further input —
    the stream is desynced and the transport must close the connection.
    """

    def __init__(self, max_header_bytes: int = MAX_HEADER_BYTES,
                 max_body_bytes: int = MAX_BODY_BYTES):
        self._max_header_bytes = max_header_bytes
        self._max_body_bytes = max_body_bytes
        self._buffer = bytearray()
        self._pending: Request | None = None    # headers parsed, body incomplete
        self._body_remaining = 0
        self._dead = False

    @property
    def mid_request(self) -> bool:
        """True when a request has started arriving but is not complete —
        the idle-timeout reaper uses this to distinguish a slow-loris
        stall (answer 408) from a quiet keep-alive connection (just
        close)."""
        return bool(self._buffer) or self._pending is not None

    def feed(self, data: bytes) -> list[Request]:
        """Consume ``data``; return the requests it completed (maybe none).

        A framing violation raises :class:`ProtocolError` with any
        requests this call completed first attached as ``.completed`` —
        they were validly framed and must still be answered, in order,
        before the error response.
        """
        if self._dead:
            raise ProtocolError(400, "bad_request",
                                "connection already failed framing")
        self._buffer.extend(data)
        completed: list[Request] = []
        try:
            while True:
                request = self._pump()
                if request is None:
                    return completed
                completed.append(request)
        except ProtocolError as error:
            self._dead = True
            error.completed = completed
            raise

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _pump(self) -> Request | None:
        if self._pending is None and not self._parse_head():
            return None
        request = self._pending
        assert request is not None
        if self._body_remaining > len(self._buffer):
            return None
        if self._body_remaining:
            request.body = bytes(self._buffer[:self._body_remaining])
            del self._buffer[:self._body_remaining]
            self._body_remaining = 0
        self._pending = None
        return request

    def _parse_head(self) -> bool:
        """Parse the request line + headers once fully buffered."""
        # Tolerate blank lines between keep-alive requests (RFC 9112
        # §2.2), as http.server does.  Stripped from the buffer *before*
        # head framing: a leading CRLF pair would otherwise read as an
        # empty head and stall the complete request queued behind it.
        while self._buffer[:2] == b"\r\n":
            del self._buffer[:2]
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            if len(self._buffer) > self._max_header_bytes:
                raise ProtocolError(431, "headers_too_large",
                                    f"request head exceeds "
                                    f"{self._max_header_bytes} bytes")
            return False
        head = bytes(self._buffer[:end])
        if len(head) > self._max_header_bytes:
            raise ProtocolError(431, "headers_too_large",
                                f"request head exceeds "
                                f"{self._max_header_bytes} bytes")
        del self._buffer[:end + 4]
        try:
            lines = head.decode("iso-8859-1").split("\r\n")
        except UnicodeDecodeError:      # iso-8859-1 never fails; defensive
            raise ProtocolError(400, "bad_request",
                                "request head is not decodable") from None
        parts = lines[0].split()
        if len(parts) != 3:
            raise ProtocolError(400, "bad_request",
                                f"malformed request line {lines[0]!r}")
        method, target, version = parts
        if version not in _SUPPORTED_VERSIONS:
            raise ProtocolError(505, "http_version_not_supported",
                                f"unsupported protocol version {version!r}")
        headers = self._parse_headers(lines[1:])
        self._pending = Request(method=method.upper(), target=target,
                                version=version, headers=headers)
        self._body_remaining = self._content_length(headers)
        return True

    @staticmethod
    def _parse_headers(lines: list[str]) -> dict[str, str]:
        headers: dict[str, str] = {}
        for line in lines:
            name, sep, value = line.partition(":")
            if not sep or not name or name != name.strip():
                raise ProtocolError(400, "bad_request",
                                    f"malformed header line {line!r}")
            headers[name.lower()] = value.strip()
        return headers

    def _content_length(self, headers: dict[str, str]) -> int:
        if "transfer-encoding" in headers:
            # The gateway speaks Content-Length framing only; accepting a
            # request we cannot frame would desync the stream.
            raise ProtocolError(501, "unsupported_framing",
                                "chunked transfer encoding is not supported")
        raw = headers.get("content-length")
        if raw is None:
            return 0
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            raise ProtocolError(400, "bad_request",
                                f"invalid Content-Length {raw!r}") from None
        if length > self._max_body_bytes:
            raise ProtocolError(413, "payload_too_large",
                                f"request body of {length} bytes exceeds the "
                                f"{self._max_body_bytes} byte limit")
        return length


# ----------------------------------------------------------------------
# Response encoding
# ----------------------------------------------------------------------
def encode_json(payload: dict) -> bytes:
    """Render a response payload as JSON bytes.

    ``_json_default`` (shared with checkpoint serialization) turns numpy
    arrays/scalars into plain JSON values.  A NaN or ±inf anywhere in the
    payload raises ``ValueError``: RFC 8259 has no spelling for them, and
    a strict client would reject the whole body.
    """
    return json.dumps(payload, default=_json_default,
                      allow_nan=False).encode("utf-8")


def encode_body(payload) -> tuple[bytes, str]:
    """Render a response payload: ``(body bytes, content type)``.

    Dict payloads encode as JSON; ``str``/``bytes`` pass through as
    ``text/plain`` (the ``/metrics`` exposition is text, not JSON — its
    handler overrides the content type via its extra headers).
    """
    if isinstance(payload, bytes):
        return payload, "text/plain; charset=utf-8"
    if isinstance(payload, str):
        return payload.encode("utf-8"), "text/plain; charset=utf-8"
    return encode_json(payload), "application/json"


def encode_head(status: int, content_length: int, keep_alive: bool = True,
                content_type: str = "application/json",
                extra_headers: dict | None = None) -> bytes:
    """Status line + headers (through the blank line), one ``bytes``.

    Split from :func:`encode_body` so the selector transport can render
    the (possibly expensive) body wherever the handler ran — a dispatch
    thread, or the event loop for an answer that never waits on a
    scorer — while the loop alone decides keep-alive: it is the only
    place that knows whether a response is the connection's last (drain
    mode forces ``Connection: close`` on final responses only).
    ``extra_headers`` may override ``Content-Type``.
    """
    extra = dict(extra_headers or {})
    content_type = extra.pop("Content-Type", content_type)
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Server: {_SERVER_NAME}",
             f"Content-Type: {content_type}",
             f"Content-Length: {content_length}"]
    lines.extend(f"{name}: {value}" for name, value in extra.items())
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("iso-8859-1")


def encode_response(status: int, payload, keep_alive: bool = True,
                    extra_headers: dict | None = None) -> bytes:
    """Render a response as one contiguous segment."""
    body, content_type = encode_body(payload)
    return encode_head(status, len(body), keep_alive=keep_alive,
                       content_type=content_type,
                       extra_headers=extra_headers) + body


def encode_error(status: int, kind: str, message: str,
                 keep_alive: bool = False) -> bytes:
    """Structured error body in the gateway's pinned error schema."""
    return encode_response(
        status, {"error": {"type": kind, "message": message}},
        keep_alive=keep_alive)
