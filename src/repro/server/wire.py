"""Minimal HTTP/1.1 + WebSocket (RFC 6455) framing over asyncio streams.

The repo's zero-heavy-deps posture rules out aiohttp/uvicorn, and the
service's wire needs are deliberately small: JSON request/response over
keep-alive HTTP, plus one WebSocket endpoint for clients that stream
many small operations (where per-request HTTP parsing would dominate).
This module is that floor — a request parser, a response writer, and a
WebSocket codec — shared by the server (:mod:`repro.server.app`) and
the asyncio load-generator client (:mod:`repro.server.loadgen`).

Scope limits (documented, deliberate):

* HTTP/1.1 only; no chunked transfer encoding (requests carry
  ``Content-Length`` or no body), no TLS, no compression.
* WebSocket: text frames with JSON payloads; client frames must be
  masked (RFC 6455 §5.1), server frames are not; fragmented messages
  are reassembled; ping/close handled, no extensions.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpClient", "HttpError", "HttpRequest", "HttpResponse",
    "WS_OP_CLOSE", "WS_OP_PING", "WS_OP_PONG", "WS_OP_TEXT",
    "WebSocketClient", "read_request", "websocket_accept",
    "write_response", "ws_read_message", "ws_write_close",
    "ws_write_message",
]

_MAX_HEADER_BYTES = 32 * 1024
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

WS_OP_TEXT = 0x1
WS_OP_CLOSE = 0x8
WS_OP_PING = 0x9
WS_OP_PONG = 0xA

_STATUS_REASON = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 101: "Switching Protocols",
}


class HttpError(Exception):
    """Wire-level parse failure; carries the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request. Header names are lower-cased."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body parsed as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"request body is not valid JSON: "
                                 f"{exc.msg}") from None

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class HttpResponse:
    """One parsed client-side response."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body) if self.body else {}


async def _read_head(reader: asyncio.StreamReader) -> bytes | None:
    """Read up to the blank line; None on clean EOF before any byte."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    return head


def _parse_headers(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def read_request(reader: asyncio.StreamReader, *,
                       max_body: int) -> HttpRequest | None:
    """Parse one request; ``None`` on clean connection close.

    Raises :class:`HttpError` on malformed input or a body larger than
    ``max_body`` (the caller answers with the carried status and closes).
    """
    head = await _read_head(reader)
    if head is None:
        return None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    headers = _parse_headers([ln for ln in lines[1:] if ln])
    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length_raw!r}") from None
    if length < 0:
        raise HttpError(400, f"bad Content-Length {length_raw!r}")
    if length > max_body:
        raise HttpError(413, f"request body of {length} bytes exceeds "
                             f"the {max_body} byte limit")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {key: value for key, value
             in parse_qsl(split.query, keep_blank_values=True)}
    return HttpRequest(method=method, target=target,
                       path=unquote(split.path), query=query,
                       headers=headers, body=body)


async def write_response(writer: asyncio.StreamWriter, status: int,
                         body: bytes | Mapping[str, Any], *,
                         content_type: str = "application/json",
                         keep_alive: bool = True,
                         extra_headers: Mapping[str, str] | None = None
                         ) -> None:
    """Serialize and send one response (mappings are JSON-encoded).

    Head and body leave in one ``write``: with an empty send buffer,
    the transport sends each write at once, in a socket send of its own.
    """
    if not isinstance(body, (bytes, bytearray)):
        body = (json.dumps(body, sort_keys=True) + "\n").encode()
    reason = _STATUS_REASON.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                 + body)
    await writer.drain()


# ----------------------------------------------------------------------
# WebSocket (RFC 6455)
# ----------------------------------------------------------------------

def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client key (§4.2.2)."""
    digest = hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def _ws_mask(payload: bytes, mask: bytes) -> bytes:
    """XOR ``payload`` with the 4-byte ``mask`` repeated (§5.3).

    Masking and unmasking are the same operation; one big-int XOR over
    the whole payload avoids a Python-level loop per byte.
    """
    n = len(payload)
    keys = (mask * (n // 4 + 1))[:n]
    return (int.from_bytes(payload, "little")
            ^ int.from_bytes(keys, "little")).to_bytes(n, "little")


def _ws_encode_frame(opcode: int, payload: bytes, *,
                     mask: bytes | None = None) -> bytes:
    head = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask is not None else 0
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if mask is not None:
        head += mask
        payload = _ws_mask(payload, mask)
    return bytes(head) + payload


async def _ws_read_frame(reader: asyncio.StreamReader, *,
                         max_len: int) -> tuple[int, bool, bytes]:
    """One raw frame -> ``(opcode, fin, payload)`` (unmasked)."""
    b0, b1 = await reader.readexactly(2)
    fin = bool(b0 & 0x80)
    opcode = b0 & 0x0F
    masked = bool(b1 & 0x80)
    length = b1 & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await reader.readexactly(8))
    if length > max_len:
        raise HttpError(413, f"WebSocket frame of {length} bytes exceeds "
                             f"the {max_len} byte limit")
    mask = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length)
    if masked:
        payload = _ws_mask(payload, mask)
    return opcode, fin, payload


async def ws_read_message(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter, *,
                          max_len: int) -> str | None:
    """Next complete text message; ``None`` on close/EOF.

    Control frames are handled inline: pings are ponged, a close frame
    is echoed and ends the stream. Fragmented messages are reassembled.
    """
    parts: list[bytes] = []
    while True:
        try:
            opcode, fin, payload = await _ws_read_frame(reader,
                                                        max_len=max_len)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        if opcode == WS_OP_CLOSE:
            try:
                writer.write(_ws_encode_frame(WS_OP_CLOSE, payload[:2]))
                await writer.drain()
            except (ConnectionResetError, RuntimeError):
                pass
            return None
        if opcode == WS_OP_PING:
            writer.write(_ws_encode_frame(WS_OP_PONG, payload))
            await writer.drain()
            continue
        if opcode == WS_OP_PONG:
            continue
        parts.append(payload)
        if sum(len(p) for p in parts) > max_len:
            raise HttpError(413, "fragmented WebSocket message too large")
        if fin:
            return b"".join(parts).decode("utf-8")


async def ws_write_close(writer: asyncio.StreamWriter, *,
                         code: int = 1000, reason: str = "") -> None:
    """Send one close frame; never raises (the peer may be gone).

    Control-frame payloads are capped at 125 bytes (RFC 6455 §5.5), so
    the reason is truncated to fit beside the 2-byte status code.
    """
    payload = struct.pack(">H", code) + reason.encode("utf-8")[:123]
    try:
        writer.write(_ws_encode_frame(WS_OP_CLOSE, payload))
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError, RuntimeError):
        pass


async def ws_write_message(writer: asyncio.StreamWriter, text: str, *,
                           mask: bytes | None = None) -> None:
    """Send one (unfragmented) text message."""
    writer.write(_ws_encode_frame(WS_OP_TEXT, text.encode("utf-8"),
                                  mask=mask))
    await writer.drain()


# ----------------------------------------------------------------------
# Clients (used by the load generator and tests)
# ----------------------------------------------------------------------

@dataclass
class HttpClient:
    """One keep-alive JSON/HTTP connection to the server."""

    host: str
    port: int
    _reader: asyncio.StreamReader | None = field(default=None, repr=False)
    _writer: asyncio.StreamWriter | None = field(default=None, repr=False)

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def request(self, method: str, target: str,
                      payload: Mapping[str, Any] | None = None
                      ) -> HttpResponse:
        """One round trip, reconnecting once if the connection died."""
        if self._writer is None or self._writer.is_closing():
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
        head = (f"{method} {target} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = (await self._reader.readline()).decode("latin-1")
        parts = status_line.split(" ", 2)
        if len(parts) < 2:
            raise HttpError(502, f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = (await self._reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        resp_body = await self._reader.readexactly(length) if length else b""
        return HttpResponse(status=status, headers=headers, body=resp_body)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None


class WebSocketClient:
    """One WebSocket connection speaking the server's JSON messages."""

    def __init__(self, host: str, port: int, *,
                 path: str = "/v1/ws", max_len: int = 1 << 24) -> None:
        self.host = host
        self.port = port
        self.path = path
        self.max_len = max_len
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._mask_counter = 0

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        # A fixed client key is fine: the handshake digest only proves
        # the peer speaks WebSocket, it is not a security boundary.
        key = base64.b64encode(b"repro-loadgen-16").decode("latin-1")
        self._writer.write(
            (f"GET {self.path} HTTP/1.1\r\n"
             f"Host: {self.host}:{self.port}\r\n"
             "Upgrade: websocket\r\nConnection: Upgrade\r\n"
             f"Sec-WebSocket-Key: {key}\r\n"
             "Sec-WebSocket-Version: 13\r\n\r\n").encode("latin-1"))
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        if " 101 " not in f"{status_line} ":
            raise HttpError(502, f"WebSocket handshake refused: "
                                 f"{status_line!r}")
        accept = websocket_accept(key)
        if accept.encode("latin-1") not in head:
            raise HttpError(502, "WebSocket handshake key mismatch")

    def _next_mask(self) -> bytes:
        # Deterministic masks keep runs replayable; masking exists to
        # defeat proxy cache poisoning, not to be unpredictable here.
        self._mask_counter += 1
        return struct.pack(">I", self._mask_counter & 0xFFFFFFFF)

    async def round_trip(self, message: Mapping[str, Any]
                         ) -> dict[str, Any]:
        """Send one JSON message and await its JSON reply."""
        assert self._reader is not None and self._writer is not None
        await ws_write_message(self._writer, json.dumps(message),
                               mask=self._next_mask())
        reply = await ws_read_message(self._reader, self._writer,
                                      max_len=self.max_len)
        if reply is None:
            raise HttpError(502, "WebSocket closed mid-request")
        out = json.loads(reply)
        if not isinstance(out, dict):
            raise HttpError(502, "WebSocket reply is not a JSON object")
        return out

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.write(_ws_encode_frame(
                    WS_OP_CLOSE, b"", mask=self._next_mask()))
                await self._writer.drain()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
