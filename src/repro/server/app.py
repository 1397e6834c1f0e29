"""The asyncio multi-tenant service: HTTP + WebSocket over supervisors.

:class:`ReproServer` is the network edge of the supervised session
runtime (docs/SERVICE.md is the operator-facing reference):

* every tenant maps to one :class:`~repro.service.SessionSupervisor`
  (see :mod:`repro.server.tenants`); a per-tenant ``asyncio.Lock``
  serializes supervisor access, so the synchronous service layer needs
  no locking of its own;
* writes are admitted and then applied by a background *pump task*
  that yields to the event loop between waves — consecutive requests
  land in the admission queue while a wave is running and get coalesced
  into the next ``apply_batch`` wave (exact-parity semantics make the
  coalescing correctness-free, per docs/ROBUSTNESS.md);
* reads degrade explicitly: ``fresh=1`` drains and serves the exact
  current result; a deadline-bounded read goes through the
  supervisor's ``read`` shedding path and may return a ``stale`` view
  with its ``lag_ops`` marked. A non-stale read carries a ``result_digest``
  only when the client asks for it (``digest=1``), because hashing the
  whole alive set costs far more than the O(r) read itself;
* both transports speak the same verbs through the same handlers, and
  every failure is a typed :class:`~repro.server.protocol.ServiceError`
  envelope.

The server is single-process, single-loop: every tenant's engine runs
inline on the event-loop thread.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Mapping

from repro.server.protocol import (
    ServiceError,
    error_envelope,
    get_field,
    require_field,
)
from repro.server.tenants import TenantQuota, TenantRegistry
from repro.server.wire import (
    HttpError,
    HttpRequest,
    read_request,
    websocket_accept,
    write_response,
    ws_read_message,
    ws_write_close,
    ws_write_message,
)
from repro.service.supervisor import result_digest

__all__ = ["ReproServer"]

#: Effectively-infinite read deadline used for ``fresh=1`` reads after
#: a drain (the queue is empty, so the read can never shed).
_FRESH_DEADLINE_S = 1e9

_TENANT_VERBS = frozenset(
    {"open", "batch", "delete", "result", "stats", "checkpoint"})


class ReproServer:
    """One multi-tenant FD-RMS service bound to a host/port."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8642,
                 registry: TenantRegistry | None = None,
                 max_tenants: int = 8,
                 quota: TenantQuota | None = None,
                 checkpoint_root: Any = None,
                 max_body_bytes: int = 16 * 1024 * 1024) -> None:
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else TenantRegistry(
            max_tenants=max_tenants, quota=quota,
            checkpoint_root=checkpoint_root)
        self.max_body_bytes = max_body_bytes
        self.counters: dict[str, int] = {
            "http_requests": 0, "ws_connections": 0, "ws_messages": 0,
            "request_errors": 0,
        }
        self._server: asyncio.base_events.Server | None = None
        self._closing = False
        self._pump_tasks: set[asyncio.Task[None]] = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (useful with ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, drain, close sessions."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._pump_tasks):
            task.cancel()
        if self._pump_tasks:
            await asyncio.gather(*self._pump_tasks, return_exceptions=True)
        self.registry.close_all()

    # -- connection handling -------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.max_body_bytes)
                except HttpError as exc:
                    code = ("payload_too_large" if exc.status == 413
                            else "bad_request")
                    await write_response(
                        writer, exc.status,
                        error_envelope(code, str(exc)), keep_alive=False)
                    return
                if request is None:
                    return
                if self._is_ws_upgrade(request):
                    await self._handle_ws(request, reader, writer)
                    return
                self.counters["http_requests"] += 1
                status, payload = await self._dispatch(request)
                if status >= 400:
                    self.counters["request_errors"] += 1
                await write_response(writer, status, payload,
                                     keep_alive=request.keep_alive)
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # CancelledError here means loop teardown caught us
                # mid-close; the transport is going away either way,
                # and re-raising would just log noise per connection.
                pass

    async def _dispatch(self, request: HttpRequest
                        ) -> tuple[int, dict[str, Any]]:
        """Route one HTTP request; never raises."""
        try:
            payload = request.json()
            if not isinstance(payload, dict):
                raise ServiceError("bad_request",
                                   "request body must be a JSON object")
            return 200, await self._route_http(request, payload)
        except ServiceError as exc:
            return exc.http_status, exc.envelope()
        except HttpError as exc:
            return exc.status, error_envelope("bad_request", str(exc))
        except Exception as exc:  # handler bug: typed 500, no traceback
            return 500, error_envelope(
                "internal", "unexpected server error",
                {"type": type(exc).__name__, "message": str(exc)})

    async def _route_http(self, request: HttpRequest,
                          payload: dict[str, Any]) -> dict[str, Any]:
        method, path = request.method, request.path.rstrip("/")
        if self._closing:
            raise ServiceError("shutting_down", "server is draining")
        if path == "/healthz":
            self._require_method(method, "GET")
            return {"ok": True, "open_tenants": len(self.registry)}
        if path == "/v1/stats":
            self._require_method(method, "GET")
            return self._server_stats()
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "tenants":
            if len(parts) == 3:
                self._require_method(method, "DELETE")
                checkpoint = request.query.get("checkpoint", "1") != "0"
                return await self._evict(parts[2], checkpoint=checkpoint)
            if len(parts) == 4 and parts[3] in _TENANT_VERBS:
                verb = parts[3]
                if verb in ("result", "stats"):
                    self._require_method(method, "GET")
                else:
                    self._require_method(method, "POST")
                if verb == "result":
                    fresh = request.query.get("fresh", "0") == "1"
                    digest = request.query.get("digest", "0") == "1"
                    deadline_ms = request.query.get("deadline_ms")
                    try:
                        deadline = (float(deadline_ms)
                                    if deadline_ms is not None else None)
                    except ValueError:
                        raise ServiceError(
                            "bad_request",
                            f"bad deadline_ms {deadline_ms!r}") from None
                    return await self._result(parts[2], fresh=fresh,
                                              deadline_ms=deadline,
                                              digest=digest)
                return await self._tenant_verb(verb, parts[2], payload)
        raise ServiceError("not_found", f"no route for {request.path!r}",
                           {"method": method, "path": request.path})

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise ServiceError("method_not_allowed",
                               f"use {expected}, not {method}")

    # -- WebSocket transport -------------------------------------------
    @staticmethod
    def _is_ws_upgrade(request: HttpRequest) -> bool:
        return (request.path.rstrip("/") == "/v1/ws"
                and "websocket" in
                request.headers.get("upgrade", "").lower())

    async def _handle_ws(self, request: HttpRequest,
                         reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        key = request.headers.get("sec-websocket-key")
        if not key:
            await write_response(
                writer, 400,
                error_envelope("bad_request",
                               "missing Sec-WebSocket-Key header"),
                keep_alive=False)
            return
        writer.write(
            ("HTTP/1.1 101 Switching Protocols\r\n"
             "Upgrade: websocket\r\nConnection: Upgrade\r\n"
             f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n\r\n"
             ).encode("latin-1"))
        await writer.drain()
        self.counters["ws_connections"] += 1
        while True:
            try:
                message = await ws_read_message(
                    reader, writer, max_len=self.max_body_bytes)
            except HttpError as exc:
                # Oversized frame/message: end the stream with a proper
                # close frame (1009 Message Too Big) instead of dropping
                # the TCP connection and logging an unhandled error.
                self.counters["request_errors"] += 1
                await ws_write_close(writer, code=1009, reason=str(exc))
                return
            if message is None:
                return
            self.counters["ws_messages"] += 1
            reply = await self._dispatch_ws(message)
            await ws_write_message(writer, json.dumps(reply,
                                                      sort_keys=True))

    async def _dispatch_ws(self, message: str) -> dict[str, Any]:
        """One WS message -> one ``{"rid", "ok", ...}`` reply."""
        rid: Any = None
        try:
            try:
                obj = json.loads(message)
            except json.JSONDecodeError as exc:
                raise ServiceError(
                    "bad_request",
                    f"message is not valid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise ServiceError("bad_request",
                                   "message must be a JSON object")
            rid = obj.get("rid")
            if self._closing:
                raise ServiceError("shutting_down", "server is draining")
            verb = require_field(obj, "verb", str)
            payload = get_field(obj, "payload", dict, None) or {}
            data = await self._ws_verb(verb, obj, payload)
            return {"rid": rid, "ok": True, "data": data}
        except ServiceError as exc:
            return {"rid": rid, "ok": False,
                    "error": exc.envelope()["error"]}
        except Exception as exc:
            return {"rid": rid, "ok": False,
                    "error": error_envelope(
                        "internal", "unexpected server error",
                        {"type": type(exc).__name__,
                         "message": str(exc)})["error"]}

    async def _ws_verb(self, verb: str, obj: Mapping[str, Any],
                       payload: dict[str, Any]) -> dict[str, Any]:
        if verb == "server_stats":
            return self._server_stats()
        tenant_id = require_field(obj, "tenant", str)
        if verb == "result":
            return await self._result(
                tenant_id,
                fresh=bool(get_field(payload, "fresh", bool, False)),
                deadline_ms=get_field(payload, "deadline_ms",
                                      (int, float), None),
                digest=get_field(payload, "digest", bool, False))
        if verb == "close":
            return await self._evict(
                tenant_id,
                checkpoint=bool(get_field(payload, "checkpoint", bool,
                                          True)))
        if verb in _TENANT_VERBS and verb != "result":
            return await self._tenant_verb(verb, tenant_id, payload)
        raise ServiceError("not_found", f"unknown verb {verb!r}",
                           {"verb": verb})

    # -- shared verb handlers ------------------------------------------
    @staticmethod
    def _require_live(tenant: Any) -> None:
        """Re-check a tenant after acquiring its lock.

        Registry lookups happen before ``await tenant.lock``; a
        concurrent evict (DELETE or LRU eviction by another open) may
        close the session while this handler waits for the lock. Acting
        on the closed session would drop admitted ops or surface as a
        500 — answer ``unknown_tenant`` instead, exactly as if the
        request had arrived after the evict.
        """
        if tenant.closed:
            raise ServiceError(
                "unknown_tenant",
                f"tenant {tenant.tenant_id!r} was evicted",
                {"tenant": tenant.tenant_id})

    async def _tenant_verb(self, verb: str, tenant_id: str,
                           payload: dict[str, Any]) -> dict[str, Any]:
        if verb == "open":
            return await self._open(tenant_id, payload)
        if verb == "batch":
            ops = require_field(payload, "ops", list)
            return await self._write(tenant_id, ops, payload)
        if verb == "delete":
            ids = require_field(payload, "ids", list)
            ops = [{"kind": "delete", "id": i} for i in ids]
            return await self._write(tenant_id, ops, payload)
        if verb == "stats":
            return await self._tenant_stats(tenant_id)
        if verb == "checkpoint":
            return await self._checkpoint(tenant_id)
        raise ServiceError("not_found", f"unknown verb {verb!r}")

    async def _open(self, tenant_id: str,
                    payload: dict[str, Any]) -> dict[str, Any]:
        tenant = self.registry.open(tenant_id, payload)
        tenant.lock = asyncio.Lock()
        out: dict[str, Any] = {
            "tenant": tenant_id,
            "alive_tuples": len(tenant.session.db),
            "d": tenant.session.db.d,
        }
        out.update(tenant.opened_info)
        recovery = getattr(tenant.session, "recovery", None)
        if recovery is not None:
            out["recovery"] = {
                "mode": recovery.get("mode"),
                "cold_starts": recovery.get("cold_starts"),
            }
        return out

    async def _write(self, tenant_id: str, ops: list[Any],
                     payload: Mapping[str, Any]) -> dict[str, Any]:
        mode = get_field(payload, "mode", str, "coalesce")
        if mode not in ("coalesce", "drain"):
            raise ServiceError(
                "bad_request",
                f"mode must be 'coalesce' or 'drain', got {mode!r}")
        tenant = self.registry.get(tenant_id)
        async with tenant.lock:
            self._require_live(tenant)
            admitted = self.registry.admit(tenant, ops)
            if mode == "drain":
                tenant.supervisor.drain()
        if mode == "coalesce":
            self._ensure_pump(tenant)
        return {"tenant": tenant_id, "admitted": admitted,
                "pending": tenant.supervisor.pending_ops, "mode": mode}

    def _ensure_pump(self, tenant: Any) -> None:
        """Start the background pump for a tenant unless one is live."""
        if tenant.pump_task is not None and not tenant.pump_task.done():
            return
        task = asyncio.get_running_loop().create_task(
            self._pump_loop(tenant))
        tenant.pump_task = task
        self._pump_tasks.add(task)
        task.add_done_callback(self._pump_tasks.discard)

    async def _pump_loop(self, tenant: Any) -> None:
        """Drain a tenant's queue one pump at a time, yielding between
        pumps so concurrent submits coalesce into the next wave."""
        while not self._closing:
            async with tenant.lock:
                if tenant.closed or tenant.supervisor.pending_ops == 0:
                    return
                tenant.supervisor.pump()
            # The yield point: requests admitted while the wave above
            # was applying join the queue and ride the next wave.
            await asyncio.sleep(0)

    async def _result(self, tenant_id: str, *, fresh: bool,
                      deadline_ms: float | None,
                      digest: bool) -> dict[str, Any]:
        tenant = self.registry.get(tenant_id)
        async with tenant.lock:
            self._require_live(tenant)
            if fresh:
                tenant.supervisor.drain()
                view = tenant.supervisor.read(deadline_s=_FRESH_DEADLINE_S)
            else:
                deadline_s = (deadline_ms / 1e3
                              if deadline_ms is not None else None)
                view = tenant.supervisor.read(deadline_s=deadline_s)
            out: dict[str, Any] = {
                "tenant": tenant_id,
                "ids": [int(i) for i in view.ids],
                "stale": view.stale,
                "lag_ops": view.lag_ops,
            }
            # Hashed under the same lock as the drain, so the digest
            # matches the ids above.
            if digest and not view.stale:
                out["result_digest"] = result_digest(tenant.session)
        return out

    async def _tenant_stats(self, tenant_id: str) -> dict[str, Any]:
        tenant = self.registry.get(tenant_id)
        async with tenant.lock:
            self._require_live(tenant)
            return tenant.stats()

    async def _checkpoint(self, tenant_id: str) -> dict[str, Any]:
        tenant = self.registry.get(tenant_id)
        async with tenant.lock:
            self._require_live(tenant)
            return self.registry.checkpoint(tenant_id)

    async def _evict(self, tenant_id: str, *,
                     checkpoint: bool) -> dict[str, Any]:
        tenant = self.registry.get(tenant_id)
        async with tenant.lock:
            self._require_live(tenant)
            return self.registry.evict(tenant_id, checkpoint=checkpoint)

    def _server_stats(self) -> dict[str, Any]:
        tenants = {}
        for tenant_id in self.registry.ids():
            tenant = self.registry.peek(tenant_id)
            tenants[tenant_id] = {
                "pending_ops": tenant.supervisor.pending_ops,
                "alive_tuples": len(tenant.session.db),
            }
        return {"server": dict(self.counters),
                "registry": self.registry.stats(),
                "tenants": tenants}
