"""Asyncio load generator + digest-parity checker for ``repro serve``.

Drives N concurrent tenants against a running :class:`ReproServer`,
each replaying one compiled scenario trace (per-tenant seeds, so the
tenants' streams — and therefore their digests — are distinct):

* writes go through the coalescing path (``mode: "coalesce"``), so
  concurrent tenants genuinely interleave on the server and the
  admission layer gets to merge consecutive requests into waves;
* every ``read_every``-th slice issues a deadline-bounded read and
  tallies fresh/stale serves and the maximum observed ``lag_ops``;
* at end of stream the tenant asks for ``result?fresh=1&digest=1``
  (the only read that opts in to the digest) and compares the served
  ``result_digest`` against an *inline* replay of the same trace
  through a plain :func:`~repro.api.session.open_session` — the
  machine-checked proof that the network edge (admission, coalescing,
  quotas, concurrency) never changed what the engine computed. A
  missing digest fails the check.

Tenants alternate transports (HTTP keep-alive, WebSocket) so both wire
paths face concurrent load. The CI ``serve-smoke`` job runs this via
``repro serve-load`` and gates on ``parity_ok`` plus the p99 admission
SLO.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Mapping

from repro.data.database import INSERT, Operation
from repro.server.wire import HttpClient, HttpError, WebSocketClient

__all__ = ["inline_digest", "run_load", "wait_ready"]


def _wire_ops(ops: list[Operation]) -> list[dict[str, Any]]:
    """Serialize trace operations to the wire schema.

    ``float(x)`` round-trips every float64 exactly through JSON
    (repr-based encoding), so the server reconstructs bit-identical
    points and digest parity is meaningful.
    """
    out: list[dict[str, Any]] = []
    for op in ops:
        if op.kind == INSERT:
            out.append({"kind": "insert",
                        "point": [float(x) for x in op.point]})
        else:
            out.append({"kind": "delete", "id": int(op.tuple_id)})
    return out


def inline_digest(trace: Any, *, r: int, k: int = 1, seed: int = 0,
                  eps: float = 0.1, m_max: int = 128) -> str:
    """The reference digest: a plain in-process replay of one trace."""
    from repro.api.session import open_session
    from repro.scenarios.replay import batch_slices
    from repro.service.supervisor import result_digest

    workload = trace.workload
    session = open_session(workload.initial, r, k=k, algo="fd-rms",
                           seed=seed, eps=eps, m_max=m_max)
    try:
        for start, stop in batch_slices(trace):
            session.apply_batch(list(workload.operations[start:stop]))
        return result_digest(session)
    finally:
        session.close()


class _Transport:
    """One tenant's connection: the same five verbs over HTTP or WS."""

    def __init__(self, host: str, port: int, kind: str) -> None:
        self.kind = kind
        self._http = HttpClient(host, port)
        self._ws = WebSocketClient(host, port) if kind == "ws" else None
        self._rid = 0

    async def connect(self) -> None:
        if self._ws is not None:
            await self._ws.connect()

    async def call(self, verb: str, tenant: str,
                   payload: Mapping[str, Any] | None = None,
                   query: str = "") -> dict[str, Any]:
        """One verb round trip; raises HttpError on an error envelope."""
        if self._ws is not None:
            self._rid += 1
            reply = await self._ws.round_trip(
                {"rid": self._rid, "verb": verb, "tenant": tenant,
                 "payload": dict(payload or {})})
            if not reply.get("ok"):
                error = reply.get("error", {})
                raise HttpError(500, f"{error.get('code')}: "
                                     f"{error.get('message')}")
            data = reply.get("data")
            return data if isinstance(data, dict) else {}
        if verb == "result":
            resp = await self._http.request(
                "GET", f"/v1/tenants/{tenant}/result{query}")
        elif verb == "stats":
            resp = await self._http.request(
                "GET", f"/v1/tenants/{tenant}/stats")
        elif verb == "close":
            resp = await self._http.request(
                "DELETE", f"/v1/tenants/{tenant}{query}")
        else:
            resp = await self._http.request(
                "POST", f"/v1/tenants/{tenant}/{verb}",
                dict(payload or {}))
        body = resp.json()
        if resp.status >= 400:
            error = body.get("error", {}) if isinstance(body, dict) else {}
            raise HttpError(resp.status, f"{error.get('code')}: "
                                         f"{error.get('message')}")
        return body if isinstance(body, dict) else {}

    async def close(self) -> None:
        if self._ws is not None:
            await self._ws.close()
        await self._http.close()


def _ws_result_payload(fresh: bool, deadline_ms: float | None, *,
                       digest: bool = False) -> dict[str, Any]:
    payload: dict[str, Any] = {"fresh": fresh}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    if digest:
        payload["digest"] = True
    return payload


async def _drive_tenant(host: str, port: int, tenant_id: str, trace: Any,
                        *, r: int, k: int, seed: int, eps: float,
                        m_max: int, transport: str, read_every: int,
                        deadline_ms: float,
                        chaos: Mapping[str, Any] | None = None,
                        config: Mapping[str, Any] | None = None
                        ) -> dict[str, Any]:
    from repro.scenarios.replay import batch_slices

    conn = _Transport(host, port, transport)
    await conn.connect()
    workload = trace.workload
    tally = {"requests": 0, "ops": 0, "stale_reads": 0, "fresh_reads": 0,
             "max_lag_ops": 0, "coalesced_pending_max": 0}
    opened = False
    try:
        open_payload: dict[str, Any] = {
            "points": [[float(x) for x in row]
                       for row in workload.initial],
            "r": r, "k": k, "seed": seed, "eps": eps, "m_max": m_max,
        }
        if chaos is not None:
            open_payload["chaos"] = dict(chaos)
        if config is not None:
            open_payload["config"] = dict(config)
        try:
            await conn.call("open", tenant_id, open_payload)
        except HttpError as exc:
            # A standing server may still hold this tenant from an
            # earlier (crashed) run: evict the leftover and retry once.
            if "tenant_exists" not in str(exc):
                raise
            await conn.call("close", tenant_id, {"checkpoint": False},
                            query="?checkpoint=0")
            await conn.call("open", tenant_id, open_payload)
        opened = True
        slices = 0
        for start, stop in batch_slices(trace):
            ops = _wire_ops(list(workload.operations[start:stop]))
            ack = await conn.call("batch", tenant_id, {"ops": ops})
            tally["requests"] += 1
            tally["ops"] += int(ack.get("admitted", 0))
            tally["coalesced_pending_max"] = max(
                tally["coalesced_pending_max"], int(ack.get("pending", 0)))
            slices += 1
            if read_every > 0 and slices % read_every == 0:
                view = await conn.call(
                    "result", tenant_id,
                    _ws_result_payload(False, deadline_ms),
                    query=f"?deadline_ms={deadline_ms}")
                tally["requests"] += 1
                if view.get("stale"):
                    tally["stale_reads"] += 1
                    tally["max_lag_ops"] = max(tally["max_lag_ops"],
                                               int(view.get("lag_ops", 0)))
                else:
                    tally["fresh_reads"] += 1
        final = await conn.call("result", tenant_id,
                                _ws_result_payload(True, None, digest=True),
                                query="?fresh=1&digest=1")
        stats = await conn.call("stats", tenant_id)
        service = stats.get("service", {})
        row = {
            "tenant": tenant_id,
            "transport": transport,
            **tally,
            "result_size": len(final.get("ids", [])),
            "served_digest": final.get("result_digest"),
            "admission_ms": service.get("admission_latency_ms", {}),
            "waves": service.get("waves"),
            "backpressure_events": service.get("backpressure_events"),
        }
        if "chaos" in stats:
            # Carried in the row because the tenant is evicted below —
            # the registry entry is gone by the time callers look.
            row["chaos"] = stats["chaos"]
        return row
    finally:
        # Leave the server as we found it: a standing server must
        # accept a second serve-load run without tenant_exists errors.
        if opened:
            try:
                await conn.call("close", tenant_id, {"checkpoint": False},
                                query="?checkpoint=0")
            except (HttpError, OSError, asyncio.IncompleteReadError):
                pass
        await conn.close()


async def wait_ready(host: str, port: int, *,
                     timeout_s: float = 20.0) -> None:
    """Poll ``/healthz`` until the server answers (CI boot race)."""
    deadline = time.perf_counter() + timeout_s
    last_error: Exception | None = None
    while time.perf_counter() < deadline:
        client = HttpClient(host, port)
        try:
            resp = await client.request("GET", "/healthz")
            if resp.status == 200:
                return
        except (OSError, HttpError, asyncio.IncompleteReadError) as exc:
            last_error = exc
        finally:
            await client.close()
        await asyncio.sleep(0.1)
    raise TimeoutError(f"server at {host}:{port} not ready after "
                       f"{timeout_s}s: {last_error}")


async def run_load(host: str, port: int, scenario_name: str, *,
                   tenants: int = 2, n: int | None = None, seed: int = 0,
                   r: int = 10, k: int = 1, eps: float = 0.1,
                   m_max: int = 128, read_every: int = 4,
                   deadline_ms: float = 2.0,
                   chaos_tenant: int | None = None,
                   chaos_spec: str = "all", chaos_seed: int = 1,
                   check_parity: bool = True) -> dict[str, Any]:
    """Drive ``tenants`` concurrent tenants; returns the summary dict.

    Each tenant replays the scenario compiled with ``seed + index``;
    when ``check_parity`` is set, each served final digest is compared
    against the tenant's inline reference replay. ``chaos_tenant``
    (index) opens that one tenant with a server-side chaos injector —
    the isolation claim is that the *other* tenants' parity still
    holds.
    """
    from repro.scenarios import get_scenario
    from repro.scenarios.replay import floor_r

    scenario = get_scenario(scenario_name)
    traces = [scenario.compile(seed=seed + i, n=n)
              for i in range(tenants)]
    r_eff = floor_r(r, traces[0].d)
    started = time.perf_counter()
    jobs = []
    for i, trace in enumerate(traces):
        chaos = None
        if chaos_tenant is not None and i == chaos_tenant:
            chaos = {"spec": chaos_spec, "seed": chaos_seed}
        jobs.append(_drive_tenant(
            host, port, f"tenant{i}", trace, r=r_eff, k=k,
            seed=seed + i, eps=eps, m_max=m_max,
            transport="ws" if i % 2 else "http",
            read_every=read_every, deadline_ms=deadline_ms, chaos=chaos))
    per_tenant = list(await asyncio.gather(*jobs))
    wall_s = time.perf_counter() - started
    stats_client = HttpClient(host, port)
    try:
        server_stats = (await stats_client.request(
            "GET", "/v1/stats")).json()
    finally:
        await stats_client.close()
    parity_ok = True
    for i, row in enumerate(per_tenant):
        if check_parity:
            reference = inline_digest(traces[i], r=r_eff, k=k,
                                      seed=seed + i, eps=eps, m_max=m_max)
            row["inline_digest"] = reference
            # A missing served digest is None, never equal to the
            # reference string, so it fails rather than passes.
            row["parity_ok"] = row["served_digest"] == reference
            parity_ok = parity_ok and row["parity_ok"]
    p99 = max((float(row.get("admission_ms", {}).get("p99", 0.0))
               for row in per_tenant), default=0.0)
    return {
        "scenario": scenario.name,
        "tenants": tenants,
        "n": n if n is not None else scenario.n,
        "seed": seed,
        "r": r_eff, "k": k, "eps": eps, "m_max": m_max,
        "wall_seconds": round(wall_s, 3),
        "parity_checked": check_parity,
        "parity_ok": parity_ok if check_parity else None,
        "admission_p99_ms": p99,
        "per_tenant": per_tenant,
        "server": server_stats,
    }
