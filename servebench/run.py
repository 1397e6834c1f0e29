"""Served benchmark: one ``repro serve`` process, one load generator.

Usage, from the root of the repository::

    python3 servebench/run.py --workload batch-churn --seed 1 \
        --seconds 10 --trace 0

Every workload runs one stock ``repro serve --port 0`` process (the
traced entry script ``traced_serve.py`` with ``--trace 1``) and drives
it from this process: one asyncio thread, one connection per loop.
Both processes pin BLAS to one thread, so on two cores they do not
compete for a core. Every tenant runs the BENCH_hotpath engine config:
Indep, d=6, 50k alive tuples, r=20, k=1, eps=0.1, m_max=1024, with its
own 50/50 insert/delete stream drawn from ``--seed``.

Set-up (off every clock but ``setup_s``): spawn the server, open and
evict a tiny warm-up tenant, then one timed ``open`` request per tenant
(``dataset``+``n`` form, so the server builds the points). ``setup_s``
is the median of those client round trips: three or four per run.

Only requests whose work does not depend on timing are timed: writes
and ``result?fresh=1`` reads. Every request body is encoded (and
WebSocket frames masked) before the clock starts. Latency runs from
the moment a request was due: the previous reply in a closed loop, the
schedule in an open loop. The timed phase ends with a fresh read per
tenant, a barrier that leaves every acknowledged write applied.
A workload without timed reads then times 600 fresh reads on its idle
tenants, so every workload reports the read path.

The cost of one FD-RMS update is heavy-tailed: a delete that hits a
tuple on top of many utilities repairs hundreds of top-k sets, and
which such events a stream holds depends on its seed. So each writer
sends round robin to three tenants with independent streams, and
``ops_per_s`` is a median over chunks of the timed phase. Latency tails
(median over chunks of each chunk's tail percentile) are printed on
every run and reported as per-layer metrics of the traced run: on a
shared two-core host they spread too far between runs to gate on.

After timing stops the run checks its outputs: each tenant's served
result ids and engine counters must equal an inline ``open_session``
replay of the same requests (two worker processes share the replays),
no read may be stale, no request may fail, and the open-loop writer
may not end with more than two seconds of its load queued.
``regret_max`` is computed from the served results. The last line of
stdout is one JSON object; a failed check exits 1.

``--trace 1`` reports per-layer metrics instead. Tracing alternates
off and on every half second of the timed phase (SIGUSR2 / SIGUSR1 to
the server) and stays on for the read probes; the ops/s difference
between the two kinds of slice is ``trace.overhead_frac``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; children inherit it

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import deque  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = ".servebench"

N0, D, R, K, EPS, M_MAX = 50_000, 6, 20, 1, 0.1, 1024
WARMUP_N = 2_000
PROBE_READS = 600
REGRET_UTILITIES = 5_000
TRACE_SLICE_S = 0.5
#: An open-loop writer whose queue at the deadline holds more than this
#: much of its offered load did not keep up: the run fails.
BACKLOG_LIMIT_S = 2.0
OPS_CHUNKS = 20
ENGINE_COUNTERS = ("inserts", "deletes", "deltas", "m_changes",
                   "cover_rebuilds", "stabilize_steps", "m", "solution_size")


@dataclass(frozen=True)
class Loop:
    """One connection's traffic: requests round robin over its tenants."""

    tenants: tuple[str, ...]
    transport: str                  # "http" or "ws"
    ops_per_request: int
    max_requests_per_s: float       # pre-encoded stream per second
    #: Open loop, requests/s; 0 = closed. Request i is due at a seeded
    #: uniform point of its slot ``[i, i+1) / rate``: a fixed period
    #: would lock in phase with a closed loop's cycle floor, so the
    #: start offset would decide for a whole run how often they collide.
    rate: float = 0.0
    #: Closed loop with a floor on the cycle: the next write is due this
    #: long after the previous one was, or at the reply if that is later.
    cycle_s: float = 0.0
    read_after_write: bool = False  # a fresh read follows each write
    time_writes: bool = True
    #: The server's write mode: ``coalesce`` acknowledges on admission
    #: and applies in a background pump; ``drain`` applies, then answers.
    mode: str = "coalesce"


@dataclass(frozen=True)
class Workload:
    loops: tuple[Loop, ...]
    #: ``(chunks, percentile)`` of the write and read tails (see
    #: :func:`windowed`): at the workload's usual sample counts each
    #: chunk leaves at least ten samples beyond the percentile.
    write_tail: tuple[int, float]
    read_tail: tuple[int, float]
    probe_reads: bool = True

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(t for loop in self.loops for t in loop.tenants)


ROUND_ROBIN = ("t0", "t1", "t2")
WORKLOADS = {
    "batch-churn": Workload(
        loops=(Loop(ROUND_ROBIN, "http", 64, 400.0),),
        write_tail=(12, 90.0), read_tail=(6, 90.0)),
    # Writer A (three tenants, round robin) sends at about an eighth of
    # what batch-churn sustains and B's cycle floor is 50 ms. The server
    # then stays far from saturation even when the shared host slows:
    # queueing would amplify every slowdown into A's latency. B's reads
    # still wait behind A's waves. A's writes drain before the reply,
    # so their latency includes the wave.
    "mixed-tenants": Workload(
        loops=(Loop(("a0", "a1", "a2"), "ws", 64, 12.0, rate=12.0,
                    mode="drain"),
               Loop(("b",), "http", 8, 25.0, cycle_s=0.05,
                    read_after_write=True, time_writes=False)),
        write_tail=(2, 90.0), read_tail=(3, 90.0), probe_reads=False),
}

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "write_p50_ms": "ms",
    "read_p50_ms": "ms", "peak_rss_mb": "MB", "regret_max": "ratio",
}
PER_LAYER_UNITS = {
    "server.wire.decode_ms": "ms", "server.wire.encode_ms": "ms",
    "server.wire.bytes_in": "B", "server.wire.bytes_out": "B",
    "server.app.wait_ms": "ms", "server.app.wait_tail_ms": "ms",
    "server.tenants.admit_ms": "ms", "service.submit_ms": "ms",
    "api.apply_self_ms": "ms", "service.wave_ms": "ms",
    "service.wave_tail_ms": "ms", "service.waves": "count",
    "service.ops_per_wave": "count", "service.read_ms": "ms",
    "service.digest_ms": "ms", "service.stale_reads": "count",
    "core.fdrms.self_ms_per_op": "ms", "core.topk.ms_per_op": "ms",
    "core.set_cover.ms_per_op": "ms", "data.database.ms_per_op": "ms",
    "index.kdtree.ms_per_op": "ms", "core.open.kdtree_build_s": "s",
    "core.open.bootstrap_gemm_s": "s", "core.open.membership_fill_s": "s",
    "core.open.cover_greedy_s": "s", "server.tenants.open_s": "s",
    "core.deltas_per_op": "count", "core.stabilize_steps_per_op": "count",
    "core.m_changes": "count", "core.cover_rebuilds": "count",
    "client.write_tail_ms": "ms", "client.read_tail_ms": "ms",
    "client.gen_late_ms": "ms", "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The run could not be carried out (no result is printed)."""


# ----------------------------------------------------------------------
# Inputs: seeded op streams, encoded before the clock starts
# ----------------------------------------------------------------------

def tenant_seed(seed: int, index: int) -> int:
    return seed * 16 + index


class Stream:
    """A seeded 50/50 insert/delete stream over one tenant's ids.

    Ids are assigned in application order (initial tuples ``0..n0-1``,
    then one per insert), so deletes can name alive tuples up front.
    """

    def __init__(self, seed: int, n_ops: int) -> None:
        # One generator per field, so a longer stream extends a shorter
        # one with the same seed instead of reshuffling it.
        kinds, points, victims = (np.random.default_rng(child) for child
                                  in np.random.SeedSequence(seed).spawn(3))
        self.is_insert = kinds.random(n_ops) < 0.5
        self.points = points.random((n_ops, D))
        picks = victims.random(n_ops).tolist()
        chosen = [-1] * n_ops
        alive = list(range(N0))
        next_id = N0
        for i, insert in enumerate(self.is_insert.tolist()):
            if insert:
                alive.append(next_id)
                next_id += 1
            else:
                j = int(picks[i] * len(alive))
                chosen[i] = alive[j]
                alive[j] = alive[-1]
                alive.pop()
        self.victims = np.asarray(chosen, dtype=np.int64)

    def wire_ops(self, start: int, stop: int) -> list[dict[str, Any]]:
        points = self.points[start:stop].tolist()
        return [{"kind": "insert", "point": points[i - start]}
                if self.is_insert[i] else
                {"kind": "delete", "id": int(self.victims[i])}
                for i in range(start, stop)]

    def operations(self, stop: int) -> list[Any]:
        from repro.data.database import DELETE, INSERT, Operation
        return [Operation(INSERT, self.points[i], None) if self.is_insert[i]
                else Operation(DELETE, None, int(self.victims[i]))
                for i in range(stop)]


def http_bytes(method: str, target: str, payload: Any = None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def ws_frame(text: str, counter: int) -> bytes:
    """One masked client text frame (RFC 6455 section 5.2)."""
    payload = text.encode()
    n = len(payload)
    if n < 126:
        head = struct.pack(">BB", 0x81, 0x80 | n)
    elif n < 1 << 16:
        head = struct.pack(">BBH", 0x81, 0x80 | 126, n)
    else:
        head = struct.pack(">BBQ", 0x81, 0x80 | 127, n)
    key = struct.pack(">I", counter & 0xFFFFFFFF)
    keys = (key * (n // 4 + 1))[:n]
    masked = (int.from_bytes(payload, "little")
              ^ int.from_bytes(keys, "little")).to_bytes(n, "little")
    return head + key + masked


def tenant_path(tenant: str, verb: str = "") -> str:
    return f"/v1/tenants/{tenant}" + (f"/{verb}" if verb else "")


def open_payload(seed: int, n: int = N0) -> dict[str, Any]:
    return {"dataset": "Indep", "n": n, "data_seed": seed, "r": R, "k": K,
            "seed": seed, "eps": EPS, "m_max": M_MAX}


def encode_loop(loop: Loop, seeds: dict[str, int], seconds: float
                ) -> list[bytes]:
    """The loop's requests in send order, round robin over its tenants,
    each tenant's stream cut into ``ops_per_request`` slices."""
    n_requests = int(loop.max_requests_per_s * seconds) + 1
    step = loop.ops_per_request
    per_tenant = (n_requests // len(loop.tenants) + 1) * step
    streams = {t: Stream(seeds[t], per_tenant) for t in loop.tenants}
    out = []
    for i in range(n_requests):
        tenant = loop.tenants[i % len(loop.tenants)]
        j = i // len(loop.tenants)
        payload = {"ops": streams[tenant].wire_ops(j * step, (j + 1) * step),
                   "mode": loop.mode}
        if loop.transport == "ws":
            out.append(ws_frame(json.dumps(
                {"rid": i, "verb": "batch", "tenant": tenant,
                 "payload": payload}), i + 1))
        else:
            out.append(http_bytes("POST", tenant_path(tenant, "batch"),
                                  payload))
    return out


# ----------------------------------------------------------------------
# Client connections
# ----------------------------------------------------------------------

class Conn:
    """A client connection; records when each request was written, so
    the traced run can join server spans to client sends."""

    def __init__(self) -> None:
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.sends: list[float] = []
        self.port = 0

    async def connect(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port)
        self.port = int(self.writer.get_extra_info("sockname")[1])

    def send(self, data: bytes) -> None:
        assert self.writer is not None
        self.sends.append(time.perf_counter())
        self.writer.write(data)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class HttpConn(Conn):
    """One keep-alive HTTP connection sending pre-encoded requests."""

    async def call(self, request: bytes) -> tuple[int, bytes]:
        assert self.reader is not None
        self.send(request)
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        at = head.lower().find(b"content-length:")
        length = int(head[at + 15:head.find(b"\r\n", at)]) if at >= 0 else 0
        return status, await self.reader.readexactly(length)

    async def json(self, request: bytes) -> dict[str, Any]:
        status, body = await self.call(request)
        if status != 200:
            raise BenchError(f"request failed with {status}: {body[:200]!r}")
        return json.loads(body)


class WsConn(Conn):
    """One WebSocket connection: pre-masked frames out, replies in."""

    async def connect(self, port: int) -> None:
        await super().connect(port)
        assert self.reader is not None
        self.send(
            b"GET /v1/ws HTTP/1.1\r\nHost: bench\r\nUpgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Key: c2VydmViZW5jaC1rZXkxMg==\r\n"
            b"Sec-WebSocket-Version: 13\r\n\r\n")
        head = await self.reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0] + b" ":
            raise BenchError(f"WebSocket handshake refused: {head[:80]!r}")

    async def recv(self) -> bytes:
        assert self.reader is not None
        b0, b1 = await self.reader.readexactly(2)
        n = b1 & 0x7F
        if n == 126:
            (n,) = struct.unpack(">H", await self.reader.readexactly(2))
        elif n == 127:
            (n,) = struct.unpack(">Q", await self.reader.readexactly(8))
        payload = await self.reader.readexactly(n)
        if b0 & 0x0F != 0x1:
            raise BenchError(f"unexpected WebSocket opcode {b0 & 0x0F}")
        return payload


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """What the generator saw on the clock: ``(done, ms)`` latencies."""

    writes: list[tuple[float, float]] = field(default_factory=list)
    reads: list[tuple[float, float]] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    acks: list[tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stale: int = 0
    sent: dict[str, int] = field(default_factory=dict)  # requests/tenant

    def reply(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def ops_between(self, t0: float, t1: float) -> int:
        return sum(ops for at, ops in self.acks if t0 <= at < t1)

    def ops_per_s(self, start: float, chunks: int) -> float:
        """Median over ``chunks`` consecutive, equal-count runs of write
        acknowledgements of each run's ops per second, so a burst of
        contention or one very slow wave moves one chunk, not the run."""
        acks = sorted(self.acks)
        times = np.asarray([start] + [at for at, _ in acks])
        ops = np.cumsum([0] + [n for _, n in acks])
        edges = np.linspace(0, len(acks), chunks + 1).round().astype(int)
        rates = [(ops[b] - ops[a]) / (times[b] - times[a])
                 for a, b in zip(edges[:-1], edges[1:])]
        return float(np.median(rates))


def _write_ok(body: bytes, expect: int, ws: bool) -> bool:
    reply = json.loads(body)
    if ws:
        if not reply.get("ok"):
            return False
        reply = reply.get("data", {})
    return reply.get("admitted") == expect


def _read_ok(body: bytes, tally: Tally) -> bool:
    reply = json.loads(body)
    if reply.get("stale"):
        tally.stale += 1
    return "ids" in reply


async def closed_loop(loop: Loop, conn: Any, requests: list[bytes],
                      deadline: float, tally: Tally) -> None:
    """Send the next request only after the previous reply."""
    ws = loop.transport == "ws"
    reads = [http_bytes("GET", tenant_path(t, "result") + "?fresh=1")
             for t in loop.tenants]
    due = time.perf_counter()
    sent = 0
    while sent < len(requests) and due < deadline:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        cycle = due
        tally.late_ms.append(1e3 * (time.perf_counter() - due))
        if ws:
            conn.send(requests[sent])
            body, status = await conn.recv(), 200
        else:
            status, body = await conn.call(requests[sent])
        done = time.perf_counter()
        tally.reply(status == 200
                    and _write_ok(body, loop.ops_per_request, ws))
        if loop.time_writes:
            tally.writes.append((done, 1e3 * (done - due)))
        tally.acks.append((done, loop.ops_per_request))
        due = done
        if loop.read_after_write:
            status, body = await conn.call(reads[sent % len(reads)])
            done = time.perf_counter()
            tally.reply(status == 200 and _read_ok(body, tally))
            tally.reads.append((done, 1e3 * (done - due)))
            due = done
        sent += 1
        due = max(due, cycle + loop.cycle_s)
    for i, tenant in enumerate(loop.tenants):
        tally.sent[tenant] = len(range(i, sent, len(loop.tenants)))


async def open_loop(loop: Loop, conn: WsConn, frames: list[bytes],
                    dues: list[float], deadline: float, tally: Tally) -> int:
    """Send frame i at ``dues[i]``; returns the requests still
    unanswered at the deadline (the backlog)."""
    due_times: deque[float] = deque()
    state = {"received": 0, "sent": 0, "sending": True}
    all_in = asyncio.Event()

    async def receive() -> None:
        while True:
            body = await conn.recv()
            done = time.perf_counter()
            due = due_times.popleft()
            tally.reply(_write_ok(body, loop.ops_per_request, True))
            tally.writes.append((done, 1e3 * (done - due)))
            tally.acks.append((done, loop.ops_per_request))
            state["received"] += 1
            if not state["sending"] and state["received"] == state["sent"]:
                all_in.set()

    receiver = asyncio.get_running_loop().create_task(receive())
    try:
        for frame, due in zip(frames, dues):
            if due >= deadline:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tally.late_ms.append(1e3 * (time.perf_counter() - due))
            due_times.append(due)
            conn.send(frame)
            state["sent"] += 1
        state["sending"] = False
        backlog = state["sent"] - state["received"]
        if backlog == 0:
            all_in.set()
        try:
            await asyncio.wait_for(all_in.wait(), 60.0)
        except asyncio.TimeoutError:
            missing = state["sent"] - state["received"]
            tally.attempted += missing
            tally.failed += missing
    finally:
        receiver.cancel()
        await asyncio.gather(receiver, return_exceptions=True)
    for i, tenant in enumerate(loop.tenants):
        tally.sent[tenant] = len(range(i, state["sent"], len(loop.tenants)))
    return backlog


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.log_path = os.path.join(OUT_DIR, f"server-{os.getpid()}.log")
        self.spans_path = os.path.join(OUT_DIR, f"spans-{os.getpid()}.npz")
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0

    async def start(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=SRC)
        serve = ["--host", "127.0.0.1", "--port", "0"]
        if self.traced:
            argv = [os.path.join(HERE, "traced_serve.py"), self.spans_path,
                    *serve]
        else:
            argv = ["-m", "repro", "serve", *serve]
        with open(self.log_path, "wb") as log:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, *argv, env=env,
                stdin=asyncio.subprocess.DEVNULL,
                stdout=asyncio.subprocess.PIPE, stderr=log)
        assert self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120.0)
        text = line.decode(errors="replace")
        if "listening on http://" not in text:
            raise BenchError(f"server did not start: {text!r}")
        address = text.split("listening on http://")[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def signal(self, signum: int) -> None:
        assert self.proc is not None
        self.proc.send_signal(signum)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    async def stop(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            await asyncio.wait_for(self.proc.wait(), 60.0)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()

    def log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as log:
                return log.read()[-2000:].decode(errors="replace")
        except OSError:
            return ""

    def remove_files(self) -> None:
        for path in (self.log_path, self.spans_path):
            if os.path.exists(path):
                os.remove(path)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

async def serve_and_drive(spec: Workload, seed: int, seconds: float,
                          server: Server) -> dict[str, Any]:
    try:
        await server.start()
        return await _drive(spec, seed, seconds, server)
    except BaseException:
        print(server.log_tail(), file=sys.stderr)
        raise
    finally:
        await server.stop()


async def _drive(spec: Workload, seed: int, seconds: float, server: Server
                 ) -> dict[str, Any]:
    seeds = {t: tenant_seed(seed, i) for i, t in enumerate(spec.tenants)}
    encoded = [encode_loop(loop, seeds, seconds) for loop in spec.loops]
    jitter = np.random.default_rng(seed)
    slot_offsets = [np.arange(len(requests)) + jitter.random(len(requests))
                    for requests in encoded]
    reads = {t: http_bytes("GET", tenant_path(t, "result") + "?fresh=1")
             for t in spec.tenants}

    control = HttpConn()
    await control.connect(server.port)
    # Warm-up: imports, allocator and BLAS start-up stay off the clock.
    await control.json(http_bytes("POST", tenant_path("warmup", "open"),
                                  open_payload(seed, WARMUP_N)))
    await control.json(http_bytes("DELETE",
                                  tenant_path("warmup") + "?checkpoint=0"))
    open_s = []
    for tenant, tenant_seed_ in seeds.items():
        request = http_bytes("POST", tenant_path(tenant, "open"),
                             open_payload(tenant_seed_))
        started = time.perf_counter()
        await control.json(request)
        open_s.append(time.perf_counter() - started)

    conns = []
    for loop in spec.loops:
        conn = WsConn() if loop.transport == "ws" else HttpConn()
        await conn.connect(server.port)
        conns.append(conn)

    tally = Tally()
    start = time.perf_counter()
    deadline = start + seconds
    slices: list[tuple[float, float, bool]] = []  # (from, to, traced)

    async def alternate_tracing() -> None:
        traced, at = False, start
        while at < deadline:
            until = min(at + TRACE_SLICE_S, deadline)
            await asyncio.sleep(until - time.perf_counter())
            slices.append((at, until, traced))
            traced, at = not traced, until
            server.signal(signal.SIGUSR1 if traced else signal.SIGUSR2)

    toggler = (asyncio.get_running_loop().create_task(alternate_tracing())
               if server.traced else None)
    jobs = []
    for loop, conn, requests, slots in zip(spec.loops, conns, encoded,
                                           slot_offsets):
        if loop.rate:
            dues = (start + slots / loop.rate).tolist()
            jobs.append(open_loop(loop, conn, requests, dues, deadline,
                                  tally))
        else:
            jobs.append(closed_loop(loop, conn, requests, deadline, tally))
    outcomes = await asyncio.gather(*jobs)
    backlog_ops = 0
    for loop, outcome in zip(spec.loops, outcomes):
        if loop.rate:
            stats = await control.json(http_bytes("GET", "/v1/stats"))
            backlog_ops += sum(int(stats["tenants"][t]["pending_ops"])
                               for t in loop.tenants)
            backlog_ops += int(outcome) * loop.ops_per_request
    # Barrier: a fresh read per tenant ends the phase once all is applied.
    finals = {t: await control.json(reads[t]) for t in spec.tenants}
    if toggler is not None:
        await toggler
        server.signal(signal.SIGUSR1)

    probes_from = time.perf_counter()
    if spec.probe_reads:
        for i in range(PROBE_READS):
            due = time.perf_counter()
            status, body = await control.call(
                reads[spec.tenants[i % len(spec.tenants)]])
            done = time.perf_counter()
            tally.reply(status == 200 and _read_ok(body, tally))
            tally.reads.append((done, 1e3 * (done - due)))
    probes_to = time.perf_counter()

    tenant_stats = {t: await control.json(http_bytes(
        "GET", tenant_path(t, "stats"))) for t in spec.tenants}
    peak_rss_mb = server.peak_rss_mb()
    sends = {}
    for conn in (*conns, control):
        sends[conn.port] = conn.sends
        await conn.close()
    return {
        "seeds": seeds, "tally": tally,
        "finals": finals, "tenant_stats": tenant_stats, "open_s": open_s,
        "start": start, "slices": slices,
        "probes": (probes_from, probes_to), "backlog_ops": backlog_ops,
        "peak_rss_mb": peak_rss_mb, "sends": sends,
    }


# ----------------------------------------------------------------------
# Correctness (after timing stops)
# ----------------------------------------------------------------------

def regret_max(points: np.ndarray, result: np.ndarray) -> float:
    """Max k-regret ratio of ``result`` over ``points`` (k=1) on a fixed
    utility sample, via :func:`repro.core.regret.max_k_regret_ratio_sampled`.

    For k=1 a utility's regret depends on ``points`` only through its
    best tuple, so the estimator runs on the per-utility winners: the
    same value without a 50k-row partition per utility block.
    """
    from repro.core.regret import (cached_test_utilities,
                                   max_k_regret_ratio_sampled)
    utilities = cached_test_utilities(REGRET_UTILITIES, D, seed=0,
                                      with_basis=True)
    winners: set[int] = set()
    for lo in range(0, len(utilities), 256):
        scores = utilities[lo:lo + 256] @ points.T
        winners.update(np.argmax(scores, axis=1).tolist())
    return max_k_regret_ratio_sampled(points[sorted(winners)], result, K,
                                      utilities=utilities)


def replay_tenant(name: str, seed: int, n_ops: int, step: int,
                  served_ids: list[int], served: dict[str, Any]
                  ) -> tuple[list[str], list[str], float]:
    """Inline replay of one tenant's requests (runs in a worker).

    Returns the problems found, the engine counters that differ, and
    the served result's max regret ratio on the final alive set.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.api.session import open_session
    from repro.data import make_dataset

    session = open_session(make_dataset("Indep", n=N0, seed=seed), R, k=K,
                           algo="fd-rms", seed=seed, eps=EPS, m_max=M_MAX)
    try:
        ops = Stream(seed, n_ops).operations(n_ops)
        for lo in range(0, n_ops, step):
            session.apply_batch(ops[lo:lo + step])
        problems = []
        if served_ids != [int(i) for i in session.result()]:
            problems.append(f"{name}: served result ids differ from the "
                            f"inline replay")
        inline = session.stats()
        differ = [key for key in ENGINE_COUNTERS
                  if int(served.get(key, -1)) != int(inline[key])]
        problems += [f"{name}: engine counter {key} served "
                     f"{served.get(key)} != inline {inline[key]}"
                     for key in differ]
        _, points = session.db.snapshot()
        return problems, differ, regret_max(points,
                                            session.db.points(served_ids))
    finally:
        session.close()


def check(spec: Workload, run: dict[str, Any]) -> tuple[list[str], float,
                                                        list[str]]:
    """Replay every tenant inline; returns (problems, regret, exact)."""
    tally: Tally = run["tally"]
    jobs = []
    steps = {t: loop.ops_per_request for loop in spec.loops
             for t in loop.tenants}
    # Fork, not spawn: spawn's semaphores start a resource-tracker
    # process that outlives this one. The timed phase is over and its
    # event loop closed, so no thread holds a lock across the fork.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        for tenant in spec.tenants:
            jobs.append(pool.submit(
                replay_tenant, tenant, run["seeds"][tenant],
                tally.sent[tenant] * steps[tenant], steps[tenant],
                [int(i) for i in run["finals"][tenant]["ids"]],
                run["tenant_stats"][tenant]["session"]))
        results = [job.result() for job in jobs]
    problems = [p for found, _, _ in results for p in found]
    differ = {key for _, keys, _ in results for key in keys}
    if tally.failed:
        problems.append(f"{tally.failed} of {tally.attempted} requests "
                        f"failed")
    if tally.stale:
        problems.append(f"{tally.stale} fresh reads came back stale")
    for loop in spec.loops:
        limit = BACKLOG_LIMIT_S * loop.rate * loop.ops_per_request
        if loop.rate and run["backlog_ops"] > limit:
            problems.append(f"open-loop writer fell behind: "
                            f"{run['backlog_ops']} ops queued at the "
                            f"deadline, more than {BACKLOG_LIMIT_S:g} s "
                            f"of its load")
    regret = statistics.mean(r for _, _, r in results)
    return problems, regret, [k for k in ENGINE_COUNTERS if k not in differ]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def windowed(samples: list[tuple[float, float]], windows: int,
             pct: float, label: str) -> tuple[float, float]:
    """``(p50, tail)`` of ``(done, ms)`` samples.

    The tail is the median over ``windows`` consecutive, equal-count
    chunks of the samples (in time order) of each chunk's ``pct``
    percentile, so one burst of contention on a shared host or one very
    slow operation moves a chunk, not the run. A chunk must leave at
    least ten samples beyond ``pct``, or the highest percentile that
    does is used and printed.
    """
    import layertrace

    data = np.asarray(samples, dtype=np.float64).reshape(-1, 2)
    data = data[np.argsort(data[:, 0], kind="stable")]
    tails, used = [], set()
    for chunk in np.array_split(data[:, 1], windows):
        if chunk.size * (100.0 - pct) / 100.0 >= 10:
            tails.append(float(np.percentile(chunk, pct)))
            used.add(pct)
        else:
            value, fallback = layertrace.tail(chunk)
            tails.append(value)
            used.add(fallback)
    p50 = float(np.median(data[:, 1]))
    tail = float(np.median(tails))
    print(f"{label}: p50 {p50:.4f} ms over {len(data)} requests; tail "
          f"{tail:.4f} ms = median over {windows} chunks of "
          + "/".join(f"p{u}" for u in sorted(used)))
    return p50, tail


def end_to_end(spec: Workload, run: dict[str, Any], regret: float
               ) -> dict[str, float]:
    tally: Tally = run["tally"]
    write_p50, _ = windowed(tally.writes, *spec.write_tail, "write")
    read_p50, _ = windowed(tally.reads, *spec.read_tail, "read")
    return {
        "setup_s": statistics.median(run["open_s"]),
        # The barrier read leaves every acknowledged op applied.
        "ops_per_s": tally.ops_per_s(run["start"], OPS_CHUNKS),
        "write_p50_ms": write_p50, "read_p50_ms": read_p50,
        "peak_rss_mb": run["peak_rss_mb"], "regret_max": regret,
    }


def per_layer(spec: Workload, run: dict[str, Any], spans_path: str
              ) -> dict[str, float]:
    import layertrace

    rows, meta = layertrace.load(spans_path)
    if meta["absent"]:
        print("absent entry points: " + ", ".join(meta["absent"]))
    on = [(a, b) for a, b, traced in run["slices"] if traced]
    off = [(a, b) for a, b, traced in run["slices"] if not traced]
    out = layertrace.layer_metrics(rows, meta, on + [run["probes"]],
                                   run["sends"])
    opens = [o for o in meta["opens"] if o["tenant"] != "warmup"]
    for key in ("kdtree_build", "bootstrap_gemm", "membership_fill",
                "cover_greedy"):
        out[f"core.open.{key}_s"] = statistics.median(
            o["profile"].get(key, 0.0) for o in opens)
    out["server.tenants.open_s"] = statistics.median(
        o["seconds"] for o in opens)
    engine = [s["session"] for s in run["tenant_stats"].values()]
    service = [s["service"] for s in run["tenant_stats"].values()]
    ops = sum(int(e["inserts"]) + int(e["deletes"]) for e in engine)
    out["service.stale_reads"] = float(sum(int(s["stale_serves"])
                                           for s in service))
    out["core.deltas_per_op"] = sum(int(e["deltas"]) for e in engine) / ops
    out["core.stabilize_steps_per_op"] = sum(
        int(e["stabilize_steps"]) for e in engine) / ops
    out["core.m_changes"] = float(sum(int(e["m_changes"]) for e in engine))
    out["core.cover_rebuilds"] = float(sum(int(e["cover_rebuilds"])
                                           for e in engine))
    tally: Tally = run["tally"]
    out["client.write_tail_ms"] = windowed(tally.writes, *spec.write_tail,
                                           "write")[1]
    out["client.read_tail_ms"] = windowed(tally.reads, *spec.read_tail,
                                          "read")[1]
    out["client.gen_late_ms"] = layertrace.tail(tally.late_ms)[0]

    def rate(spans: list[tuple[float, float]]) -> float:
        return (sum(tally.ops_between(a, b) for a, b in spans)
                / sum(b - a for a, b in spans))

    out["trace.overhead_frac"] = 1.0 - rate(on) / rate(off)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"servebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like Ctrl-C, so every finally block stops and
    # waits for the processes it started.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    spec = WORKLOADS[args.workload]
    server = Server(traced=bool(args.trace))
    began = time.perf_counter()
    try:
        run = asyncio.run(serve_and_drive(spec, args.seed, args.seconds,
                                          server))
        served = time.perf_counter()
        problems, regret, exact = check(spec, run)
        print(f"wall: served phase {served - began:.1f} s (opens "
              + ", ".join(f"{s:.3f}" for s in run["open_s"])
              + f" s), inline check {time.perf_counter() - served:.1f} s")
        print("engine counters equal to the inline replay, a pure function "
              "of the seed and the requests sent: " + ", ".join(exact))
        print("timing-dependent service counters: " + json.dumps(
            {t: {k: s["service"][k] for k in ("waves", "resumed_pumps",
                                              "backpressure_events")}
             for t, s in run["tenant_stats"].items()}, sort_keys=True))
        if args.trace:
            values = per_layer(spec, run, server.spans_path)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(spec, run, regret)
            units = END_TO_END_UNITS
    finally:
        server.remove_files()
    for problem in problems:
        print(f"FAIL: {problem}")
    tally: Tally = run["tally"]
    print(json.dumps({
        "correct": not problems, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
