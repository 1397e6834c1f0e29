"""Outside-in span tracer for one ``repro serve`` process.

The tracer wraps entry points of the server's modules at class or
module level before the server starts; no file under ``src/`` changes.
Each call of a wrapped entry point becomes one span: a name, start and
end on ``time.perf_counter`` (CLOCK_MONOTONIC, so the load generator's
timestamps are comparable), the span that was open when it began, the
asyncio task of a top-level span, and a value (ops applied by a wave,
bytes moved by a socket call). Spans stay in memory and are written out
when the server exits; :func:`layer_metrics` turns them into the
per-layer numbers ``run.py`` reports.

Coroutines share the loop thread with other tasks, so a coroutine span
would mostly measure other tasks. A wrapped coroutine is therefore
timed step by step: each stretch of synchronous work between two of its
suspension points is one span (request decode and WebSocket unmask;
response encode and framing).

An entry point that no longer exists is skipped and reported as absent,
so the benchmark keeps working when the program drops a module.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import inspect
import json
import time
import types
from array import array
from typing import Any, Callable

import numpy as np

#: ``(module, attribute path, span name, kind)``. ``steps`` marks a
#: coroutine timed per step; ``sync`` a plain call. Names starting with
#: ``req.`` are zero-length markers bounding one request on its task.
SYNC, STEPS = "sync", "steps"
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.server.app", "read_request", "wire.decode", STEPS),
    ("repro.server.app", "ws_read_message", "wire.decode", STEPS),
    ("repro.server.wire", "HttpRequest.json", "wire.decode", SYNC),
    ("repro.server.app", "json.loads", "wire.decode", SYNC),
    ("repro.server.app", "write_response", "wire.encode", STEPS),
    ("repro.server.app", "ws_write_message", "wire.encode", STEPS),
    ("repro.server.app", "json.dumps", "wire.encode", SYNC),
    ("asyncio", "StreamReader.feed_data", "wire.bytes_in", SYNC),
    ("asyncio", "StreamWriter.write", "wire.bytes_out", SYNC),
    ("repro.server.tenants", "TenantRegistry.admit", "tenants.admit", SYNC),
    ("repro.service.supervisor", "SessionSupervisor.submit",
     "service.submit", SYNC),
    ("repro.service.supervisor", "SessionSupervisor._pump_wave",
     "service.wave", SYNC),
    ("repro.service.supervisor", "SessionSupervisor.read",
     "service.read", SYNC),
    ("repro.server.app", "result_digest", "service.digest", SYNC),
    ("repro.api.session", "FDRMSSession.apply_batch", "api.apply", SYNC),
    ("repro.core.fdrms", "FDRMS.apply_batch", "core.fdrms", SYNC),
    *(("repro.core.topk", f"ApproxTopKIndex.{name}", "core.topk", SYNC)
      for name in ("begin_insert_run", "begin_delete_run", "insert_log",
                   "delete_log")),
    ("repro.core.topk", "_InsertRun.step_log", "core.topk", SYNC),
    ("repro.core.topk", "_DeleteRun.step_log", "core.topk", SYNC),
    *(("repro.core.set_cover", f"StableSetCover.{name}", "core.set_cover",
       SYNC)
      for name in ("begin_batch", "end_batch", "add_to_set",
                   "remove_from_set", "add_elems_to_set", "add_elem_to_sets",
                   "remove_elem_from_sets", "add_element", "remove_element",
                   "remove_set", "build", "rebuild")),
    *(("repro.data.database", f"Database.{name}", "data.database", SYNC)
      for name in ("insert", "delete", "insert_many", "delete_many",
                   "apply_batch")),
    *(("repro.index.kdtree", f"KDTree.{name}", "index.kdtree", SYNC)
      for name in ("insert", "delete", "insert_many", "delete_many",
                   "top_k", "range_query")),
)

#: How a span's value is taken from ``(result, args)``.
_VALUES: dict[str, Callable[[Any, tuple[Any, ...]], float]] = {
    "wire.bytes_in": lambda _out, args: len(args[1]),
    "wire.bytes_out": lambda _out, args: len(args[1]),
    "service.wave": lambda out, _args: out,
}

#: Markers: the read coroutine returned a request, the write coroutine
#: started its response.
_DONE_MARKERS = {"read_request": "req.read_done",
                 "ws_read_message": "req.read_done"}
_START_MARKERS = {"write_response": "req.write_start",
                  "ws_write_message": "req.write_start"}

_NAME, _START, _END, _PARENT, _TASK, _VALUE = range(6)


def _task_id() -> int:
    try:
        task = asyncio.current_task()
    except RuntimeError:  # a loop callback, not a task step
        return 0
    return id(task) if task is not None else 0


class Tracer:
    """In-memory span store, off until :meth:`start`.

    Spans live in one flat ``array('d')`` of six fields each: no
    per-span Python object, so the garbage collector never walks them.
    """

    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.data = array("d")
        self._stack: list[int] = []
        self.opens: list[dict[str, Any]] = []
        self.peers: dict[str, int] = {}
        self.absent: list[str] = []

    def start(self) -> None:
        self.on = True

    def stop(self) -> None:
        self.on = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        """Open a span; returns its offset in :attr:`data`."""
        stack, data = self._stack, self.data
        at = len(data)
        if stack:
            data.extend((nid, 0.0, 0.0, stack[-1] // 6, 0, 0))
        else:
            data.extend((nid, 0.0, 0.0, -1, _task_id(), 0))
        stack.append(at)
        data[at + _START] = time.perf_counter()
        return at

    def end(self, at: int) -> None:
        self.data[at + _END] = time.perf_counter()
        self._stack.pop()

    def mark(self, nid: int) -> None:
        now = time.perf_counter()
        self.data.extend((nid, now, now, -1, _task_id(), 0))

    def dump(self, path: str) -> None:
        """Write every span plus the open profiles to one ``.npz``."""
        rows = np.frombuffer(self.data, dtype=np.float64).reshape(-1, 6)
        meta = {"names": self.names, "opens": self.opens,
                "peers": self.peers, "absent": self.absent}
        np.savez(path, rows=rows, meta=np.array(json.dumps(meta)))


class _Steps:
    """Awaitable running ``coro`` with one span per synchronous step."""

    def __init__(self, tracer: Tracer, nid: int, coro: Any) -> None:
        self._tracer = tracer
        self._nid = nid
        self._coro = coro

    def __await__(self) -> Any:
        tracer, coro = self._tracer, self._coro
        value: Any = None
        error: BaseException | None = None
        while True:
            at = tracer.begin(self._nid)
            try:
                if error is None:
                    future = coro.send(value)
                else:
                    future = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.end(at)
            try:
                value, error = (yield future), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as caught:  # re-raised inside coro
                value, error = None, caught


def _wrap_sync(tracer: Tracer, fn: Callable[..., Any], name: str
               ) -> Callable[..., Any]:
    nid = tracer.name_id(name)
    value_of = _VALUES.get(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.on:
            return fn(*args, **kwargs)
        at = tracer.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(at)
        if value_of is not None:
            tracer.data[at + _VALUE] = value_of(out, args)
        return out

    return wrapper


def _wrap_steps(tracer: Tracer, fn: Callable[..., Any], name: str,
                attr: str) -> Callable[..., Any]:
    nid = tracer.name_id(name)
    done = _DONE_MARKERS.get(attr)
    started = _START_MARKERS.get(attr)
    done_id = tracer.name_id(done) if done else -1
    start_id = tracer.name_id(started) if started else -1

    # Markers are recorded with tracing off too: the analysis pairs the
    # k-th request a connection decodes with the k-th the client sent.
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        if start_id >= 0:
            tracer.mark(start_id)
        if tracer.on:
            out = await _Steps(tracer, nid, fn(*args, **kwargs))
        else:
            out = await fn(*args, **kwargs)
        if done_id >= 0 and out is not None:
            tracer.mark(done_id)
        return out

    return wrapper


def _peer_recorder(tracer: Tracer, fn: Callable[..., Any]
                   ) -> Callable[..., Any]:
    """``ReproServer._handle_conn``: map the connection's task to the
    client's port, so server spans can be joined with client sends."""

    @functools.wraps(fn)
    async def wrapper(self: Any, reader: Any, writer: Any) -> Any:
        peer = writer.get_extra_info("peername")
        if peer:
            tracer.peers[str(_task_id())] = int(peer[1])
        return await fn(self, reader, writer)

    return wrapper


def _open_recorder(tracer: Tracer, fn: Callable[..., Any]
                   ) -> Callable[..., Any]:
    """``TenantRegistry.open``: always timed, with the engine's profile."""

    @functools.wraps(fn)
    def wrapper(self: Any, tenant_id: str, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        tenant = fn(self, tenant_id, *args, **kwargs)
        seconds = time.perf_counter() - start
        profile = getattr(tenant.session, "init_profile", None) or {}
        tracer.opens.append({"tenant": tenant_id, "seconds": seconds,
                             "profile": {key: float(value) for key, value
                                         in profile.items()}})
        return tenant

    return wrapper


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any] | None:
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = inspect.getattr_static(owner, attr, None)
    if raw is None or not callable(raw):
        return None
    return owner, attr, raw


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point that exists; record the rest as absent."""
    app = importlib.import_module("repro.server.app")
    # ``app`` talks to its own json binding; a private copy keeps the
    # wrapped loads/dumps from timing json calls of any other module.
    if isinstance(getattr(app, "json", None), types.ModuleType):
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(app.json))
        app.json = proxy
    for module_name, path, name, kind in ENTRY_POINTS:
        found = _resolve(module_name, path)
        if found is None:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        owner, attr, fn = found
        if kind == STEPS:
            setattr(owner, attr, _wrap_steps(tracer, fn, name, attr))
        else:
            setattr(owner, attr, _wrap_sync(tracer, fn, name))
    for module_name, path, recorder in (
            ("repro.server.tenants", "TenantRegistry.open", _open_recorder),
            ("repro.server.app", "ReproServer._handle_conn",
             _peer_recorder)):
        found = _resolve(module_name, path)
        if found is None:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        owner, attr, fn = found
        setattr(owner, attr, recorder(tracer, fn))
    return tracer


# ----------------------------------------------------------------------
# Analysis (load generator side)
# ----------------------------------------------------------------------

def tail(values: Any) -> tuple[float, float]:
    """``(value, percentile)``: the highest of a fixed ladder of
    percentiles that leaves at least ten samples beyond it."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return 0.0, 0.0
    for pct in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0):
        if data.size * (100.0 - pct) / 100.0 >= 10:
            return float(np.percentile(data, pct)), pct
    return float(np.percentile(data, 50.0)), 50.0


def load(path: str) -> tuple[np.ndarray, dict[str, Any]]:
    with np.load(path) as data:
        return data["rows"], json.loads(str(data["meta"]))


def layer_metrics(rows: np.ndarray, meta: dict[str, Any],
                  intervals: list[tuple[float, float]],
                  sends: dict[int, list[float]]) -> dict[str, float]:
    """Per-layer aggregates of the spans that began inside ``intervals``
    (disjoint, in time order).

    Self time is a span's duration minus the durations of its direct
    children. ``sends`` holds the client's send times per local port,
    one per request, on the same monotonic clock as the spans.
    """
    ids = {name: i for i, name in enumerate(meta["names"])}
    dur = rows[:, _END] - rows[:, _START]
    parent = rows[:, _PARENT].astype(np.int64)
    child_sum = np.zeros(len(rows))
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_time = dur - child_sum
    edges = np.asarray(intervals, dtype=np.float64).reshape(-1)
    inside = np.searchsorted(edges, rows[:, _START], side="right") % 2 == 1

    def pick(name: str) -> np.ndarray:
        nid = ids.get(name, -1)
        return inside & (rows[:, _NAME] == nid)

    def total(name: str, values: np.ndarray) -> float:
        return float(values[pick(name)].sum())

    def count(name: str) -> int:
        return int(pick(name).sum())

    def mean_ms(name: str, values: np.ndarray) -> float:
        n = count(name)
        return 1e3 * total(name, values) / n if n else 0.0

    requests = count("req.read_done")
    responses = count("req.write_start")
    waves = pick("service.wave")
    wave_ms = 1e3 * dur[waves]
    ops = float(rows[waves, _VALUE].sum())
    waits = _request_waits(rows, dur, ids, inside, meta["peers"], sends)
    wait_tail = tail(waits)[0]
    out = {
        "server.wire.decode_ms": (1e3 * total("wire.decode", dur)
                                  / max(requests, 1)),
        "server.wire.encode_ms": (1e3 * total("wire.encode", dur)
                                  / max(responses, 1)),
        "server.wire.bytes_in": (total("wire.bytes_in", rows[:, _VALUE])
                                 / max(requests, 1)),
        "server.wire.bytes_out": (total("wire.bytes_out", rows[:, _VALUE])
                                  / max(responses, 1)),
        "server.app.wait_ms": float(np.median(waits)) if waits.size else 0.0,
        "server.app.wait_tail_ms": wait_tail,
        "server.tenants.admit_ms": mean_ms("tenants.admit", self_time),
        "service.submit_ms": mean_ms("service.submit", self_time),
        "api.apply_self_ms": mean_ms("api.apply", self_time),
        "service.wave_ms": (float(np.median(wave_ms)) if wave_ms.size
                            else 0.0),
        "service.wave_tail_ms": tail(wave_ms)[0],
        "service.waves": float(wave_ms.size),
        "service.ops_per_wave": ops / wave_ms.size if wave_ms.size else 0.0,
        "service.read_ms": mean_ms("service.read", dur),
        "service.digest_ms": mean_ms("service.digest", dur),
    }
    for layer in ("core.fdrms", "core.topk", "core.set_cover",
                  "data.database", "index.kdtree"):
        key = ("core.fdrms.self_ms_per_op" if layer == "core.fdrms"
               else f"{layer}.ms_per_op")
        out[key] = 1e3 * total(layer, self_time) / ops if ops else 0.0
    return out


def _request_waits(rows: np.ndarray, dur: np.ndarray, ids: dict[str, int],
                   inside: np.ndarray, peers: dict[str, int],
                   sends: dict[int, list[float]]) -> np.ndarray:
    """Per-request wait (ms): from the client's send to the start of the
    response, minus the top-level synchronous spans the connection's own
    task ran in between (decode, admission, reads, drains).

    What is left is time the request was not being worked on: socket
    transit, tenant-lock wait, and loop queueing behind other tasks —
    a pump task's waves or another connection's work. A request that
    arrives while the loop runs such work is only decoded after it, so
    the window has to start at the client's send, not at the decode.
    """
    done_id = ids.get("req.read_done", -1)
    start_id = ids.get("req.write_start", -1)
    top = (rows[:, _PARENT] < 0) & (rows[:, _TASK] != 0)
    marker = (rows[:, _NAME] == done_id) | (rows[:, _NAME] == start_id)
    work = top & ~marker
    waits: list[float] = []
    for task_key, port in peers.items():
        client = sends.get(port, [])
        mine = rows[:, _TASK] == float(task_key)
        events = np.flatnonzero(mine & marker)
        events = events[np.argsort(rows[events, _START], kind="stable")]
        spans = np.flatnonzero(mine & work)
        starts = rows[spans, _START]
        order = np.argsort(starts, kind="stable")
        spans, starts = spans[order], starts[order]
        busy = np.concatenate([[0.0], np.cumsum(dur[spans])])
        decoded = 0
        sent: float | None = None
        for event in events:
            at = rows[event, _START]
            if rows[event, _NAME] == done_id:
                sent = (client[decoded] if decoded < len(client)
                        and inside[event] else None)
                decoded += 1
            elif sent is not None:
                lo, hi = np.searchsorted(starts, [sent, at])
                waits.append(1e3 * (at - sent - (busy[hi] - busy[lo])))
                sent = None
    return np.asarray(waits, dtype=np.float64)
