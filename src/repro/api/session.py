"""Streaming ``Session`` protocol: one interface for dynamic k-RMS.

A :class:`Session` maintains a k-RMS result while the database changes:

``insert(point) -> id`` · ``delete(id)`` · ``apply(op)`` ·
``result() -> ids`` · ``result_points() -> matrix`` · ``stats() -> dict``

Two implementations cover every registered algorithm:

* :class:`FDRMSSession` — the paper's natively dynamic FD-RMS engine;
* :class:`RecomputeSession` — wraps any static baseline with the
  paper's replay protocol (§IV-A): maintain the skyline incrementally
  and re-run the algorithm only when an operation changes it.

:func:`open_session` dispatches through the algorithm registry, so the
same code path drives FD-RMS and every baseline:

>>> import numpy as np
>>> from repro.api import open_session
>>> s = open_session(np.random.default_rng(0).random((300, 3)), r=8,
...                  algo="FD-RMS", seed=0, m_max=64)
>>> pid = s.insert([0.99, 0.99, 0.99])
>>> pid in s.result()
True
"""

from __future__ import annotations

import abc
import time
from collections.abc import Callable, Iterable, Mapping
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro._types import FloatArray, IndexArray, SeedLike

from repro.api.registry import (
    AlgorithmSpec,
    Capabilities,
    get_algorithm,
    register,
)
from repro.core.fdrms import FDRMS
from repro.data.database import DELETE, INSERT, Database, Operation
from repro.skyline.dynamic import DynamicSkyline


class BatchValidationError(ValueError):
    """A malformed batch was rejected before any state change.

    Raised by :func:`validate_batch` (and therefore by every
    ``Session.apply_batch``) with the index of the offending operation.
    The contract is atomic rejection: when this is raised, no operation
    of the batch has been applied, logged to a WAL, or counted — the
    engine's state digest is exactly what it was before the call.
    """

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"batch operation #{index}: {reason}")
        self.index = index
        self.reason = reason


# Mapping-input spellings of the two operation kinds.
_KIND_ALIASES = {INSERT: INSERT, "insert": INSERT,
                 DELETE: DELETE, "delete": DELETE}


def _coerce_op(op: Any, index: int) -> Operation:
    if isinstance(op, Operation):
        return op
    if isinstance(op, Mapping):
        kind = _KIND_ALIASES.get(op.get("kind"))
        if kind is None:
            raise BatchValidationError(
                index, f"unknown operation kind {op.get('kind')!r}")
        if kind == INSERT:
            if "point" not in op:
                raise BatchValidationError(
                    index, "insert operation is missing 'point'")
            try:
                point = np.asarray(op["point"], dtype=float)
            except (TypeError, ValueError) as exc:
                raise BatchValidationError(
                    index, f"insert point is not numeric: {exc}") from None
            return Operation(INSERT, point, None)
        tuple_id = op.get("id", op.get("tuple_id"))
        if tuple_id is None:
            raise BatchValidationError(
                index, "delete operation is missing 'id'")
        try:
            tuple_id = int(tuple_id)
        except (TypeError, ValueError):
            raise BatchValidationError(
                index, f"delete id is not an integer: {tuple_id!r}"
            ) from None
        return Operation(DELETE, None, tuple_id)
    raise BatchValidationError(
        index, f"expected an Operation or a mapping, "
               f"got {type(op).__name__}")


def validate_batch(ops: Iterable[Operation | Mapping[str, Any]], *,
                   d: int | None = None) -> list[Operation]:
    """Validate one ``apply_batch`` wave; returns coerced operations.

    The whole wave is checked **before** anything is applied, so a
    malformed operation raises a typed :class:`BatchValidationError`
    instead of corrupting engine state mid-batch. Checks per op:

    * kind is insert/delete (mappings are coerced to ``Operation``);
    * insert points are 1-D, finite (no NaN/inf), and match the
      database dimensionality ``d`` when given;
    * delete ids are non-negative integers, not duplicated within the
      wave (the second delete of the same id would fault mid-batch),
      and not ids the same wave already deletes after re-inserting —
      i.e. each id is deleted at most once per wave.
    """
    out: list[Operation] = []
    seen_deletes: set[int] = set()
    for index, raw in enumerate(ops):
        op = _coerce_op(raw, index)
        if op.kind == INSERT:
            point = np.asarray(op.point, dtype=float)
            if point.ndim != 1 or point.size == 0:
                raise BatchValidationError(
                    index, f"insert point must be a non-empty 1-D "
                           f"vector, got shape {point.shape}")
            if d is not None and point.size != d:
                raise BatchValidationError(
                    index, f"insert point has dimension {point.size}, "
                           f"database has d={d}")
            if not np.isfinite(point).all():
                raise BatchValidationError(
                    index, "insert point has non-finite coordinates")
        else:
            if op.tuple_id is None:
                raise BatchValidationError(
                    index, "delete operation is missing its tuple id")
            tuple_id = int(op.tuple_id)
            if tuple_id < 0:
                raise BatchValidationError(
                    index, f"delete id must be >= 0, got {tuple_id}")
            if tuple_id in seen_deletes:
                raise BatchValidationError(
                    index, f"duplicate delete of id {tuple_id} within "
                           f"one wave")
            seen_deletes.add(tuple_id)
        out.append(op)
    return out


class Session(abc.ABC):
    """Abstract streaming interface over a dynamic database.

    Concrete sessions own a :class:`~repro.data.Database`; all updates
    must flow through the session so the maintained result stays
    consistent with the data.
    """

    name: str = "session"

    def __init__(self) -> None:
        self._counters = {"inserts": 0, "deletes": 0}

    # -- updates -------------------------------------------------------
    @abc.abstractmethod
    def insert(self, point: ArrayLike) -> int:
        """Insert one tuple; returns its new id."""

    @abc.abstractmethod
    def delete(self, tuple_id: int) -> None:
        """Delete the tuple with id ``tuple_id``."""

    def apply(self, op: Operation) -> int | None:
        """Apply one workload :class:`~repro.data.Operation`."""
        if op.kind == INSERT:
            return self.insert(op.point)
        if op.kind == DELETE:
            self.delete(op.tuple_id)
            return None
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def apply_batch(self, ops: Iterable[Operation]) -> list[int | None]:
        """Apply a sequence of operations; returns per-op ids.

        Semantically identical to ``[self.apply(op) for op in ops]`` —
        same final result, same counters — but engines that support
        batching (FD-RMS, the recompute wrapper) override this with a
        pipeline that amortizes work across the whole slice. Each entry
        of the returned list is the inserted tuple's id for an
        insertion, ``None`` for a deletion.

        The wave is validated atomically first: a malformed operation
        raises :class:`BatchValidationError` before *any* operation is
        applied, so engine state (and its digest) is untouched.
        """
        return [self.apply(op)
                for op in validate_batch(ops, d=self.db.d)]

    def delete_many(self, tuple_ids: Iterable[int]) -> None:
        """Delete a batch of tuples.

        Semantically identical to calling :meth:`delete` per id — same
        final result, same counters — but engines that support batching
        override this with their bulk deletion pipeline.
        """
        for tuple_id in tuple_ids:
            self.delete(tuple_id)

    def update(self, tuple_id: int, point: ArrayLike) -> int:
        """Value update = delete + insert (§II-B); returns the new id."""
        self.delete(tuple_id)
        return self.insert(point)

    # -- reads ---------------------------------------------------------
    @property
    @abc.abstractmethod
    def db(self) -> Database:
        """The live database the session maintains."""

    @abc.abstractmethod
    def result(self) -> list[int]:
        """Current k-RMS result as sorted tuple ids."""

    @abc.abstractmethod
    def result_points(self) -> FloatArray:
        """Current result as a ``(|Q|, d)`` matrix."""

    def stats(self) -> dict[str, Any]:
        """Maintenance counters; subclasses extend with engine detail."""
        return dict(self._counters)

    def __len__(self) -> int:
        return len(self.db)


class FDRMSSession(Session):
    """Streaming FD-RMS: a thin, timed wrapper over the paper's engine.

    Parameters mirror :class:`repro.core.FDRMS`; additionally
    ``eps="auto"`` asks :func:`repro.core.tuning.suggest_epsilon` for a
    data-driven ε, and an ``m_max`` not exceeding ``r`` is widened to
    ``2 * r`` (FD-RMS requires ``m_max > r``).

    Durability (both optional):

    * ``snapshot`` — a checkpoint directory. The session restores the
      engine from it (verified end to end, WAL tail rolled forward)
      instead of paying the cold start; any detected fault — torn
      write, bit flip, version skew, partial WAL — degrades gracefully
      to a cold start from ``points``, recorded under
      ``stats()["recovery"]``. A restored session never silently
      diverges: the restore path re-checks the engine's logical state
      digest at every stage.
    * ``wal`` — a write-ahead-log directory. Every applied operation is
      appended (write-ahead) so a later ``snapshot=`` open can roll
      forward to the exact pre-crash state. After a cold start the
      stale log is discarded: its operations are not part of the fresh
      engine's history.
    """

    def __init__(self, points: ArrayLike, r: int, k: int = 1, *,
                 eps: float | str = 0.02, m_max: int = 1024,
                 seed: SeedLike = None,
                 snapshot: Any = None, wal: Any = None) -> None:
        super().__init__()
        self.name = "FD-RMS"
        points = np.asarray(points, dtype=float)
        if eps == "auto":
            from repro.core.tuning import suggest_epsilon
            eps = suggest_epsilon(points, k, r, seed=seed)
        if m_max <= r:
            m_max = 2 * r
        self.recovery: dict[str, Any] | None = None
        self._wal = None
        engine = None
        start = time.perf_counter()
        if snapshot is not None:
            engine = self._try_restore(snapshot, wal, k=k, r=r,
                                       eps=eps, m_max=m_max)
        if engine is not None:
            self.engine = engine
            self._db = engine.database
            self.init_seconds = time.perf_counter() - start
            self.init_profile = {"restore": self.init_seconds}
            stats = engine.statistics()
            self._counters["inserts"] = int(stats["inserts"])
            self._counters["deletes"] = int(stats["deletes"])
        else:
            self._db = Database(points)
            self.engine = FDRMS(self._db, k, r, float(eps), m_max=m_max,
                                seed=seed)
            self.init_seconds = time.perf_counter() - start
            #: Cold-start phase breakdown (seconds) from the engine:
            #: utility sample, bootstrap GEMM, membership fill, set-cover
            #: greedy — or {"restore": seconds} on a warm restore.
            self.init_profile = dict(self.engine.init_profile)
        if wal is not None:
            from repro.persist.wal import WriteAheadLog
            # A restored engine resumes its log; a cold-started one
            # must not inherit operations it never saw.
            self._wal = WriteAheadLog(wal, fresh=engine is None)
        self.algo_seconds = 0.0
        self.last_apply_seconds = 0.0

    def _try_restore(self, snapshot: Any, wal: Any, *, k: int, r: int,
                     eps: float, m_max: int) -> FDRMS | None:
        """Verified restore; ``None`` (+ recovery record) on any fault."""
        from repro.persist.checkpoint import CheckpointError
        from repro.persist.recovery import restore_engine
        from repro.persist.wal import WALError
        try:
            engine, info = restore_engine(snapshot, wal=wal)
            if (engine.k, engine.r, engine.m_max) != (k, r, m_max) or \
                    engine.eps != float(eps):
                raise CheckpointError(
                    f"checkpoint config (k={engine.k}, r={engine.r}, "
                    f"eps={engine.eps}, m_max={engine.m_max}) does not "
                    f"match the requested session (k={k}, r={r}, "
                    f"eps={eps}, m_max={m_max})")
        except (CheckpointError, WALError) as exc:
            self.recovery = {"mode": "cold_start", "cold_starts": 1,
                             "error": f"{type(exc).__name__}: {exc}"}
            return None
        self.recovery = dict(info)
        self.recovery["cold_starts"] = 0
        return engine

    def checkpoint(self, directory: Any) -> dict[str, Any]:
        """Write a verified checkpoint of the current engine state.

        Any attached WAL is synced first and its head position recorded
        in the manifest, so a later restore replays exactly the
        operations applied after this call. Returns the manifest.
        """
        from repro.persist.checkpoint import save_checkpoint
        position = 0
        if self._wal is not None:
            self._wal.sync()
            position = self._wal.position
        return save_checkpoint(self.engine, directory,
                               wal_position=position)

    def _log_ops(self, ops: list[Operation]) -> None:
        if self._wal is not None:
            self._wal.append(ops)

    def close(self) -> None:
        """Flush and close the WAL."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    @property
    def db(self) -> Database:
        return self._db

    def insert(self, point: ArrayLike) -> int:
        self._log_ops([Operation(INSERT, np.asarray(point, dtype=float),
                                 None)])
        start = time.perf_counter()
        pid = self.engine.insert(point)
        self.last_apply_seconds = time.perf_counter() - start
        self.algo_seconds += self.last_apply_seconds
        self._counters["inserts"] += 1
        return pid

    def delete(self, tuple_id: int) -> None:
        self._log_ops([Operation(DELETE, None, int(tuple_id))])
        start = time.perf_counter()
        self.engine.delete(tuple_id)
        self.last_apply_seconds = time.perf_counter() - start
        self.algo_seconds += self.last_apply_seconds
        self._counters["deletes"] += 1

    def apply_batch(self, ops: Iterable[Operation]) -> list[int | None]:
        """Batched updates through :meth:`FDRMS.apply_batch`.

        Consecutive insertions are bulk-loaded into the database and
        scored with one ``(batch × M)`` GEMM; consecutive deletions are
        bulk-removed, with each top-k repair one scan of the alive set
        as of its operation; the maintained result is identical to applying the operations
        one by one.

        Validation precedes the write-ahead log append: a rejected wave
        must leave no trace anywhere — not in the engine, not in the
        WAL a recovery would replay.
        """
        ops = validate_batch(ops, d=self._db.d)
        self._log_ops(ops)
        start = time.perf_counter()
        out = self.engine.apply_batch(ops)
        self.last_apply_seconds = time.perf_counter() - start
        self.algo_seconds += self.last_apply_seconds
        for op in ops:
            key = "inserts" if op.kind == INSERT else "deletes"
            self._counters[key] += 1
        return out

    def delete_many(self, tuple_ids: Iterable[int]) -> None:
        """Batched deletions through :meth:`FDRMS.delete_many`."""
        ids = list(tuple_ids)
        self._log_ops([Operation(DELETE, None, int(i)) for i in ids])
        start = time.perf_counter()
        self.engine.delete_many(ids)
        self.last_apply_seconds = time.perf_counter() - start
        self.algo_seconds += self.last_apply_seconds
        self._counters["deletes"] += len(ids)

    def result(self) -> list[int]:
        return self.engine.result()

    def result_points(self) -> FloatArray:
        return self.engine.result_points()

    def stats(self) -> dict[str, Any]:
        out = super().stats()
        out.update(self.engine.statistics())
        out["algo_seconds"] = self.algo_seconds
        out["init_seconds"] = self.init_seconds
        # Only sessions that asked for durability report recovery state:
        # adding the key unconditionally would perturb the pinned replay
        # determinism digests for plain sessions.
        if self.recovery is not None:
            out["recovery"] = dict(self.recovery)
        return out


class RecomputeSession(Session):
    """Skyline-triggered recomputation wrapper for static algorithms.

    ``solver`` is ``callable(pool_points) -> row indices into the
    pool``; the pool is the current skyline (``use_skyline=True``, valid
    for 1-RMS algorithms since their results are skyline subsets) or the
    full database. Recomputation is lazy: operations only mark the
    result dirty, and the solver runs at the next read.
    """

    def __init__(self, points: ArrayLike,
                 solver: Callable[[FloatArray], Any], *,
                 name: str = "static", use_skyline: bool = True) -> None:
        super().__init__()
        self.name = name
        self._solver = solver
        self._use_skyline = use_skyline
        start = time.perf_counter()
        self._db = Database(np.asarray(points, dtype=float))
        t_db = time.perf_counter()
        self._skyline = DynamicSkyline(self._db) if use_skyline else None
        t_sky = time.perf_counter()
        #: Cold-start cost of this session (the lazy solver run is
        #: charged to ``algo_seconds`` at the first read instead).
        self.init_seconds = t_sky - start
        self.init_profile = {"database": t_db - start,
                             "skyline_init": t_sky - t_db}
        self.dirty = True
        self.last_changed = True
        self.recomputes = 0
        self.algo_seconds = 0.0
        self.last_recompute_seconds = 0.0
        self._cached_ids: IndexArray | None = None
        self._cached_points: FloatArray | None = None

    @classmethod
    def from_spec(cls, spec: AlgorithmSpec, points: ArrayLike, *,
                  r: int, k: int = 1,
                  seed: SeedLike = None,
                  options: Mapping[str, Any] | None = None
                  ) -> "RecomputeSession":
        """Build the session for a registered static algorithm."""
        kwargs = spec.build_kwargs(r=r, k=k, seed=seed, options=options)

        def solver(pool: FloatArray) -> Any:
            return spec.func(pool, **kwargs)

        return cls(points, solver, name=spec.display_name,
                   use_skyline=spec.capabilities.skyline_pool)

    @property
    def db(self) -> Database:
        return self._db

    # -- updates -------------------------------------------------------
    def insert(self, point: ArrayLike) -> int:
        pid = self._db.insert(point)
        changed = self._skyline.insert(pid) if self._skyline else True
        self.last_changed = bool(changed)
        self.dirty = self.dirty or self.last_changed
        self._counters["inserts"] += 1
        return pid

    def delete(self, tuple_id: int) -> None:
        self._db.delete(tuple_id)
        changed = self._skyline.delete(tuple_id) if self._skyline else True
        self.last_changed = bool(changed)
        self.dirty = self.dirty or self.last_changed
        self._counters["deletes"] += 1

    def apply_batch(self, ops: Iterable[Operation]) -> list[int | None]:
        """Sequential fallback with skyline maintenance deferred.

        Operations are applied straight to the database (consecutive
        insertions in bulk) and the skyline is recomputed **once** at
        batch end — the skyline is a pure function of the alive tuples,
        so the result matches per-op maintenance. The solver itself
        stays lazy, as for single operations: it reruns at the next
        read if the pool changed.

        As for every session, the wave is validated atomically up
        front (:class:`BatchValidationError` leaves state untouched).
        """
        ops = validate_batch(ops, d=self._db.d)
        if not ops:
            return []
        out: list[int | None] = []
        try:
            for pid, op in zip(self._db.apply_batch(ops), ops):
                if op.kind == INSERT:
                    out.append(pid)
                    self._counters["inserts"] += 1
                else:
                    out.append(None)
                    self._counters["deletes"] += 1
            return out
        finally:
            # Runs even when an operation mid-batch raises (the prefix
            # before the bad op is already in the database): the skyline
            # must be re-synced to whatever actually applied.
            if self._skyline is not None:
                changed = self._skyline.rebuild()
            else:
                changed = True
            self.last_changed = changed
            self.dirty = self.dirty or changed

    def delete_many(self, tuple_ids: Iterable[int]) -> None:
        """Bulk removal with the skyline re-synced once at the end.

        As with :meth:`insert`/:meth:`delete`, skyline maintenance is
        not charged to ``algo_seconds`` — only the lazy solver run is,
        at the next read.
        """
        ids = list(tuple_ids)
        if not ids:
            return
        self._db.delete_many(ids)
        self._counters["deletes"] += len(ids)
        if self._skyline is not None:
            changed = self._skyline.rebuild()
        else:
            changed = True
        self.last_changed = bool(changed)
        self.dirty = self.dirty or self.last_changed

    # -- reads ---------------------------------------------------------
    def pool(self) -> tuple[IndexArray, FloatArray]:
        """Current candidate pool as ``(ids, points)``."""
        if self._skyline is not None:
            return self._skyline.points()
        return self._db.snapshot()

    def recompute(self) -> float:
        """Run the solver on the current pool; returns solver seconds."""
        ids, pool = self.pool()
        start = time.perf_counter()
        idx = np.asarray(self._solver(pool), dtype=np.intp)
        seconds = time.perf_counter() - start
        self._cached_ids = ids[idx]
        self._cached_points = pool[idx]
        self.dirty = False
        self.recomputes += 1
        self.algo_seconds += seconds
        self.last_recompute_seconds = seconds
        return seconds

    def _ensure_fresh(self) -> None:
        if self.dirty or self._cached_ids is None:
            self.recompute()

    def result(self) -> list[int]:
        self._ensure_fresh()
        assert self._cached_ids is not None  # _ensure_fresh populated it
        return sorted(int(i) for i in self._cached_ids)

    def result_points(self) -> FloatArray:
        self._ensure_fresh()
        assert self._cached_points is not None  # _ensure_fresh populated it
        return self._cached_points

    def stats(self) -> dict[str, Any]:
        # Refresh the lazy result first so every reported number —
        # recomputes, algo_seconds, solution_size — describes the same
        # post-recompute state (and a second stats() call agrees).
        self._ensure_fresh()
        assert self._cached_ids is not None  # _ensure_fresh populated it
        out = super().stats()
        out["recomputes"] = self.recomputes
        out["algo_seconds"] = self.algo_seconds
        out["init_seconds"] = self.init_seconds
        out["solution_size"] = len(self._cached_ids)
        if self._skyline is not None:
            out["skyline_size"] = len(self._skyline)
        return out


def open_session(points: ArrayLike, r: int, k: int = 1, *,
                 algo: str = "fd-rms", seed: SeedLike = None,
                 **options: Any) -> Session:
    """Open a streaming session for any registered algorithm.

    Dynamic algorithms (FD-RMS) get their native session; static ones
    are wrapped in :class:`RecomputeSession` under the paper's replay
    protocol. ``options`` are routed per the algorithm's signature.
    """
    points = np.asarray(points, dtype=float)
    spec = get_algorithm(algo)
    spec.check_request(k=k, d=int(points.shape[1]) if points.ndim == 2
                       else None)
    spec.check_options(options)
    if spec.session_factory is not None:
        return spec.session_factory(points, r, k, seed=seed, **options)
    return RecomputeSession.from_spec(spec, points, r=r, k=k, seed=seed,
                                      options=options)


# ----------------------------------------------------------------------
# FD-RMS registration: the one dynamic algorithm in the catalogue.
# ----------------------------------------------------------------------

def _fdrms_session_factory(points: ArrayLike, r: int, k: int = 1, *,
                           seed: SeedLike = None, eps: float | str = 0.02,
                           m_max: int = 1024, snapshot: Any = None,
                           wal: Any = None) -> FDRMSSession:
    return FDRMSSession(points, r, k, eps=eps, m_max=m_max, seed=seed,
                        snapshot=snapshot, wal=wal)


@register("fd-rms", display_name="FD-RMS",
          aliases=("fdrms", "fd_rms"),
          summary="fully-dynamic k-RMS via approximate top-k set cover "
                  "(this paper)",
          capabilities=Capabilities(supports_k=True, dynamic=True,
                                    randomized=True, skyline_pool=False),
          bench=True,
          session_factory=_fdrms_session_factory)
def fdrms_solve(points: ArrayLike, r: int, k: int = 1, *,
                seed: SeedLike = None, eps: float = 0.02,
                m_max: int = 1024, snapshot: Any = None,
                wal: Any = None) -> IndexArray:
    """One-shot FD-RMS: build the dynamic structure, read the result.

    Tuple ids of a fresh :class:`~repro.data.Database` are the row
    indices of ``points``, so the returned array indexes the input
    matrix like every static baseline.
    """
    session = FDRMSSession(points, r, k, eps=eps, m_max=m_max, seed=seed,
                           snapshot=snapshot, wal=wal)
    try:
        return np.asarray(session.result(), dtype=np.intp)
    finally:
        session.close()
