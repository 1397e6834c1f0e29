"""The fully-dynamic database ``P_t``.

The paper models the data as an initial database ``P_0`` plus a sequence
of operations ``Δ = <Δ_1, Δ_2, ...>``, each either an insertion
``<p, +>`` or a deletion ``<p, ->`` (§II-B). :class:`Database` implements
that model with stable integer tuple ids: an id is assigned at insertion
time and never reused, so index structures and set systems can key on ids
across arbitrary interleavings of insertions and deletions.

Storage is a growable ``(capacity, d)`` float64 matrix plus an alive
bitmask; snapshots and score computations are vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.utils import as_point_matrix

INSERT = "+"
DELETE = "-"


@dataclass(frozen=True)
class Operation:
    """One update ``Δ_t``: insert a new tuple or delete an existing one.

    ``kind`` is :data:`INSERT` or :data:`DELETE`. For insertions ``point``
    carries the new tuple and ``tuple_id`` may be ``None`` until applied;
    for deletions ``tuple_id`` names the victim and ``point`` is its value
    (kept for logging and for replaying workloads against baselines).
    """

    kind: str
    point: np.ndarray
    tuple_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (INSERT, DELETE):
            raise ValueError(f"kind must be '+' or '-', got {self.kind!r}")


def iter_op_runs(ops) -> "list[list[Operation]]":
    """Split an operation sequence into maximal same-kind runs.

    The batch pipelines amortize work over runs of consecutive
    insertions (bulk loads, one score GEMM) while deletions stay
    per-op; every ``apply_batch`` layer shares this grouping.
    """
    runs: list[list[Operation]] = []
    for op in ops:
        if runs and runs[-1][0].kind == op.kind:
            runs[-1].append(op)
        else:
            runs.append([op])
    return runs


class Database:
    """A set of d-dimensional tuples supporting insert/delete by id.

    Parameters
    ----------
    points : array-like of shape (n, d), optional
        Initial database ``P_0``. May be omitted to start empty, in which
        case ``d`` must be given.
    d : int, optional
        Dimensionality when starting empty.

    Notes
    -----
    Values are expected in ``[0, 1]`` per the paper's normalization;
    nonnegativity is validated strictly on insert, the upper bound is not
    enforced (the algorithms are scale-free, and generators may place
    points exactly on the boundary).
    """

    def __init__(self, points=None, *, d: int | None = None) -> None:
        if points is None:
            if d is None:
                raise ValueError("either points or d must be provided")
            self._d = int(d)
            self._data = np.empty((8, self._d), dtype=np.float64)
            self._alive = np.zeros(8, dtype=bool)
            self._used = 0
        else:
            arr = as_point_matrix(points)
            if d is not None and arr.shape[1] != d:
                raise ValueError(f"points have d={arr.shape[1]}, expected {d}")
            self._d = arr.shape[1]
            self._data = arr.copy()
            self._alive = np.ones(arr.shape[0], dtype=bool)
            self._used = arr.shape[0]
        self._size = int(self._alive[: self._used].sum())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Dimensionality of the tuples."""
        return self._d

    @property
    def capacity(self) -> int:
        """Number of tuple ids ever assigned (alive + deleted)."""
        return self._used

    def __len__(self) -> int:
        return self._size

    def __contains__(self, tuple_id) -> bool:
        tid = int(tuple_id)
        return 0 <= tid < self._used and bool(self._alive[tid])

    def ids(self) -> np.ndarray:
        """Sorted array of alive tuple ids."""
        return np.flatnonzero(self._alive[: self._used])

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids())

    def point(self, tuple_id: int) -> np.ndarray:
        """The tuple with id ``tuple_id`` (a copy)."""
        if tuple_id not in self:
            raise KeyError(f"tuple id {tuple_id} is not alive")
        return self._data[int(tuple_id)].copy()

    def points(self, tuple_ids=None) -> np.ndarray:
        """Matrix of tuples for ``tuple_ids`` (default: all alive, id order).

        When ``tuple_ids is None`` and no tuple has ever been deleted,
        this is a **zero-copy** read-only view of the contiguous backing
        storage; otherwise a fresh array is returned. The view stays
        valid across later insertions (the storage row it exposes is
        never rewritten — ids are not reused), but it reflects the
        database as of the call.
        """
        if tuple_ids is None:
            if self._size == self._used:
                view = self._data[: self._used]
                view.flags.writeable = False
                return view
            return self._data[: self._used][self._alive[: self._used]]
        idx = np.asarray(list(tuple_ids), dtype=np.intp)
        if idx.size:
            ok = (idx >= 0) & (idx < self._used)
            if not ok.all() or not self._alive[idx[ok]].all():
                bad = [int(i) for i in idx if i not in self]
                raise KeyError(f"tuple ids not alive: {bad}")
        return self._data[idx]

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, matrix)`` of the alive tuples, aligned row-for-row.

        Fancy indexing already returns a fresh array, so the matrix is
        the caller's to modify.
        """
        ids = self.ids()
        return ids, self._data[ids]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def scores(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` of all alive tuples for utility ``u``."""
        ids = self.ids()
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        return ids, self._data[ids] @ u

    def top_k(self, u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k ``(ids, scores)`` for ``u``, best first.

        Ties break toward the smaller tuple id (a fixed consistent rule,
        §II-A). If fewer than ``k`` tuples are alive, all are returned.
        """
        ids, sc = self.scores(u)
        if ids.size == 0:
            return ids, sc
        k = min(int(k), ids.size)
        # ids ascend, so a stable sort on -score breaks ties by id.
        order = np.argsort(-sc, kind="stable")[:k]
        return ids[order], sc[order]

    def kth_score(self, u: np.ndarray, k: int) -> float:
        """``ω_k(u, P_t)``: the k-th largest score (0.0 on an empty DB)."""
        ids, sc = self.scores(u)
        if ids.size == 0:
            return 0.0
        k = min(int(k), ids.size)
        return float(np.partition(sc, -k)[-k])

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, point) -> int:
        """Insert a tuple; returns its freshly assigned id."""
        vec = np.asarray(point, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self._d:
            raise ValueError(f"point has d={vec.shape[0]}, expected {self._d}")
        if not np.isfinite(vec).all():
            raise ValueError("point contains NaN or infinite values")
        if (vec < 0).any():
            raise ValueError("point must lie in the nonnegative orthant")
        if self._used == self._data.shape[0]:
            self._grow()
        tuple_id = self._used
        self._data[tuple_id] = vec
        self._alive[tuple_id] = True
        self._used += 1
        self._size += 1
        return tuple_id

    def delete(self, tuple_id: int) -> np.ndarray:
        """Delete the tuple with id ``tuple_id``; returns its value."""
        if tuple_id not in self:
            raise KeyError(f"tuple id {tuple_id} is not alive")
        tid = int(tuple_id)
        self._alive[tid] = False
        self._size -= 1
        return self._data[tid].copy()

    def delete_many(self, tuple_ids) -> np.ndarray:
        """Delete a batch of tuples; returns their values (in id order).

        Identical to calling :meth:`delete` per id — but validation and
        the alive-flag writes are one array operation each, and the call
        is atomic: if any id is dead or duplicated, nothing is deleted.
        """
        ids = np.asarray(list(tuple_ids), dtype=np.intp)
        if ids.size == 0:
            return np.empty((0, self._d))
        if ids.size <= 4:
            # Tiny batches (the common delete-run shape in mixed
            # streams): scalar checks beat the vectorized validation.
            tids = ids.tolist()
            if len(set(tids)) != len(tids):
                raise KeyError("duplicate tuple ids in batch")
            bad = [t for t in tids if t not in self]
            if bad:
                raise KeyError(f"tuple ids not alive: {bad}")
            values = self._data[ids].copy()
            alive = self._alive
            for t in tids:
                alive[t] = False
            self._size -= len(tids)
            return values
        ok = (ids >= 0) & (ids < self._used)
        if not ok.all() or not self._alive[ids[ok]].all():
            bad = [int(i) for i in ids if i not in self]
            raise KeyError(f"tuple ids not alive: {bad}")
        if np.unique(ids).size != ids.size:
            raise KeyError("duplicate tuple ids in batch")
        values = self._data[ids].copy()
        self._alive[ids] = False
        self._size -= ids.size
        return values

    def insert_many(self, points) -> np.ndarray:
        """Insert a batch of tuples; returns their new ids (in row order).

        Identical to calling :meth:`insert` per row — ids are assigned
        sequentially — but validation and storage writes are one array
        operation each.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != self._d:
            raise ValueError(f"points must be (n, {self._d}), got {pts.shape}")
        if pts.shape[0] == 0:
            return np.empty(0, dtype=np.intp)
        if not np.isfinite(pts).all():
            raise ValueError("points contain NaN or infinite values")
        if (pts < 0).any():
            raise ValueError("points must lie in the nonnegative orthant")
        n = pts.shape[0]
        if self._used + n > self._data.shape[0]:
            self._grow(self._used + n)
        ids = np.arange(self._used, self._used + n, dtype=np.intp)
        self._data[ids] = pts
        self._alive[ids] = True
        self._used += n
        self._size += n
        return ids

    def apply(self, op: Operation) -> int:
        """Apply an :class:`Operation`; returns the affected tuple id."""
        if op.kind == INSERT:
            return self.insert(op.point)
        if op.tuple_id is None:
            raise ValueError("deletion operations require a tuple_id")
        self.delete(op.tuple_id)
        return op.tuple_id

    def apply_batch(self, ops) -> list[int]:
        """Apply a sequence of operations; returns the affected ids.

        Consecutive insertions are stored with one :meth:`insert_many`
        call; the result is indistinguishable from applying each
        operation with :meth:`apply` (ids are assigned in order).
        """
        out: list[int] = []
        for run in iter_op_runs(ops):
            if run[0].kind == INSERT:
                pts = np.asarray([op.point for op in run])
                out.extend(int(pid) for pid in self.insert_many(pts))
            else:
                out.extend(self.apply(op) for op in run)
        return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Flat-array snapshot of the full state (checkpointing).

        The exported tape preserves tuple-id numbering exactly,
        including the permanently dead ids left by deletions.
        """
        used = self._used
        return {
            "d": np.int64(self._d),
            "data": self._data[:used].copy(),
            "alive": self._alive[:used].copy(),
        }

    @classmethod
    def from_state(cls, state) -> "Database":
        """Rebuild a database from :meth:`export_state` arrays."""
        d = int(state["d"])
        data = np.ascontiguousarray(state["data"], dtype=np.float64)
        alive = np.asarray(state["alive"], dtype=bool).copy()
        if data.ndim != 2 or data.shape[1] != d or \
                alive.shape[0] != data.shape[0]:
            raise ValueError("database state arrays are inconsistent")
        db = cls(d=d)
        if data.shape[0]:
            db._data = data
            db._alive = alive
            db._used = data.shape[0]
            db._size = int(alive.sum())
        return db

    def _grow(self, need: int | None = None) -> None:
        """Grow the backing storage by doubling (amortized O(1) inserts)."""
        new_cap = max(8, 2 * self._data.shape[0])
        if need is not None:
            while new_cap < need:
                new_cap *= 2
        data = np.empty((new_cap, self._d), dtype=np.float64)
        data[: self._used] = self._data[: self._used]
        alive = np.zeros(new_cap, dtype=bool)
        alive[: self._used] = self._alive[: self._used]
        self._data = data
        self._alive = alive
