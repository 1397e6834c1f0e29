"""Maintenance of ε-approximate top-k sets ``Φ_{k,ε}(u_i, P_t)``.

For each sampled utility ``u_i``, FD-RMS tracks the set of tuples whose
score is at least ``τ_i = (1 - ε) · ω_k(u_i, P_t)`` (§II-A). This module
keeps those sets current across tuple insertions and deletions with no
spatial index at all:

* the **threshold vector** ``τ`` (one float per utility) finds, for an
  inserted tuple, the utilities whose threshold the tuple reaches — all
  others are untouched. The paper's §III-C uses a cone tree here; every
  insertion already scores the tuple against all ``M`` utilities with
  one mat-vec, so one vector comparison ``U·p >= τ`` gives the same set
  at a fraction of the cost of a tree walk;
* a **repair scan** rebuilds the sets a deletion cost a top-k tuple:
  the alive points are scored against every affected utility with
  chunked GEMMs. §III-C answers these top-k and range queries with a tuple index
  (any space-partitioning tree); a k-d tree lost to the scan at every
  database size the service and the paper's figures use
  (docs/ARCHITECTURE.md), so there is none.

Membership invariant, for every utility ``i`` and time ``t``::

    members[i] = { p alive : <u_i, p> >= τ_i },  τ_i = (1-ε)·ω_k(u_i, P_t)

with the convention ``τ_i = 0`` while the database holds at most ``k``
tuples (then everything is a top-k tuple).

Storage layout
--------------
Membership lives in a **structure-of-arrays** :class:`MemberStore`, not
per-utility Python containers: every utility keeps its members as a pair
of parallel NumPy arrays (tuple ids + admission scores, in arrival
order), the k largest member scores sit in one ``(M, k)`` matrix (so
``ω_k`` reads are O(1)), a per-utility running minimum makes "would this
threshold evict anything?" a single vectorized comparison, and the
inverted index ``S(p)`` is a pid-indexed table of utility-id arrays.
Membership changes are recorded into a :class:`DeltaLog` — parallel int
arrays — instead of per-change :class:`MembershipDelta` objects; the
object form is materialized only at the public API boundary.

Each update returns the exact list of membership changes it caused,
which FD-RMS feeds to the dynamic set-cover layer as the set operations
``σ`` of Algorithm 1. The recorded order is part of the engine contract
(the stable cover is history-dependent), so every path — vectorized
bootstrap, batched insert runs, deletions — emits deltas in exactly the
per-operation order of the original per-member implementation.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro._types import AnyArray, FloatArray, IndexArray
from repro.data.database import INSERT, Database, iter_op_runs
from repro.utils import check_epsilon, check_k

ADD = "+"
REMOVE = "-"

#: Integer delta codes used by :class:`DeltaLog` (sign convention:
#: positive = member added, negative = member removed).
ADD_CODE = 1
REMOVE_CODE = -1

#: Score-threshold tolerance shared by membership updates and the audit
#: paths (``ApproxTopKIndex`` internals, ``FDRMS.verify``). Scores are
#: computed by different BLAS kernels along different code paths (GEMM
#: blocks at bootstrap, in repair scans and for batched inserts, a
#: mat-vec for a single-op insert), which may disagree in the last ulp;
#: comparisons against a threshold therefore allow this absolute slack
#: instead of hardcoding ``1e-12`` at each site.
SCORE_TOL = 1e-12

_EMPTY_IDS = np.empty(0, dtype=np.intp)
_EMPTY_SCORES = np.empty(0, dtype=np.float64)

#: Elements per bootstrap GEMM chunk (``ELEMS // n`` utilities each).
#: Chunk boundaries depend only on ``n``, and BLAS is bitwise
#: reproducible only for identical calls, so this constant is part of
#: the determinism contract: changing it moves bootstrap digests.
BOOTSTRAP_CHUNK_ELEMS = 4_000_000

#: Elements per repair GEMM chunk (``ELEMS // n`` utilities each). A
#: deletion can cost hundreds of utilities a top-k tuple, so chunking
#: caps the transient ``(n × q)`` score block at 8 MB; an unchunked
#: block at n = 50k raised a served engine's peak memory by over 100 MB.
#: As with :data:`BOOTSTRAP_CHUNK_ELEMS`, the boundaries depend only on
#: ``n``, and changing the constant moves digests in the last ulp.
REPAIR_CHUNK_ELEMS = 1_000_000


def _column_top_k(scores: FloatArray, k: int) -> FloatArray:
    """The ``k`` largest entries of each column of an ``(n, b)`` block
    (``n > k``), as ascending ``(b, k)`` rows.

    Partitioning strided columns is slow, so for ``k > 1`` only the
    entries reaching a lower bound on each column's k-th largest are
    sorted: the smallest of ``k`` interleaved row-block maxima (``k``
    distinct entries). The selected multiset is the one a full top-k
    partition picks, so every sorted row is bitwise identical to it.
    """
    if k == 1:
        return scores.max(axis=0)[:, None]
    n, b = scores.shape
    g = n // k
    low = scores[:g * k].reshape(g, k, b).max(axis=0).min(axis=0)
    hit = np.flatnonzero(scores >= low)
    cols = hit % b
    vals = scores.ravel()[hit]
    ends = np.cumsum(np.bincount(cols, minlength=b))
    return vals[np.lexsort((vals, cols))][ends[:, None] - k + np.arange(k)]


def _sub_state(state: dict, prefix: str) -> dict:
    """Strip ``prefix`` from the keys of a composite state dict."""
    n = len(prefix)
    # reprolint: disable=RPL001 -- key relabeling; consumers read by name
    return {key[n:]: val for key, val in state.items()
            if key.startswith(prefix)}


@dataclass(frozen=True)
class MembershipDelta:
    """One change of ``Φ_{k,ε}(u, P)``: tuple ``pid`` joined/left set ``u``."""

    u_index: int
    tuple_id: int
    kind: str  # ADD or REMOVE


class DeltaLog:
    """Membership changes of one operation as parallel int arrays.

    Rows are ``(u_index, tuple_id, kind_code)`` in emission order; the
    hot consumers (the FD-RMS cover layer) read the raw columns, while
    :meth:`to_deltas` materializes :class:`MembershipDelta` objects for
    the public API.
    """

    __slots__ = ("_u", "_pid", "_kind", "_n")

    def __init__(self) -> None:
        # Columns are allocated lazily: many operations (weak inserts,
        # deletes of non-members) produce no deltas at all.
        self._u = _EMPTY_IDS
        self._pid = _EMPTY_IDS
        self._kind = np.empty(0, dtype=np.int8)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        cap = self._u.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap, 16)
        for name in ("_u", "_pid", "_kind"):
            old = getattr(self, name)
            # reprolint: disable=RPL008 -- amortized doubling; O(log n) allocs
            fresh = np.empty(new_cap, dtype=old.dtype)
            fresh[: self._n] = old[: self._n]
            setattr(self, name, fresh)

    def append(self, u: int, pid: int, kind: int) -> None:
        self._reserve(1)
        n = self._n
        self._u[n] = u
        self._pid[n] = pid
        self._kind[n] = kind
        self._n = n + 1

    def extend_one_pid(self, us: ArrayLike, pid: int, kind: int) -> None:
        """Record ``pid`` joining/leaving every utility in ``us`` (in order)."""
        us = np.asarray(us, dtype=np.intp)
        if us.size == 0:
            return
        self._reserve(us.size)
        n, e = self._n, self._n + us.size
        self._u[n:e] = us
        self._pid[n:e] = pid
        self._kind[n:e] = kind
        self._n = e

    def extend_one_utility(self, u: int, pids: ArrayLike, kind: int) -> None:
        """Record every tuple in ``pids`` (in order) joining/leaving ``u``."""
        pids = np.asarray(pids, dtype=np.intp)
        if pids.size == 0:
            return
        self._reserve(pids.size)
        n, e = self._n, self._n + pids.size
        self._u[n:e] = u
        self._pid[n:e] = pids
        self._kind[n:e] = kind
        self._n = e

    def columns(self) -> tuple[IndexArray, IndexArray, NDArray[np.int8]]:
        """``(u_index, tuple_id, kind_code)`` rows as trimmed views."""
        n = self._n
        return self._u[:n], self._pid[:n], self._kind[:n]

    def to_deltas(self) -> list[MembershipDelta]:
        """Materialize the log as :class:`MembershipDelta` objects."""
        u, pid, kind = self.columns()
        return [MembershipDelta(int(i), int(p), ADD if k > 0 else REMOVE)
                for i, p, k in zip(u.tolist(), pid.tolist(), kind.tolist())]


class MemberStore:
    """Structure-of-arrays store of every ``Φ_{k,ε}(u_i)`` plus ``S(p)``.

    Per utility ``i`` the members are two parallel arrays (ids and the
    scores they were admitted with) kept in **arrival order** with
    amortized-doubling growth; a member is always removed under the
    exact score it was stored with — re-deriving the score at removal
    time is fragile, because different BLAS kernels can disagree in the
    last ulp (see :data:`SCORE_TOL`). Two derived structures make the
    hot reads O(1):

    * ``(M, k)`` matrix of each utility's k largest member scores
      (ascending per row, ``-inf``-padded while a list holds fewer than
      ``k`` members) — :meth:`kth_largest` / :meth:`max_score` read it
      directly, and a whole batch of thresholds is one gather;
    * a per-utility running **minimum** member score, so "does threshold
      τ evict anything?" is one vectorized comparison instead of a scan.

    The inverted index ``S(p)`` is a pid-indexed table of utility-id
    arrays (pids are dense, never reused), with swap-removal — no
    per-tuple Python sets.
    """

    __slots__ = ("_k", "_m", "_row_ids", "_row_scores", "_row_len",
                 "_topk", "_min", "_inv_rows", "_inv_len")

    def __init__(self, m_total: int, k: int) -> None:
        self._m = int(m_total)
        self._k = int(k)
        self._row_ids: list[IndexArray] = [_EMPTY_IDS] * self._m
        self._row_scores: list[FloatArray] = [_EMPTY_SCORES] * self._m
        self._row_len = np.zeros(self._m, dtype=np.int64)
        self._topk = np.full((self._m, self._k), -np.inf)
        self._min = np.full(self._m, np.inf)
        self._inv_rows: list[IndexArray | None] = []
        self._inv_len: list[int] = []

    # -- member rows ---------------------------------------------------
    def size(self, i: int) -> int:
        return int(self._row_len[i])

    def row(self, i: int) -> tuple[IndexArray, FloatArray]:
        """``(ids, scores)`` of utility ``i`` in arrival order (views)."""
        n = int(self._row_len[i])
        return self._row_ids[i][:n], self._row_scores[i][:n]

    def members_sorted(self, i: int) -> list[int]:
        """Member ids ascending by (score, id) — the legacy list order."""
        ids, scores = self.row(i)
        if ids.size == 0:
            return []
        return ids[np.lexsort((ids, scores))].tolist()

    def score_of(self, i: int, pid: int) -> float:
        """The score ``pid`` was stored with in utility ``i``."""
        n = int(self._row_len[i])
        if n == 0:
            raise KeyError(f"tuple {pid} not in member list")
        match = self._row_ids[i][:n] == pid
        p = int(match.argmax())
        if not match[p]:
            raise KeyError(f"tuple {pid} not in member list")
        return float(self._row_scores[i][p])

    def kth_largest(self, i: int) -> float:
        """``ω_k(u_i, P)`` read off the member list (members ⊇ top-k).

        A member list smaller than ``k`` can only happen while the
        database holds fewer than ``k`` tuples (then τ = 0 and members =
        all tuples); the smallest stored score (0.0 when empty) is
        returned so threshold formulas degrade exactly as the reference
        implementation did.
        """
        if self._row_len[i] >= self._k:
            return float(self._topk[i, 0])
        if self._row_len[i] == 0:
            return 0.0
        return float(self._min[i])

    def max_score(self, i: int) -> float:
        """Largest stored member score of utility ``i`` (0.0 if empty)."""
        if self._row_len[i] == 0:
            return 0.0
        return float(self._topk[i, self._k - 1])

    def kth_vector(self, idxs: IndexArray) -> FloatArray:
        """Vectorized :meth:`kth_largest` for full rows (len >= k)."""
        return self._topk[idxs, 0]

    def min_vector(self, idxs: IndexArray) -> FloatArray:
        """Smallest stored member score per utility in ``idxs``."""
        return self._min[idxs]

    # -- mutation ------------------------------------------------------
    def _append(self, i: int, pid: int, score: float) -> None:
        n = int(self._row_len[i])
        ids = self._row_ids[i]
        if n == ids.shape[0]:
            cap = max(4, 2 * n)
            grown = np.empty(cap, dtype=np.intp)
            grown[:n] = ids
            ids = self._row_ids[i] = grown
            grown_s = np.empty(cap, dtype=np.float64)
            grown_s[:n] = self._row_scores[i][:n]
            self._row_scores[i] = grown_s
        ids[n] = pid
        self._row_scores[i][n] = score
        self._row_len[i] = n + 1

    def _topk_absorb(self, idxs: IndexArray, scores: FloatArray) -> None:
        """Fold one new score per row into the top-k score matrix."""
        if self._k == 1:
            self._topk[idxs, 0] = np.maximum(self._topk[idxs, 0], scores)
        else:
            cat = np.column_stack([self._topk[idxs], scores])
            cat.sort(axis=1)
            self._topk[idxs] = cat[:, 1:]

    def add_one(self, i: int, score: float, pid: int) -> None:
        """Add one member to one utility (inverted index included)."""
        self._append(i, pid, score)
        row = self._topk[i]
        if score > row[0]:
            row = np.append(row, score)
            row.sort()
            self._topk[i] = row[1:]
        if score < self._min[i]:
            self._min[i] = score
        self.add_owner(pid, i)

    def add_members(self, idxs: IndexArray, scores: FloatArray,
                    pid: int) -> None:
        """Fresh tuple ``pid`` joins every utility in ``idxs`` at once.

        ``pid`` must be new to the store (tuple ids are never reused),
        so its inverted row is exactly ``idxs``.
        """
        for i, s in zip(idxs.tolist(), scores.tolist()):
            self._append(i, pid, s)
        self._topk_absorb(idxs, scores)
        self._min[idxs] = np.minimum(self._min[idxs], scores)
        self._ensure_pid(pid)
        self._inv_rows[pid] = np.array(idxs, dtype=np.intp)
        self._inv_len[pid] = int(idxs.size)

    def remove(self, i: int, pid: int, *, drop_owner: bool = True) -> float:
        """Remove ``pid`` from utility ``i``; returns its stored score.

        Arrival order of the remaining members is preserved. The top-k
        score matrix is repaired only when the removed score could sit
        in it (a member strictly below ``ω_k`` cannot); in the engine
        that case is always followed by :meth:`replace_row`, so the
        repair is effectively free on the hot path. A caller about to
        discard the whole inverted row of ``pid`` anyway (tuple
        deletion) passes ``drop_owner=False`` and calls
        :meth:`clear_owners` once instead.
        """
        n = int(self._row_len[i])
        if n == 0:
            raise KeyError(f"tuple {pid} not in member list")
        ids = self._row_ids[i]
        match = ids[:n] == pid
        p = int(match.argmax())
        if not match[p]:
            raise KeyError(f"tuple {pid} not in member list")
        scores = self._row_scores[i]
        score = float(scores[p])
        ids[p:n - 1] = ids[p + 1:n]
        scores[p:n - 1] = scores[p + 1:n]
        self._row_len[i] = n - 1
        if n == 1:
            self._min[i] = np.inf
        # reprolint: disable=RPL002 -- exact identity with the cached stored min
        elif score == self._min[i]:
            self._min[i] = scores[:n - 1].min()
        if score >= self._topk[i, 0]:
            self._recompute_topk(i)
        if drop_owner:
            self.remove_owner(pid, i)
        return score

    def evict_below(self, i: int, tau: float) -> tuple[IndexArray, FloatArray]:
        """Drop all members of ``i`` with score < ``tau``.

        Returns the evicted ``(scores, ids)`` ascending by (score, id) —
        the emission order of the legacy sorted member list. The
        inverted index is *not* touched; the caller interleaves owner
        removal with delta recording.
        """
        n = int(self._row_len[i])
        ids, scores = self._row_ids[i][:n], self._row_scores[i][:n]
        evict = scores < tau
        if not evict.any():
            return _EMPTY_SCORES, _EMPTY_IDS
        ev_ids, ev_scores = ids[evict], scores[evict]
        order = np.lexsort((ev_ids, ev_scores))
        keep_ids, keep_scores = ids[~evict], scores[~evict]
        m = keep_ids.size
        self._row_ids[i][:m] = keep_ids
        self._row_scores[i][:m] = keep_scores
        self._row_len[i] = m
        self._min[i] = keep_scores.min() if m else np.inf
        if ev_scores.max() >= self._topk[i, 0]:
            # Unreachable through the engine (τ never exceeds ω_k, so
            # top-k members survive eviction), but keeps the store
            # self-consistent for arbitrary thresholds.
            self._recompute_topk(i)
        return ev_scores[order], ev_ids[order]

    def replace_row(self, i: int, ids: IndexArray, scores: FloatArray) -> None:
        """Install a fresh member row (arrival order = array order).

        Recomputes the derived top-k scores and minimum; the inverted
        index is the caller's responsibility (it knows the exact
        add/remove sets).
        """
        n = ids.shape[0]
        self._row_ids[i] = np.array(ids, dtype=np.intp)
        self._row_scores[i] = np.array(scores, dtype=np.float64)
        self._row_len[i] = n
        self._recompute_topk(i)
        self._min[i] = scores.min() if n else np.inf

    def _recompute_topk(self, i: int) -> None:
        """Rebuild row ``i`` of the top-k score matrix from its members."""
        n = int(self._row_len[i])
        scores = self._row_scores[i][:n]
        k = self._k
        row = np.full(k, -np.inf)
        if n > k:
            row[:] = np.partition(scores, n - k)[n - k:]
            row.sort()
        elif n:
            row[k - n:] = np.sort(scores)
        self._topk[i] = row

    def set_row_bootstrap(self, i: int, ids: IndexArray, scores: FloatArray,
                          topk_row: FloatArray, min_score: float) -> None:
        """Bootstrap fill of one utility with precomputed derived state.

        ``ids``/``scores`` may be views into a shared extraction buffer;
        rows are disjoint slices, so later in-place compaction cannot
        alias, and the first append reallocates into owned storage.
        """
        self._row_ids[i] = ids
        self._row_scores[i] = scores
        self._row_len[i] = ids.shape[0]
        self._topk[i] = topk_row
        self._min[i] = min_score

    # -- inverted index ------------------------------------------------
    def _ensure_pid(self, pid: int) -> None:
        if pid >= len(self._inv_rows):
            grow = pid + 1 - len(self._inv_rows)
            self._inv_rows.extend([None] * grow)
            self._inv_len.extend([0] * grow)

    def set_inverted_bootstrap(self, pids: IndexArray, starts: AnyArray,
                               ends: AnyArray, owners: IndexArray) -> None:
        """Bulk-install ``S(p)`` rows as slices of one owner array."""
        if pids.size == 0:
            return
        self._ensure_pid(int(pids[-1]))
        inv_rows, inv_len = self._inv_rows, self._inv_len
        for pid, s, e in zip(pids.tolist(), starts.tolist(), ends.tolist()):
            inv_rows[pid] = owners[s:e]
            inv_len[pid] = e - s

    def owners(self, pid: int) -> IndexArray:
        """``S(p)`` as an unordered utility-id array (a view)."""
        if pid < 0 or pid >= len(self._inv_rows):
            return _EMPTY_IDS
        row = self._inv_rows[pid]
        if row is None:
            return _EMPTY_IDS
        return row[: self._inv_len[pid]]

    def owners_sorted(self, pid: int) -> list[int]:
        return sorted(self.owners(pid).tolist())

    def sets_containing(self, pid: int) -> frozenset[int]:
        return frozenset(self.owners(pid).tolist())

    def add_owner(self, pid: int, i: int) -> None:
        self._ensure_pid(pid)
        n = self._inv_len[pid]
        row = self._inv_rows[pid]
        if row is None or n == row.shape[0]:
            cap = max(4, 2 * n)
            grown = np.empty(cap, dtype=np.intp)
            if n:
                grown[:n] = row[:n]
            row = self._inv_rows[pid] = grown
        row[n] = i
        self._inv_len[pid] = n + 1

    def clear_owners(self, pid: int) -> None:
        """Drop the whole inverted row of ``pid`` (tuple deletion)."""
        if 0 <= pid < len(self._inv_rows):
            self._inv_rows[pid] = None
            self._inv_len[pid] = 0

    def kth_vector_mixed(self, idxs: IndexArray) -> FloatArray:
        """Vectorized :meth:`kth_largest` honoring the short-row cases."""
        lens = self._row_len[idxs]
        return np.where(lens >= self._k, self._topk[idxs, 0],
                        np.where(lens == 0, 0.0, self._min[idxs]))

    def remove_owner(self, pid: int, i: int) -> None:
        """Drop utility ``i`` from ``S(pid)`` (swap-removal, unordered)."""
        n = self._inv_len[pid]
        if n == 0:
            return
        row = self._inv_rows[pid]
        match = row[:n] == i
        p = int(match.argmax())
        if not match[p]:
            return
        row[p] = row[n - 1]
        self._inv_len[pid] = n - 1

    # -- persistence ---------------------------------------------------
    def packed_rows(self, m: int | None = None
                    ) -> tuple[AnyArray, IndexArray, FloatArray]:
        """``(row_len, ids_flat, scores_flat)``: the member rows of
        utilities ``[0, m)`` (all by default) packed CSR, each in arrival
        order. ``row_len`` is a view of the live lengths.

        Arrival order is logical state (removal deltas replay it), so
        rows concatenate exactly as stored.
        """
        lens = self._row_len[:self._m if m is None else m]
        if not lens.shape[0]:
            return lens, _EMPTY_IDS, _EMPTY_SCORES
        ns = lens.tolist()
        return (lens,
                np.concatenate([r[:n] for r, n in zip(self._row_ids, ns)]),
                np.concatenate([r[:n] for r, n in zip(self._row_scores, ns)]))

    def export_state(self) -> dict:
        """Flat-array snapshot: member rows from :meth:`packed_rows`;
        the inverted index is unordered by contract but serialized as-is
        for cheapness."""
        lens, ids_flat, scores_flat = self.packed_rows()
        inv_len = np.asarray(self._inv_len, dtype=np.int64)
        inv_flat = ([self._inv_rows[p][: int(inv_len[p])]
                     for p in np.flatnonzero(inv_len).tolist()])
        return {
            "row_len": lens.copy(),
            "ids_flat": ids_flat,
            "scores_flat": scores_flat,
            "topk": self._topk.copy(),
            "min": self._min.copy(),
            "inv_len": inv_len,
            "inv_flat": (np.concatenate(inv_flat) if inv_flat
                         else np.empty(0, dtype=np.intp)),
        }

    @classmethod
    def from_state(cls, state, m_total: int, k: int) -> "MemberStore":
        """Rebuild a store from :meth:`export_state` arrays.

        Rows are installed as disjoint views of the flat arrays (the
        bootstrap pattern): in-place compaction cannot alias across
        rows, and the first append reallocates into owned storage.
        """
        store = cls(m_total, k)
        lens = np.asarray(state["row_len"], dtype=np.int64)
        if lens.shape[0] != m_total:
            raise ValueError("member-store state does not match pool size")
        store._row_len = lens.copy()
        ids_flat = np.asarray(state["ids_flat"], dtype=np.intp).copy()
        scores_flat = np.asarray(state["scores_flat"],
                                 dtype=np.float64).copy()
        bounds = np.zeros(m_total + 1, dtype=np.int64)
        np.cumsum(lens, out=bounds[1:])
        if int(bounds[-1]) != ids_flat.shape[0] or \
                scores_flat.shape[0] != ids_flat.shape[0]:
            raise ValueError("member rows are inconsistent with row_len")
        for i in range(m_total):
            s, e = int(bounds[i]), int(bounds[i + 1])
            if e > s:
                store._row_ids[i] = ids_flat[s:e]
                store._row_scores[i] = scores_flat[s:e]
        topk = np.ascontiguousarray(state["topk"], dtype=np.float64)
        if topk.shape != (m_total, k):
            raise ValueError("top-k matrix shape mismatch")
        store._topk = topk.copy()
        store._min = np.asarray(state["min"], dtype=np.float64).copy()
        inv_len = np.asarray(state["inv_len"], dtype=np.int64)
        inv_flat = np.asarray(state["inv_flat"], dtype=np.intp).copy()
        store._inv_len = [int(x) for x in inv_len]
        store._inv_rows = [None] * inv_len.shape[0]
        pos = 0
        for p in np.flatnonzero(inv_len).tolist():
            ln = int(inv_len[p])
            store._inv_rows[p] = inv_flat[pos:pos + ln]
            pos += ln
        if pos != inv_flat.shape[0]:
            raise ValueError("inverted rows are inconsistent with inv_len")
        return store


class ApproxTopKIndex:
    """Maintains ``Φ_{k,ε}(u_i, P_t)`` for a pool of ``M`` utilities.

    Parameters
    ----------
    db : Database
        The dynamic database; updates must be applied to ``db`` *through*
        :meth:`insert` / :meth:`delete` of this index (it forwards them),
        or applied first and then notified — see the two methods.
    utilities : (M, d) array
        Unit utility vectors; the pool is fixed for the index lifetime.
    k : int
        Rank parameter of the k-RMS query.
    eps : float
        Approximation factor ε of the top-k sets.

    Attributes
    ----------
    build_profile : dict[str, float]
        Cold-start phase breakdown in seconds (bootstrap GEMM + top-k
        selection, membership fill).
    """

    def __init__(self, db: Database, utilities: ArrayLike, k: int,
                 eps: float) -> None:
        self._db = db
        self._u = np.ascontiguousarray(utilities, dtype=np.float64)
        if self._u.ndim != 2 or self._u.shape[1] != db.d:
            raise ValueError("utilities must be (M, d) with d matching the database")
        self._m_total = self._u.shape[0]
        self._k = check_k(k)
        self._eps = check_epsilon(eps)
        self._store = MemberStore(self._m_total, self._k)
        self.build_profile: dict[str, float] = {}
        self._bootstrap(*db.snapshot())

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self._k

    @property
    def eps(self) -> float:
        return self._eps

    @property
    def pool_size(self) -> int:
        """Number of utility vectors in the pool (M)."""
        return self._m_total

    def utility(self, idx: int) -> FloatArray:
        return self._u[idx].copy()

    def members_of(self, u_index: int) -> list[int]:
        """Tuple ids currently in ``Φ_{k,ε}(u_index, P_t)``."""
        return self._store.members_sorted(u_index)

    def member_row(self, u_index: int) -> IndexArray:
        """Member ids of one utility as a raw array (arrival order).

        Order-free bulk access for array consumers (the set-cover size
        probes of Algorithm 2); :meth:`members_of` keeps the sorted-list
        contract.
        """
        return self._store.row(u_index)[0]

    def member_rows(self, m: int) -> tuple[IndexArray, IndexArray,
                                           FloatArray]:
        """``(lens, ids, scores)``: the member rows of utilities
        ``[0, m)`` packed CSR, each in arrival order."""
        lens, ids, scores = self._store.packed_rows(m)
        return lens.astype(np.intp), ids, scores

    def sets_containing(self, tuple_id: int) -> frozenset[int]:
        """``S(p)``: utility indices whose approximate top-k holds ``tuple_id``."""
        return self._store.sets_containing(tuple_id)

    def threshold(self, u_index: int) -> float:
        """Current ``τ_i`` of utility ``u_index``."""
        return float(self._tau[u_index])

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, point: ArrayLike) -> tuple[int, list[MembershipDelta]]:
        """Insert ``point`` into the database; maintain all top-k sets.

        Returns the new tuple id and the membership deltas (the new tuple
        joining sets, plus any tuples evicted when thresholds rose).
        """
        pid, log = self.insert_log(point)
        return pid, log.to_deltas()

    def insert_log(self, point: ArrayLike) -> tuple[int, DeltaLog]:
        """:meth:`insert` returning the raw :class:`DeltaLog` (hot path)."""
        pid = self._db.insert(point)
        vec = self._db.point(pid)
        log = DeltaLog()
        n = len(self._db)
        row = self._u @ vec
        if n <= self._k + 1:
            # While |P| <= k everything is a top-k tuple (τ = 0); at
            # |P| = k + 1 thresholds become meaningful for the first
            # time. Either way every utility absorbs the point.
            reached = np.arange(self._m_total, dtype=np.intp)
        else:
            reached = np.flatnonzero(row >= self._tau)
        self._absorb_new_tuple(pid, row, n, reached, log)
        return pid, log

    def begin_insert_run(self, points: ArrayLike) -> "_InsertRun":
        """Start a batched run of consecutive insertions.

        All tuples are stored in the database up front (insertions
        never read the other alive tuples, so bulk loading is safe), and
        the whole ``(batch × M)`` score matrix is computed with one
        GEMM. The returned cursor's :meth:`_InsertRun.step` then replays
        the *membership* maintenance one operation at a time — in
        arrival order, against per-op thresholds — so the deltas it
        yields are exactly the sequential ones.
        """
        return _InsertRun(self, points)

    def begin_delete_run(self, tuple_ids: Iterable[int]) -> "_DeleteRun":
        """Start a batched run of consecutive deletions.

        All victims are removed from the database up front with one
        ``delete_many``; the cursor keeps their values, so each step's
        repair scan still sees the alive set *as of its turn*. The
        returned cursor's :meth:`_DeleteRun.step` replays the
        membership maintenance one operation at a time, so the delta
        stream is exactly the sequential one.
        """
        return _DeleteRun(self, tuple_ids)

    def apply_batch(
        self, ops: Sequence[Any]
    ) -> list[tuple[int | None, list[MembershipDelta]]]:
        """Apply a workload slice; returns per-op ``(id, deltas)`` pairs.

        Runs of consecutive insertions go through
        :meth:`begin_insert_run` (one GEMM instead of one mat-vec per
        tuple); runs of consecutive deletions go through
        :meth:`begin_delete_run` (one bulk database removal, repair
        scans over a reconstructed snapshot). The id is the
        inserted tuple's id for insertions, ``None`` for deletions.
        """
        out: list[tuple[int | None, list[MembershipDelta]]] = []
        for run in iter_op_runs(ops):
            if run[0].kind == INSERT:
                cursor = self.begin_insert_run([op.point for op in run])
                for _ in run:
                    out.append(cursor.step())
            else:
                dcursor = self.begin_delete_run(
                    [op.tuple_id for op in run])
                for _ in run:
                    out.append((None, dcursor.step()))
        return out

    def delete(self, tuple_id: int) -> list[MembershipDelta]:
        """Delete ``tuple_id`` from the database; maintain all top-k sets.

        Only utilities whose approximate top-k holds the tuple are
        touched (found via the inverted index ``S(p)``). When the tuple
        was among the exact top-k of a utility, one scan of the alive
        tuples recomputes ``ω_k`` and rebuilds the member set.
        """
        return self.delete_log(tuple_id).to_deltas()

    def delete_log(self, tuple_id: int) -> DeltaLog:
        """:meth:`delete` returning the raw :class:`DeltaLog` (hot path)."""
        self._db.delete(tuple_id)
        return self._delete_core(int(tuple_id), len(self._db), None)

    def _delete_core(self, tuple_id: int, n_db: int,
                     run: "_DeleteRun | None") -> DeltaLog:
        """Membership maintenance of one deletion (database already
        updated).

        ``n_db`` is the database size *as of this operation* (batched
        runs remove the whole batch up front, so ``len(db)`` would run
        behind); ``run`` supplies the alive-as-of-this-op snapshot for
        batched wave repairs (``None`` on the sequential path).
        """
        store = self._store
        affected = np.asarray(store.owners_sorted(tuple_id), dtype=np.intp)
        log = DeltaLog()
        if affected.size == 0:
            return log
        # ω_k per affected utility, read before any removal (a shrinking
        # list changes it); the admission score comes back from the
        # removal itself — one row scan per utility. Comparing the two
        # (within SCORE_TOL) decides whether ω_k may have dropped.
        kth = store.kth_vector_mixed(affected)
        scores = np.empty(affected.size)
        for pos, i in enumerate(affected.tolist()):
            scores[pos] = store.remove(i, tuple_id, drop_owner=False)
        store.clear_owners(tuple_id)
        if n_db < self._k:
            was_topk = np.ones(affected.size, dtype=bool)
        else:
            was_topk = scores >= kth - SCORE_TOL
        rebuild_pos = np.flatnonzero(was_topk)
        if rebuild_pos.size == 0:
            log.extend_one_pid(affected, tuple_id, REMOVE_CODE)
            return log
        # One wave computes every affected utility's repair against the
        # same post-deletion state (repairs touch disjoint member rows,
        # so precomputing them is exactly the sequential result), then
        # the deltas interleave: each utility's REMOVE precedes its
        # rebuild deltas.
        repairs = self._compute_repairs(affected[rebuild_pos], n_db, run)
        prev = 0
        for p, repair in zip(rebuild_pos.tolist(), repairs):
            log.extend_one_pid(affected[prev:p + 1], tuple_id, REMOVE_CODE)
            self._apply_repair(int(affected[p]), repair, log)
            prev = p + 1
        log.extend_one_pid(affected[prev:], tuple_id, REMOVE_CODE)
        return log

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Flat-array snapshot of the index (checkpointing).

        The thresholds are stored under ``cone_tau``/``cone_active``
        (named for the cone tree that once held them) so checkpoints
        stay byte-compatible across that change; the active mask is
        ``isfinite(tau)``.
        """
        state = {"u": self._u.copy()}
        for prefix, sub in (("cone_", {"tau": self._tau.copy(),
                                       "active": np.isfinite(self._tau)}),
                            ("ms_", self._store.export_state())):
            # reprolint: disable=RPL001 -- key relabeling; read by name
            for key, val in sub.items():
                state[prefix + key] = val
        return state

    @classmethod
    def from_state(cls, state, db: Database, k: int, eps: float
                   ) -> "ApproxTopKIndex":
        """Rebuild an index from :meth:`export_state` arrays.

        ``kd_*`` arrays (the k-d tree that checkpoints written before
        4.0.0 carry) are ignored: the tree was derived from the
        database.
        """
        self = object.__new__(cls)
        self._db = db
        self._u = np.ascontiguousarray(state["u"], dtype=np.float64).copy()
        if self._u.ndim != 2 or self._u.shape[1] != db.d:
            raise ValueError("utilities must be (M, d) with d matching "
                             "the database")
        self._m_total = self._u.shape[0]
        self._k = check_k(k)
        self._eps = check_epsilon(eps)
        self._store = MemberStore.from_state(
            _sub_state(state, "ms_"), self._m_total, self._k)
        tau = np.asarray(state["cone_tau"], dtype=np.float64)
        active = np.asarray(state["cone_active"], dtype=bool)
        if tau.shape != (self._m_total,) or active.shape != (self._m_total,):
            raise ValueError("cone state does not match this utility pool")
        if not np.array_equal(active, np.isfinite(tau)):
            raise ValueError("cone_active disagrees with isfinite(cone_tau)")
        self._tau = tau.copy()
        self.build_profile = {}
        return self

    def logical_arrays(self):
        """Yield ``(name, array)`` pairs covering the logical state.

        Feeds the engine state digest: utilities, member rows in arrival
        order, the threshold/active vectors. Derived structures (top-k
        matrix, running mins, inverted index) are functions of these and
        the database, so they are deliberately excluded — the digest
        must be invariant to physical layout.
        """
        yield "u", self._u
        lens, ids_flat, scores_flat = self._store.packed_rows()
        yield "member_len", lens
        yield "member_ids", ids_flat
        yield "member_scores", scores_flat
        yield "tau", self._tau
        yield "active", np.isfinite(self._tau)

    def _bootstrap(self, ids: IndexArray, pts: FloatArray) -> None:
        """Vectorized initial computation of every ``Φ_{k,ε}``.

        One GEMM per utility chunk scores it as an ``(n, b)`` block,
        written into one score buffer allocated per bootstrap (a fresh
        block per chunk costs its page faults again);
        :func:`_column_top_k` gives thresholds and the ``(M, k)``
        top-score matrix. Memberships come from one row-major
        ``flatnonzero`` per chunk, regrouped utility-major by a stable
        sort of the (few) hits, and are installed as array slices — no
        per-member Python loop. The inverted index is assembled once at
        the end from the flat (pid, utility) pairs.

        The block stays ``pts @ block.T`` into a C-contiguous ``(n, b)``
        output: BLAS picks its edge kernels by output layout, so
        ``block @ pts.T`` differs from it in the last ulp for some chunk
        widths, and member scores are digested.
        """
        n = ids.shape[0]
        m_total, k, store = self._m_total, self._k, self._store
        t_gemm = t_fill = 0.0
        inv_pids: list[IndexArray] = []
        inv_owners: list[IndexArray] = []
        all_taus = np.zeros(m_total)
        if n > 0:
            chunk = max(1, min(m_total, BOOTSTRAP_CHUNK_ELEMS // n))
            buf = np.empty(n * chunk)
            for start in range(0, m_total, chunk):
                block = self._u[start:start + chunk]
                b = block.shape[0]
                t0 = time.perf_counter()
                scores = buf[:n * b].reshape(n, b)
                np.matmul(pts, block.T, out=scores)
                if n <= k:
                    # reprolint: disable=RPL008 -- per-GEMM-chunk, not per-op
                    taus = np.zeros(b)
                    topk_rows = np.full((b, k), -np.inf)
                    topk_rows[:, k - n:] = np.sort(scores, axis=0).T
                else:
                    topk_rows = _column_top_k(scores, k)
                    taus = (1.0 - self._eps) * topk_rows[:, 0]
                t1 = time.perf_counter()
                hit = np.flatnonzero(scores >= taus)
                rows, cols = np.divmod(hit, b)
                # Stable by utility: pids stay ascending within each.
                order = np.argsort(cols, kind="stable")
                rows, cols, hit = rows[order], cols[order], hit[order]
                bounds = np.r_[0, np.cumsum(np.bincount(cols, minlength=b))]
                member_pids = ids[rows]
                member_scores = scores.ravel()[hit]
                if member_scores.size:
                    mins = np.minimum.reduceat(member_scores, bounds[:-1])
                else:
                    # reprolint: disable=RPL008 -- per-GEMM-chunk, not per-op
                    mins = np.empty(0)
                for col in range(b):
                    s, e = bounds[col], bounds[col + 1]
                    store.set_row_bootstrap(
                        start + col, member_pids[s:e], member_scores[s:e],
                        topk_rows[col], float(mins[col]) if e > s else np.inf)
                inv_pids.append(member_pids)
                inv_owners.append(cols + start)
                all_taus[start:start + b] = taus
                t_gemm += t1 - t0
                t_fill += time.perf_counter() - t1
        t2 = time.perf_counter()
        if inv_pids:
            pids = np.concatenate(inv_pids)
            owners = np.concatenate(inv_owners).astype(np.intp)
            # Stable sort by pid keeps owners ascending within each pid
            # (pairs are generated utility-major).
            order = np.argsort(pids, kind="stable")
            pids, owners = pids[order], owners[order]
            upids_pos = np.flatnonzero(np.r_[True, pids[1:] != pids[:-1]])
            starts = upids_pos
            ends = np.r_[upids_pos[1:], pids.size]
            store.set_inverted_bootstrap(pids[starts], starts, ends, owners)
        self._tau = all_taus
        self.build_profile["bootstrap_gemm"] = t_gemm
        self.build_profile["membership_fill"] = \
            t_fill + (time.perf_counter() - t2)

    def _absorb_new_tuple(self, pid: int, row: FloatArray, n: int,
                          reached: AnyArray, log: DeltaLog) -> None:
        """Membership maintenance for one inserted tuple, vectorized.

        ``row`` is the tuple's precomputed score against every utility,
        ``n`` the database size *as of this operation* (batched runs
        pre-load the database, so ``len(db)`` would run ahead), and
        ``reached`` the (ascending) utility indices whose threshold the
        tuple meets. Thresholds for the whole reach are refreshed with
        one gather; only utilities whose minimum member score falls
        below their new τ pay an eviction pass. Deltas are emitted in
        the legacy per-utility order: each utility's ADD, then its
        evictions ascending by (score, id).
        """
        if reached.size == 0:
            return
        store = self._store
        scores = row[reached]
        store.add_members(reached, scores, pid)
        if n <= self._k:
            # τ stays 0 while |P| <= k: no refresh, no eviction.
            log.extend_one_pid(reached, pid, ADD_CODE)
            return
        taus = (1.0 - self._eps) * store.kth_vector(reached)
        evict_pos = np.flatnonzero(store.min_vector(reached) < taus)
        if evict_pos.size == 0:
            log.extend_one_pid(reached, pid, ADD_CODE)
        else:
            prev = 0
            for p in evict_pos.tolist():
                # The evicting utility's own ADD precedes its REMOVEs.
                log.extend_one_pid(reached[prev:p + 1], pid, ADD_CODE)
                i = int(reached[p])
                _, ev_ids = store.evict_below(i, float(taus[p]))
                for evicted in ev_ids.tolist():
                    store.remove_owner(evicted, i)
                log.extend_one_utility(i, ev_ids, REMOVE_CODE)
                prev = p + 1
            log.extend_one_pid(reached[prev:], pid, ADD_CODE)
        self._tau[reached] = taus

    def _compute_repairs(self, idxs: IndexArray, n_db: int,
                         run: "_DeleteRun | None"
                         ) -> list[tuple[float, IndexArray, FloatArray] | None]:
        """Fresh ``(τ, member ids, member scores)`` per utility in ``idxs``.

        All repairs see the same post-deletion database state, so they
        are computed in one wave: the alive points are gathered once and
        scored against the affected utilities with ``(n × q)`` GEMMs of
        at most :data:`REPAIR_CHUNK_ELEMS` scores each, whose columns
        :func:`_column_top_k` ranks all at once. Member lists come back
        descending by score, ties toward the smaller id.
        """
        if n_db == 0:
            return [None] * idxs.shape[0]
        if run is not None:
            ids, pts = run.alive_snapshot()
        else:
            ids, pts = self._db.snapshot()
        out: list[tuple[float, IndexArray, FloatArray] | None] = []
        chunk = max(1, REPAIR_CHUNK_ELEMS // n_db)
        for start in range(0, idxs.shape[0], chunk):
            scores = pts @ self._u[idxs[start:start + chunk]].T  # (n, q)
            q = scores.shape[1]
            if n_db <= self._k:
                # reprolint: disable=RPL008 -- per repair chunk, not per op
                taus = np.zeros(q)
            else:
                taus = (1.0 - self._eps) * _column_top_k(scores, self._k)[:, 0]
            hit = np.flatnonzero(scores >= taus)
            rows, cols = np.divmod(hit, q)
            hit_scores = scores.ravel()[hit]
            hit_ids = ids[rows]
            order = np.lexsort((hit_ids, -hit_scores, cols))
            hit_ids, hit_scores = hit_ids[order], hit_scores[order]
            ends = np.cumsum(np.bincount(cols, minlength=q)).tolist()
            out += [(float(taus[c]), hit_ids[s:e], hit_scores[s:e])
                    for c, s, e in zip(range(q), [0, *ends], ends)]
        return out

    def _apply_repair(
        self,
        i: int,
        repair: tuple[float, IndexArray, FloatArray] | None,
        log: DeltaLog,
    ) -> None:
        """Install one utility's recomputed ``Φ_{k,ε}`` after a top-k loss."""
        store = self._store
        cur_ids, cur_scores = store.row(i)
        if repair is None:  # database empty
            # Emit removals in the legacy sorted-list order.
            order = np.lexsort((cur_ids, cur_scores))
            gone = cur_ids[order].copy()
            store.replace_row(i, _EMPTY_IDS, _EMPTY_SCORES)
            for pid in gone.tolist():
                store.remove_owner(pid, i)
            log.extend_one_utility(i, gone, REMOVE_CODE)
            self._tau[i] = 0.0
            return
        tau, fresh_ids, fresh_scores = repair
        fresh_ids = np.asarray(fresh_ids, dtype=np.intp)
        stale = ~np.isin(cur_ids, fresh_ids)
        added = ~np.isin(fresh_ids, cur_ids)
        gone = cur_ids[stale].copy()
        new_ids = fresh_ids[added]
        new_scores = np.asarray(fresh_scores)[added]
        # Survivors keep their admission order and stored scores; fresh
        # members append in query order (descending score) — exactly the
        # legacy dict-replay order.
        store.replace_row(i, np.concatenate([cur_ids[~stale], new_ids]),
                          np.concatenate([cur_scores[~stale], new_scores]))
        for pid in gone.tolist():
            store.remove_owner(pid, i)
        log.extend_one_utility(i, gone, REMOVE_CODE)
        for pid in new_ids.tolist():
            store.add_owner(int(pid), i)
        log.extend_one_utility(i, new_ids, ADD_CODE)
        self._tau[i] = tau


class _InsertRun:
    """Cursor over a batched run of consecutive insertions.

    Construction bulk-loads the database and computes the
    ``(batch × M)`` score matrix in one GEMM; each :meth:`step` then
    performs the membership/threshold maintenance of exactly one
    insertion, in arrival order. Insertion maintenance reads only the
    new tuple's scores and the stored member rows, never the other
    alive tuples, so the bulk load cannot be observed by the per-op
    maintenance: the delta stream is identical to calling
    ``ApproxTopKIndex.insert`` once per point — the per-op work is one
    vectorized threshold comparison against a precomputed score row.
    """

    __slots__ = ("_index", "_pids", "_scores", "_pos", "_n0")

    def __init__(self, index: ApproxTopKIndex, points: ArrayLike) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        self._index = index
        self._n0 = len(index._db)
        self._pids = index._db.insert_many(pts)
        self._scores = pts @ index._u.T
        self._pos = 0

    @property
    def n_before(self) -> int:
        """Database size before the next (unstepped) operation."""
        return self._n0 + self._pos

    @property
    def remaining(self) -> int:
        return len(self._pids) - self._pos

    def step(self) -> tuple[int, list[MembershipDelta]]:
        """Run the membership maintenance of the next insertion."""
        pid, log = self.step_log()
        return pid, log.to_deltas()

    def step_log(self) -> tuple[int, DeltaLog]:
        """:meth:`step` returning the raw :class:`DeltaLog` (hot path)."""
        if self._pos >= len(self._pids):
            raise StopIteration("insert run exhausted")
        index = self._index
        t = self._pos
        self._pos += 1
        pid = int(self._pids[t])
        row = self._scores[t]
        n = self._n0 + t + 1  # sequential database size after this op
        log = DeltaLog()
        if n <= index._k + 1:
            reached = np.arange(index._m_total, dtype=np.intp)
        else:
            reached = np.flatnonzero(row >= index._tau)
        index._absorb_new_tuple(pid, row, n, reached, log)
        return pid, log


class _DeleteRun:
    """Cursor over a batched run of consecutive deletions.

    Construction removes every victim from the database with one
    ``delete_many`` (keeping the returned victim values); each
    :meth:`step` then performs the membership maintenance of exactly
    one deletion, in arrival order, against the database state *as of
    that operation*:

    * the database size is tracked by the cursor (``len(db)`` already
      reflects the whole batch);
    * repair scans reconstruct the alive-as-of-the-step snapshot from
      the post-batch database plus the retained values of the
      not-yet-processed victims — the same rows, in the same
      ascending-id order, as the sequential path's snapshot.

    The delta stream is therefore identical to calling
    ``ApproxTopKIndex.delete`` once per victim.
    """

    __slots__ = ("_index", "_ids", "_victim_pts", "_pos", "_n0")

    def __init__(self, index: ApproxTopKIndex, tuple_ids: Iterable[int]) -> None:
        ids = np.asarray(list(tuple_ids), dtype=np.intp)
        self._index = index
        self._ids = ids
        self._n0 = len(index._db)
        # Atomic bulk removal; the returned values back the snapshots.
        self._victim_pts = index._db.delete_many(ids)
        self._pos = 0

    @property
    def n_before(self) -> int:
        """Database size before the next (unstepped) operation."""
        return self._n0 - self._pos

    @property
    def remaining(self) -> int:
        return len(self._ids) - self._pos

    def step(self) -> list[MembershipDelta]:
        """Run the membership maintenance of the next deletion."""
        return self.step_log().to_deltas()

    def step_log(self) -> DeltaLog:
        """:meth:`step` returning the raw :class:`DeltaLog` (hot path)."""
        if self._pos >= len(self._ids):
            raise StopIteration("delete run exhausted")
        index = self._index
        t = self._pos
        self._pos += 1
        tid = int(self._ids[t])
        # Sequential database size after this op (the db ran ahead).
        return index._delete_core(tid, self._n0 - (t + 1), self)

    def alive_snapshot(self) -> tuple[IndexArray, FloatArray]:
        """``(ids, points)`` alive as of the current step, id-ascending.

        Equals what ``db.snapshot()`` returns on the sequential path at
        the same operation: the post-batch alive set plus the victims
        of the not-yet-processed steps.
        """
        base_ids, base_pts = self._index._db.snapshot()
        extra = self._ids[self._pos:]
        if extra.size == 0:
            return base_ids, base_pts
        order = np.argsort(extra)
        extra = extra[order]
        at = np.searchsorted(base_ids, extra)
        return (np.insert(base_ids, at, extra),
                np.insert(base_pts, at, self._victim_pts[self._pos:][order],
                          axis=0))
