"""Dynamic set cover with *stable* solutions (Algorithm 1 of the paper).

A set-cover solution ``C`` assigns every universe element ``u`` to one
set ``φ(u) ∈ C`` containing it; ``cov(S)`` is the set of elements
assigned to ``S``. Sets are organized in levels: ``S ∈ L_j`` iff
``2^j <= |cov(S)| < 2^{j+1}``. The solution is **stable**
(Definition 2) when

1. every set sits in the level matching its cover size, and
2. no candidate set ``S ∈ 𝒮`` (in the solution or not) has
   ``|S ∩ A_j| >= 2^{j+1}`` for any level ``j``, where ``A_j`` is the set
   of elements assigned at level ``j``.

Theorem 1: any stable solution is ``(2 + 2·log2 m)``-approximate.

This implementation supports the four operations of Algorithm 1 —
element insertion/removal in the universe and element insertion/removal
in a candidate set — plus whole-set removal (needed when a tuple is
deleted).

Storage layout
--------------
Elements and sets are identified by **small nonnegative integers**
(FD-RMS uses utility indices and tuple ids; both are dense), and every
piece of per-element / per-set state lives in flat NumPy arrays indexed
by those ids — the same structure-of-arrays discipline as
:class:`repro.core.topk.MemberStore`:

* the membership relation is a pair of adjacency tables (id-indexed
  lists of integer arrays with amortized-doubling growth and
  swap-removal), one per direction;
* the solution state is four id-indexed arrays: ``φ`` (assigned set or
  -1), the element's assignment level, the set's level (-1 = not in
  ``C``), and ``|cov(S)|``;
* the ids of the sets in ``C`` are kept in one small unordered array
  (|C| ≈ r entries, swap-removed where a set leaves ``C``), so reading
  the solution costs O(|C|), not a scan of every set id ever held;
* instead of materialized per-(set, level) buckets, a dense int32
  ``(levels × sets)`` **count matrix** tracks ``|S ∩ A_j|``, one row
  per level in use (at least 8); a bucket's members are recovered on
  demand (one vectorized filter of the set's member row) only when
  STABILIZE actually absorbs it;
* the Condition-2 dirty queue is a binary heap of packed ``(level <<
  48) | set_id`` integer keys deduplicated by a ``(sets × levels)``
  boolean matrix.

``frozenset`` views of elements/sets exist only at the public API
boundary (:meth:`solution`, :meth:`members`, :meth:`sets_of`, ...); no
internal step builds a Python set or dict.

Determinism contract
--------------------
Every choice the maintenance makes is canonical in the ids — ties
always break toward the **smallest id**: GREEDY ties (largest current
gain first), the reassignment target of an orphaned element (highest
level first, then smallest set id), the processing order of orphans
and of absorbed bucket members (ascending element id), and the drain
order of the violation queue (lowest level, then smallest set id).
The maintained solution is therefore a pure function of the operation
history — independent of hash-table layout, platform, or interpreter —
which is what makes replay determinism digests reproducible by
specification.

To find Condition-2 violations without scanning all of ``𝒮``, any
count-matrix cell reaching ``2^{j+1}`` enqueues a violation, and
STABILIZE drains the queue (lowest level first). A step cap guards the
(practically unreached) worst case by falling back to a fresh greedy
solution, which is stable by Lemma 1. :meth:`batch` defers the drain
across a group of membership operations — the engine wraps each tuple
update in one batch, so a single operation's burst of membership deltas
pays **one** stabilize pass instead of one per delta.
"""

from __future__ import annotations

import heapq
from collections.abc import (Callable, Iterable, Iterator, Mapping,
                             Sequence)
from contextlib import contextmanager
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro._types import AnyArray, Int64Array

_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: Bits reserved for the set id inside a packed dirty-queue key; the
#: level occupies the bits above. Heap order on the packed integer is
#: exactly the lexicographic (level, set id) order Algorithm 1 wants.
_KEY_BITS = 48


def _level_of(size: int) -> int:
    """Level index ``j`` with ``2^j <= size < 2^{j+1}`` (size >= 1)."""
    return size.bit_length() - 1


def _grown_capacity(ids: Int64Array) -> int:
    """Capacity that ``max(id + 1, 2 * cap, 16)`` growth reaches when
    ``ids`` arrive in order (only new running maxima can grow it)."""
    cap = 0
    if ids.size:
        run = np.maximum.accumulate(ids)
        for top in run[np.r_[True, run[1:] > run[:-1]]].tolist():
            if top >= cap:
                cap = max(top + 1, 2 * cap, 16)
    return cap


def _check_id(key: Any, kind: str) -> int:
    if type(key) is int:  # fast path: the engine passes plain ints
        if key >= 0:
            return key
        raise ValueError(f"{kind} ids must be nonnegative, got {key}")
    if isinstance(key, (bool, np.bool_)) or not isinstance(
            key, (int, np.integer)):
        raise TypeError(f"{kind} ids must be nonnegative ints, "
                        f"got {key!r}")
    key = int(key)
    if key < 0:
        raise ValueError(f"{kind} ids must be nonnegative, got {key}")
    return key


def _dense_ranks(ids: AnyArray) -> tuple[AnyArray, AnyArray]:
    """``np.unique(ids, return_inverse=True)`` for nonnegative ids, by
    counting instead of sorting: the distinct ids ascending, and each
    entry's rank among them."""
    present = np.zeros(int(ids.max()) + 1 if ids.size else 0, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[ids]


def _row_positions(ptr: AnyArray, rows: AnyArray) -> AnyArray:
    """Positions of the CSR rows ``rows`` (offsets ``ptr``), concatenated
    in the given row order."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if lens.size else 0) + np.repeat(
        starts - (ends - lens), lens)


def _rank_pairs(elem_rows: Sequence[AnyArray]
                ) -> tuple[AnyArray, AnyArray, AnyArray, AnyArray]:
    """``(lens, sids, dense, elem_by_set)`` of an element-major set
    system: row lengths, the distinct set ids ascending, each pair's
    dense set rank, and each pair's element in set-major order (the
    ``set_elems`` of :func:`_counting_greedy`)."""
    lens = np.fromiter((r.shape[0] for r in elem_rows), np.intp,
                       len(elem_rows))
    flat = np.concatenate(elem_rows) if len(elem_rows) else _EMPTY_IDS
    sids, dense = _dense_ranks(flat)
    return lens, sids, dense, np.repeat(np.arange(lens.shape[0]), lens)[
        np.argsort(dense, kind="stable")]


def _counting_greedy(flat: AnyArray, lens: AnyArray, set_elems: AnyArray,
                     n_sets: int) -> list[int]:
    """Shared GREEDY kernel over a flat CSR set system.

    ``flat`` holds, element-major, the dense set index of every
    (element, set) membership pair; ``lens`` the per-element row
    lengths; ``set_elems`` the element of every pair in set-major
    order, ascending within a set (a stable sort of ``flat``, which the
    caller may compute once for many prefixes). Each step selects the
    largest current uncovered gain, ties toward the smallest dense
    index — the smallest id, as dense ranks are monotone in the id.
    Returns the dense selection order; gains are maintained with
    counting updates, so the whole run is O(total membership) plus one
    argmax per selected set. Both the size-only probe
    (:func:`greedy_prefix_sizer`) and the stateful build
    (:meth:`StableSetCover._select_greedy`) run on this kernel.
    """
    eptr = np.r_[0, np.cumsum(lens)]
    counts = np.bincount(flat, minlength=n_sets)
    gains = counts.copy()
    sptr = np.r_[0, np.cumsum(counts)]
    covered = np.zeros(lens.shape[0], dtype=bool)
    n_uncovered = lens.shape[0]
    selection: list[int] = []
    while n_uncovered:
        j = int(np.argmax(gains)) if n_sets else -1
        if j < 0 or gains[j] <= 0:
            raise ValueError("greedy failed: some element is uncoverable")
        row = set_elems[sptr[j]:sptr[j + 1]]
        won = row[~covered[row]]
        covered[won] = True
        n_uncovered -= int(won.size)
        np.subtract.at(gains, flat[_row_positions(eptr, won)], 1)
        selection.append(j)
    return selection


def greedy_prefix_sizer(elem_rows: Sequence[AnyArray]
                        ) -> Callable[[int], int]:
    """Size-only GREEDY over the element prefixes of a set system.

    ``elem_rows[e]`` is an integer array of the set ids containing
    element ``e``; the returned ``size(m)`` is the solution size of the
    GREEDY cover of elements ``[0, m)``. The selection rule is exactly
    the one of :meth:`StableSetCover.build` — largest current
    uncovered-gain first, ties toward the smallest set id — so
    ``size(m)`` equals ``cover.build(...); cover.solution_size()`` on
    that prefix without paying for any membership state. Set ids are
    ranked once over the whole system (the dense rank is monotone in
    the id, so the dense argmax tie-break matches the stateful build's
    on every prefix), and the pairs are sorted set-major once: a probe
    keeps the pairs of its prefix with a mask instead of sorting again.
    FD-RMS uses this for the Algorithm 2 binary search, where only each
    probe's size matters.
    """
    lens, sids, dense, elem_by_set = _rank_pairs(elem_rows)
    eptr = np.r_[0, np.cumsum(lens)]

    def size(m: int) -> int:
        if m == 0:
            return 0
        if not lens[:m].all():
            raise ValueError("greedy failed: some element is uncoverable")
        return len(_counting_greedy(dense[:eptr[m]], lens[:m],
                                    elem_by_set[elem_by_set < m], sids.size))

    return size


def greedy_cover_size(elem_rows: Sequence[AnyArray]) -> int:
    """Solution size of the GREEDY cover over an array set system
    (:func:`greedy_prefix_sizer` over all of ``elem_rows``)."""
    return greedy_prefix_sizer(elem_rows)(len(elem_rows))


class _Adjacency:
    """Id-indexed rows of integer ids with swap-removal.

    One instance per membership direction (element -> owning sets and
    set -> member elements). Rows grow by amortized doubling; removal
    swaps the last entry into the vacated slot, so rows are unordered —
    every consumer that needs a canonical order sorts the (small) slice
    it looks at. Membership tests and removals scan the row: no
    per-row position map is kept, so a row costs its array and nothing
    else.
    """

    __slots__ = ("_rows", "_lens")

    def __init__(self) -> None:
        self._rows: list[Int64Array | None] = []
        self._lens: list[int] = []

    def ensure(self, idx: int) -> None:
        if idx < len(self._rows):
            return
        grow = idx + 1 - len(self._rows)
        self._rows.extend([None] * grow)
        self._lens.extend([0] * grow)

    def degree(self, idx: int) -> int:
        if idx >= len(self._rows):
            return 0
        return self._lens[idx]

    def row(self, idx: int) -> Int64Array:
        """The ids adjacent to ``idx`` (an unordered array view)."""
        if idx >= len(self._rows) or self._rows[idx] is None:
            return _EMPTY_IDS
        return self._rows[idx][: self._lens[idx]]

    def contains(self, idx: int, other: int) -> bool:
        return bool((self.row(idx) == other).any())

    def _grow_row(self, idx: int, need: int) -> Int64Array:
        n = self._lens[idx]
        row = self._rows[idx]
        if row is None or need > row.shape[0]:
            grown = np.empty(max(4, need, 2 * n), dtype=np.int64)
            if n:
                grown[:n] = row[:n]
            row = self._rows[idx] = grown
        return row

    def add(self, idx: int, other: int) -> None:
        self.ensure(idx)
        n = self._lens[idx]
        row = self._grow_row(idx, n + 1)
        row[n] = other
        self._lens[idx] = n + 1

    def remove(self, idx: int, other: int) -> bool:
        """Drop ``other`` from row ``idx`` (the last entry moves into
        its slot); False when absent."""
        n = self.degree(idx)
        if n == 0:
            return False
        row = self._rows[idx]
        match = row[:n] == other
        p = int(match.argmax())
        if not match[p]:
            return False
        row[p] = row[n - 1]
        self._lens[idx] = n - 1
        return True

    def extend(self, idx: int, others: Int64Array) -> None:
        """Bulk-append ``others`` (all new to the row) to row ``idx``."""
        self.ensure(idx)
        n = self._lens[idx]
        need = n + others.shape[0]
        row = self._grow_row(idx, need)
        row[n:need] = others
        self._lens[idx] = need

    def append_each(self, idxs: list[int], other: int) -> None:
        """Append ``other`` to every row in ``idxs`` (one call, no dups)."""
        if not idxs:
            return
        self.ensure(max(idxs))
        rows, lens = self._rows, self._lens
        for idx in idxs:
            n = lens[idx]
            row = rows[idx]
            if row is None or n == row.shape[0]:
                # reprolint: disable=RPL008 -- amortized doubling; O(log n) allocs
                grown = np.empty(max(4, 2 * n), dtype=np.int64)
                if n:
                    grown[:n] = row[:n]
                row = rows[idx] = grown
            row[n] = other
            lens[idx] = n + 1

    def remove_many(self, idx: int, others: Int64Array) -> Int64Array:
        """Drop every id in ``others`` present in row ``idx``.

        Returns the removed ids in their pre-removal row order; absent
        ids are ignored. The hits are swap-removed one at a time in
        that order, exactly as a run of :meth:`remove` calls would: the
        row order left behind is history-dependent state that
        checkpoints store (:meth:`export_rows`), so it must not depend
        on how a removal was carried out.
        """
        n = self.degree(idx)
        if n == 0:
            return _EMPTY_IDS
        row = self._rows[idx]
        removed = row[np.flatnonzero(np.isin(row[:n], others))]
        for o in removed.tolist():
            # An earlier swap may have moved ``o``; find it again.
            p = int((row[:n] == o).argmax())
            n -= 1
            row[p] = row[n]
        self._lens[idx] = n
        return removed

    def clear(self, idx: int) -> None:
        if idx < len(self._rows):
            self._rows[idx] = None
            self._lens[idx] = 0

    # -- persistence ---------------------------------------------------
    def export_rows(self) -> tuple[Int64Array, Int64Array]:
        """``(lens, flat)`` CSR packing of every row, in row order.

        Row order is preserved exactly: swap-removal makes it
        physically arbitrary but history-dependent, and a restored
        instance must take the same future paths as the exported one.
        """
        lens = np.asarray(self._lens, dtype=np.int64)
        rows = [self._rows[i][: int(lens[i])]
                for i in np.flatnonzero(lens).tolist()]
        flat = np.concatenate(rows) if rows else _EMPTY_IDS
        return lens, flat

    @classmethod
    def import_rows(cls, lens, flat) -> "_Adjacency":
        """Rebuild from :meth:`export_rows`."""
        adj = cls()
        lens = np.asarray(lens, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64).copy()
        if int(lens.sum()) != flat.shape[0]:
            raise ValueError("adjacency rows are inconsistent with lens")
        n = lens.shape[0]
        adj._lens = lens.tolist()
        adj._rows = [None] * n
        pos = 0
        for i in np.flatnonzero(lens).tolist():
            ln = int(lens[i])
            adj._rows[i] = flat[pos:pos + ln]
            pos += ln
        return adj


class StableSetCover:
    """A dynamically maintained, stable set-cover solution.

    Elements and sets are identified by small nonnegative integer ids
    (FD-RMS uses utility indices and tuple ids); all internal state is
    arrays indexed by those ids. The instance owns the membership
    relation: mutate it only through the public methods.
    """

    def __init__(self) -> None:
        self._reset()
        self.stabilize_steps = 0  # cumulative, for diagnostics/benchmarks

    def _reset(self) -> None:
        # Membership relation (the set system Σ).
        self._owners = _Adjacency()    # elem -> sids
        self._members = _Adjacency()   # sid  -> elems
        self._elem_alive = np.zeros(0, dtype=bool)
        self._n_elems = 0
        # Solution state, id-indexed.
        self._phi = np.full(0, -1, dtype=np.int64)         # elem -> sid
        self._elem_level = np.full(0, -1, dtype=np.int64)  # elem -> j
        self._level = np.full(0, -1, dtype=np.int64)       # sid -> j
        self._cov_size = np.zeros(0, dtype=np.int64)       # sid -> |cov|
        self._solution: Int64Array = _EMPTY_IDS            # C, unordered
        # |S ∩ A_j| counts and the dirty queue over them; one row per
        # level in use (at least 8), int32 since a count is at most the
        # number of elements (see _ensure_elem).
        self._bucket_counts = np.zeros((8, 0), dtype=np.int32)
        self._pending: list[int] = []        # heap of (j << 48) | sid
        self._pending_mask = np.zeros((8, 0), dtype=bool)
        self._deferred = False

    # ------------------------------------------------------------------
    # Array growth
    # ------------------------------------------------------------------
    def _ensure_elem(self, elem: int) -> None:
        cap = self._phi.shape[0]
        if elem < cap:
            return
        new_cap = max(elem + 1, 2 * cap, 16)
        if new_cap >= 1 << 31:  # keeps every int32 level count exact
            raise ValueError(f"element capacity {new_cap} exceeds 2**31 - 1")
        self._phi = self._grow1(self._phi, new_cap, -1)
        self._elem_level = self._grow1(self._elem_level, new_cap, -1)
        alive = np.zeros(new_cap, dtype=bool)
        alive[:cap] = self._elem_alive
        self._elem_alive = alive
        self._owners.ensure(elem)

    def _ensure_sid(self, sid: int) -> None:
        cap = self._level.shape[0]
        if sid < cap:
            self._members.ensure(sid)
            return
        new_cap = max(sid + 1, 2 * cap, 16)
        self._level = self._grow1(self._level, new_cap, -1)
        self._cov_size = self._grow1(self._cov_size, new_cap, 0)
        levels = self._bucket_counts.shape[0]
        counts = np.zeros((levels, new_cap), dtype=np.int32)
        counts[:, :cap] = self._bucket_counts
        self._bucket_counts = counts
        mask = np.zeros((levels, new_cap), dtype=bool)
        mask[:, :cap] = self._pending_mask
        self._pending_mask = mask
        self._members.ensure(sid)

    def _ensure_level(self, j: int) -> None:
        levels = self._bucket_counts.shape[0]
        if j < levels:
            return
        new_levels = j + 1
        counts = np.zeros((new_levels, self._bucket_counts.shape[1]),
                          dtype=np.int32)
        counts[:levels] = self._bucket_counts
        self._bucket_counts = counts
        mask = np.zeros((new_levels, self._pending_mask.shape[1]),
                        dtype=bool)
        mask[:levels] = self._pending_mask
        self._pending_mask = mask

    @staticmethod
    def _grow1(arr: AnyArray, new_cap: int, fill: float) -> AnyArray:
        out = np.full(new_cap, fill, dtype=arr.dtype)
        out[: arr.shape[0]] = arr
        return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Flat-array snapshot of the full cover state (checkpointing).

        Only valid between operations: the dirty queue must be drained
        and no batch open, which every public entry point guarantees on
        return.
        """
        if self._pending or self._deferred:
            raise ValueError(
                "cannot export a set cover mid-batch or with pending work")
        owners_lens, owners_flat = self._owners.export_rows()
        members_lens, members_flat = self._members.export_rows()
        return {
            "owners_lens": owners_lens,
            "owners_flat": owners_flat,
            "members_lens": members_lens,
            "members_flat": members_flat,
            "elem_alive": self._elem_alive.copy(),
            "phi": self._phi.copy(),
            "elem_level": self._elem_level.copy(),
            "level": self._level.copy(),
            "cov_size": self._cov_size.copy(),
            "n_elems": np.int64(self._n_elems),
            "stabilize_steps": np.int64(self.stabilize_steps),
        }

    @classmethod
    def from_state(cls, state) -> "StableSetCover":
        """Rebuild a cover from :meth:`export_state` arrays.

        Bucket counts, the solution array and the (empty) dirty queue
        are derived, not stored: ``|S ∩ A_j|`` is one scatter-add over
        the alive covered elements, and ``C`` is the sets with a level.
        """
        cover = cls()
        cover._owners = _Adjacency.import_rows(
            state["owners_lens"], state["owners_flat"])
        cover._members = _Adjacency.import_rows(
            state["members_lens"], state["members_flat"])
        cover._elem_alive = np.asarray(state["elem_alive"],
                                       dtype=bool).copy()
        cover._phi = np.asarray(state["phi"], dtype=np.int64).copy()
        cover._elem_level = np.asarray(state["elem_level"],
                                       dtype=np.int64).copy()
        cover._level = np.asarray(state["level"], dtype=np.int64).copy()
        cover._cov_size = np.asarray(state["cov_size"],
                                     dtype=np.int64).copy()
        n_elems = int(state["n_elems"])
        ecap, scap = cover._phi.shape[0], cover._level.shape[0]
        if not (cover._elem_alive.shape[0] == ecap
                == cover._elem_level.shape[0]
                and cover._cov_size.shape[0] == scap
                and 0 <= n_elems <= ecap):
            raise ValueError("set-cover state arrays are inconsistent")
        cover._n_elems = n_elems
        cover._solution = np.flatnonzero(cover._level >= 0)
        cover.stabilize_steps = int(state["stabilize_steps"])
        if ecap:
            cover._owners.ensure(ecap - 1)
        if scap:
            cover._members.ensure(scap - 1)
        levels = max(8, int(cover._elem_level.max(initial=-1)) + 1,
                     int(cover._level.max(initial=-1)) + 1)
        counts = np.zeros((levels, scap), dtype=np.int32)
        for elem in np.flatnonzero(cover._elem_alive).tolist():
            j = int(cover._elem_level[elem])
            if j >= 0:
                counts[j, cover._owners.row(elem)] += 1
        cover._bucket_counts = counts
        cover._pending = []
        cover._pending_mask = np.zeros((levels, scap), dtype=bool)
        return cover

    def logical_arrays(self):
        """Yield ``(name, array)`` pairs covering the logical state.

        Feeds the engine state digest. The membership relation is
        rendered canonically (owner rows sorted per element) because
        adjacency row order is physical; φ, levels and cover sizes are
        logical outputs of the stable-cover algorithm and hash as-is.
        """
        alive = np.flatnonzero(self._elem_alive)
        yield "alive_elems", alive
        yield "phi", self._phi[alive]
        yield "elem_level", self._elem_level[alive]
        yield "set_level", self._level
        yield "cov_size", self._cov_size
        owner_lens = np.asarray([self._owners.degree(int(e)) for e in alive],
                                dtype=np.int64)
        yield "owner_lens", owner_lens
        rows = [np.sort(self._owners.row(int(e))) for e in alive.tolist()]
        yield "owners_sorted", (np.concatenate(rows) if rows
                                else _EMPTY_IDS)
        yield "stabilize_steps", np.asarray([self.stabilize_steps],
                                            dtype=np.int64)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def universe(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._elem_alive).tolist())

    def solution(self) -> frozenset[int]:
        """The sets currently in the cover ``C`` (O(|C|))."""
        return frozenset(self._solution.tolist())

    def solution_size(self) -> int:
        return self._solution.shape[0]

    def cover_of(self, sid: int) -> frozenset[int]:
        """``cov(S)`` of a set (empty if not in the solution)."""
        sid = _check_id(sid, "set")
        if sid >= self._level.shape[0] or self._level[sid] < 0:
            return frozenset()
        return frozenset(np.flatnonzero(self._phi == sid).tolist())

    def assignment(self, elem: int) -> int | None:
        """``φ(elem)`` — the covering set of an element."""
        elem = _check_id(elem, "element")
        if elem >= self._phi.shape[0] or self._phi[elem] < 0:
            raise KeyError(elem)
        return int(self._phi[elem])

    def sets_of(self, elem: int) -> frozenset[int]:
        elem = _check_id(elem, "element")
        return frozenset(self._owners.row(elem).tolist())

    def members(self, sid: int) -> frozenset[int]:
        sid = _check_id(sid, "set")
        return frozenset(self._members.row(sid).tolist())

    # ------------------------------------------------------------------
    # Bulk (re)construction — GREEDY of Algorithm 1
    # ------------------------------------------------------------------
    def build(self, membership: Mapping[int, Iterable[int]]) -> None:
        """Install set system ``membership`` (sid -> iterable of elems)
        and compute a fresh greedy solution (stable by Lemma 1).

        An adapter onto :meth:`build_arrays`: the mapping's key order is
        the set order and each set's iteration order its row order.
        """
        sid_list: list[int] = []
        lens: list[int] = []
        items: list[Any] = []
        # reprolint: disable=RPL001 -- insertion order IS the canonical build order
        for sid, row in membership.items():
            sid_list.append(_check_id(sid, "set"))
            start = len(items)
            items.extend(row)
            lens.append(len(items) - start)
        self.build_arrays(sid_list, lens,
                          [_check_id(e, "element") for e in items])

    def build_arrays(self, sids: ArrayLike, lens: ArrayLike,
                     elems: ArrayLike) -> None:
        """Install a CSR set system and compute a fresh greedy solution
        (stable by Lemma 1).

        Set ``sids[i]`` (distinct, nonnegative) holds the ``lens[i]``
        elements that follow in ``elems``, set after set. Elements only
        enter the universe through a containing set, so a freshly built
        system cannot hold an uncoverable element; that invariant is
        asserted by :meth:`is_cover` (and, transitively, by
        ``FDRMS.verify``) rather than re-checked here.

        The relation is installed in the order that adding each (set,
        element) pair in turn would leave it: a set's member row follows
        its row in ``elems``, an element's owner row follows the order
        of ``sids``, a repeated element keeps its first position, and
        the id-indexed arrays get the capacities that growth by doubling
        would reach. The set order is part of the determinism contract
        (it sizes the digested set-indexed arrays); the order within a
        row is physical only — no decision reads it.
        """
        sids = np.asarray(sids, dtype=np.int64)
        elems = np.asarray(elems, dtype=np.int64)
        if (sids.size and sids.min() < 0) or (elems.size and elems.min() < 0):
            raise ValueError("set and element ids must be nonnegative")
        if int(np.sum(lens)) != elems.size or len(lens) != sids.size:
            raise ValueError("set rows are inconsistent with lens")
        self._reset()
        pair_sids = np.repeat(sids, lens)
        # Element-major, set order within an element; a repeated
        # (set, element) pair lands next to its first occurrence.
        by_elem = np.argsort(elems, kind="stable")
        e_sorted, s_sorted = elems[by_elem], pair_sids[by_elem]
        keep = np.ones(elems.size, dtype=bool)
        keep[by_elem[1:]] = ((e_sorted[1:] != e_sorted[:-1])
                             | (s_sorted[1:] != s_sorted[:-1]))
        kept_elems, kept_sids = elems[keep], pair_sids[keep]
        self._owners = _Adjacency.import_rows(
            np.bincount(kept_elems), pair_sids[by_elem[keep[by_elem]]])
        self._members = _Adjacency.import_rows(
            np.bincount(kept_sids,
                        minlength=int(sids.max()) + 1 if sids.size else 0),
            kept_elems[np.argsort(kept_sids, kind="stable")])
        ecap, scap = _grown_capacity(elems), _grown_capacity(sids)
        self._elem_alive = np.zeros(ecap, dtype=bool)
        self._elem_alive[elems] = True
        self._n_elems = int(self._elem_alive.sum())
        self._phi = np.full(ecap, -1, dtype=np.int64)
        self._elem_level = np.full(ecap, -1, dtype=np.int64)
        self._level = np.full(scap, -1, dtype=np.int64)
        self._cov_size = np.zeros(scap, dtype=np.int64)
        self._bucket_counts = np.zeros((8, scap), dtype=np.int32)
        self._pending_mask = np.zeros((8, scap), dtype=bool)
        self._greedy()

    def rebuild(self) -> None:
        """Recompute the solution greedily from the current membership."""
        self._greedy()

    def _select_greedy(self, uncovered: AnyArray) -> list[int]:
        """GREEDY selection order over the flat membership arrays.

        Selects the set with the largest *current* gain, ties toward
        the smaller set id: :func:`_counting_greedy` over dense set
        ranks, the rule and kernel of the Algorithm 2 probes.
        """
        rows = [self._owners.row(e)
                for e in np.flatnonzero(uncovered).tolist()]
        if not rows:
            return []
        lens, sids, dense, set_elems = _rank_pairs(rows)
        return sids[_counting_greedy(dense, lens, set_elems,
                                     sids.size)].tolist()

    def _greedy(self) -> None:
        self._phi.fill(-1)
        self._elem_level.fill(-1)
        self._level.fill(-1)
        self._cov_size.fill(0)
        self._bucket_counts.fill(0)
        self._pending_mask.fill(False)
        self._pending.clear()
        uncovered = self._elem_alive.copy()
        chosen: list[int] = []
        for sid in self._select_greedy(uncovered):
            mem = self._members.row(sid)
            won = np.sort(mem[uncovered[mem]])
            if won.size == 0:
                continue
            self._phi[won] = sid
            uncovered[won] = False
            self._cov_size[sid] = won.size
            j = _level_of(int(won.size))
            self._level[sid] = j
            chosen.append(sid)
            self._ensure_level(j)
            self._elem_level[won] = j
            # reprolint: disable=RPL008 -- cold-build gather, not a per-op path
            owners = np.concatenate([self._owners.row(e)
                                     for e in won.tolist()])
            np.add.at(self._bucket_counts[j], owners, 1)
            touched = np.unique(owners)
            hot = touched[self._bucket_counts[j, touched] >= (1 << (j + 1))]
            for s in hot.tolist():
                self._queue_push(s, j)
        if uncovered.any():
            raise ValueError("greedy failed: some element is uncoverable")
        self._solution = np.asarray(chosen, dtype=np.int64)
        self._drain()

    # ------------------------------------------------------------------
    # Dynamic operations (the four σ of Algorithm 1 + whole-set removal)
    # ------------------------------------------------------------------
    def begin_batch(self) -> bool:
        """Start deferring STABILIZE; returns False if already deferred.

        Pair with :meth:`end_batch` (pass the returned flag) — or use
        the :meth:`batch` context manager. Split out as plain calls
        because the engine opens a batch on every tuple update, where
        generator-based context managers are measurable overhead.
        """
        if self._deferred:
            return False
        self._deferred = True
        return True

    def end_batch(self, started: bool = True) -> None:
        """Stop deferring and run the single stabilize pass."""
        if not started:
            return
        self._deferred = False
        self._drain()

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Defer STABILIZE to the end of a group of operations.

        Inside the context, the dynamic operations record Condition-2
        violations but do not drain the queue; one stabilize pass runs
        on exit. The engine wraps each tuple update (a burst of
        membership deltas plus, for deletions, a whole-set removal) in
        one batch — bulk set-cover repair in a single pass. Nested
        batches are flattened into the outermost one.
        """
        started = self.begin_batch()
        try:
            yield self
        finally:
            self.end_batch(started)

    def add_to_set(self, elem: int, sid: int) -> None:
        """σ = (u, S, +): element ``elem`` joins candidate set ``sid``."""
        elem = _check_id(elem, "element")
        sid = _check_id(sid, "set")
        if elem >= self._elem_alive.shape[0] or not self._elem_alive[elem]:
            raise KeyError(f"element {elem!r} is not in the universe")
        if self._owners.contains(elem, sid):
            return
        self._ensure_sid(sid)
        self._owners.add(elem, sid)
        self._members.add(sid, elem)
        lvl = int(self._elem_level[elem])
        if lvl >= 0:
            self._bucket_counts[lvl, sid] += 1
            self._queue_check(sid, lvl)
        self._stabilize()

    def remove_from_set(self, elem: int, sid: int) -> None:
        """σ = (u, S, -): element ``elem`` leaves candidate set ``sid``.

        If ``elem`` was assigned to ``sid``, it is reassigned to another
        containing set (which must exist, else :class:`ValueError`).
        """
        elem = _check_id(elem, "element")
        sid = _check_id(sid, "set")
        if not self._owners.remove(elem, sid):
            return  # no-op if absent
        self._members.remove(sid, elem)
        lvl = int(self._elem_level[elem])
        if lvl >= 0:
            self._bucket_counts[lvl, sid] -= 1
        if self._phi[elem] == sid:
            self._unassign(elem, sid)
            self._assign_somewhere(elem)
        self._stabilize()

    def add_elems_to_set(self, elems: Iterable[int], sid: int) -> None:
        """Bulk σ⁺: every element of ``elems`` joins candidate set ``sid``.

        Equivalent to ``add_to_set(e, sid)`` per element inside one
        :meth:`batch` — membership insertion makes no assignment
        decisions, so bulk application is a pure vectorization, not a
        semantic change. ``elems`` must be distinct universe elements
        that are not yet members of ``sid`` (the engine's delta streams
        guarantee both).
        """
        sid = _check_id(sid, "set")
        n_elems = len(elems)
        if n_elems == 0:
            return
        self._ensure_sid(sid)
        if n_elems <= 8:
            # Small groups: scalar updates beat array-call overhead.
            alive, elem_level = self._elem_alive, self._elem_level
            counts = self._bucket_counts
            for e in elems:
                if e < 0 or e >= alive.shape[0] or not alive[e]:
                    raise KeyError(f"element {e!r} is not in the universe")
            self._members.extend(sid, np.asarray(elems, dtype=np.int64))
            self._owners.append_each(list(elems), sid)
            for e in elems:
                lvl = int(elem_level[e])
                if lvl >= 0:
                    c = counts[lvl, sid] + 1
                    counts[lvl, sid] = c
                    if c >= (1 << (lvl + 1)):
                        self._queue_push(sid, lvl)
            self._stabilize()
            return
        elems_arr = np.asarray(elems, dtype=np.int64)
        bad = (elems_arr < 0) | (elems_arr >= self._elem_alive.shape[0])
        if bad.any():
            raise KeyError(f"element {int(elems_arr[bad][0])!r} is not "
                           "in the universe")
        alive = self._elem_alive[elems_arr]
        if not alive.all():
            missing = elems_arr[~alive][0]
            raise KeyError(f"element {int(missing)!r} is not in the "
                           "universe")
        self._members.extend(sid, elems_arr)
        self._owners.append_each(elems_arr.tolist(), sid)
        lv = self._elem_level[elems_arr]
        lv = lv[lv >= 0]
        if lv.size:
            hist = np.bincount(lv)
            levels = np.flatnonzero(hist)
            self._bucket_counts[: hist.size, sid] += hist
            for j in levels.tolist():
                self._queue_check(sid, int(j))
        self._stabilize()

    def add_elem_to_sets(self, elem: int, sids: Iterable[int]) -> None:
        """Bulk σ⁺: element ``elem`` joins every candidate set in ``sids``.

        Equivalent to ``add_to_set(elem, s)`` per set inside one
        :meth:`batch`; ``sids`` must be distinct sets not yet containing
        ``elem``.
        """
        elem = _check_id(elem, "element")
        if elem >= self._elem_alive.shape[0] or not self._elem_alive[elem]:
            raise KeyError(f"element {elem!r} is not in the universe")
        n_sids = len(sids)
        if n_sids == 0:
            return
        if min(sids) < 0:
            raise ValueError("set ids must be nonnegative")
        self._ensure_sid(max(sids))
        lvl = int(self._elem_level[elem])
        if n_sids <= 8:
            counts = self._bucket_counts
            self._owners.extend(elem, np.asarray(sids, dtype=np.int64))
            self._members.append_each(list(sids), elem)
            if lvl >= 0:
                cap = 1 << (lvl + 1)
                row = counts[lvl]
                for s in sids:
                    c = row[s] + 1
                    row[s] = c
                    if c >= cap:
                        self._queue_push(s, lvl)
            self._stabilize()
            return
        sids_arr = np.asarray(sids, dtype=np.int64)
        self._owners.extend(elem, sids_arr)
        self._members.append_each(sids_arr.tolist(), elem)
        if lvl >= 0:
            row = self._bucket_counts[lvl]
            row[sids_arr] += 1
            cap = 1 << (lvl + 1)
            hot = sids_arr[row[sids_arr] >= cap]
            for s in hot.tolist():
                self._queue_push(int(s), lvl)
        self._stabilize()

    def remove_elem_from_sets(self, elem: int, sids: Iterable[int]) -> None:
        """Bulk σ⁻: element ``elem`` leaves every set in ``sids``.

        All memberships are removed first; if the element's assigned
        set is among them, it is reassigned **once** against the
        remaining containing sets (a sequence of ``remove_from_set``
        calls may reassign repeatedly mid-burst; the engine applies a
        whole operation's removals as one group, so the single final
        reassignment is the canonical semantics). Absent memberships
        are ignored.
        """
        elem = _check_id(elem, "element")
        if elem >= self._elem_alive.shape[0] or not self._elem_alive[elem]:
            return
        if len(sids) == 0:
            return
        sids_arr = np.asarray(sids, dtype=np.int64)
        removed = self._owners.remove_many(elem, sids_arr)
        if removed.size == 0:
            return
        removed_list = removed.tolist()
        for s in removed_list:
            self._members.remove(s, elem)
        lvl = int(self._elem_level[elem])
        if lvl >= 0:
            row = self._bucket_counts[lvl]
            if len(removed_list) <= 8:
                for s in removed_list:
                    row[s] -= 1
            else:
                row[removed] -= 1
        phi = int(self._phi[elem])
        if phi >= 0 and phi in removed_list:
            self._unassign(elem, phi)
            self._assign_somewhere(elem)
        self._stabilize()

    def add_element(self, elem: int, member_sids: Iterable[int]) -> None:
        """σ = (u, U, +): a new element joins the universe.

        ``member_sids`` lists the candidate sets containing it (must be
        non-empty, otherwise no cover exists).
        """
        sids = sorted({_check_id(s, "set") for s in member_sids})
        if not sids:
            raise ValueError(f"element {elem!r} must belong to at least one set")
        elem = _check_id(elem, "element")
        self._ensure_elem(elem)
        if self._elem_alive[elem]:
            raise KeyError(f"element {elem!r} already in the universe")
        self._elem_alive[elem] = True
        self._n_elems += 1
        self._owners.clear(elem)
        self._phi[elem] = -1
        self._elem_level[elem] = -1
        for sid in sids:
            self._ensure_sid(sid)
            self._owners.add(elem, sid)
            self._members.add(sid, elem)
        self._assign_somewhere(elem)
        self._stabilize()

    def remove_element(self, elem: int) -> None:
        """σ = (u, U, -): an element leaves the universe entirely."""
        elem = _check_id(elem, "element")
        if elem >= self._elem_alive.shape[0] or not self._elem_alive[elem]:
            raise KeyError(f"element {elem!r} not in the universe")
        sid = int(self._phi[elem])
        if sid >= 0:
            self._unassign(elem, sid)
        for owner in self._owners.row(elem).tolist():
            self._members.remove(owner, elem)
        self._owners.clear(elem)
        self._elem_alive[elem] = False
        self._n_elems -= 1
        self._stabilize()

    def remove_set(self, sid: int) -> None:
        """Remove candidate set ``sid`` (tuple deletion in FD-RMS).

        Every element assigned to it is reassigned (in ascending
        element order); elements merely *containing* it lose the
        membership.
        """
        sid = _check_id(sid, "set")
        if sid >= self._level.shape[0] or self._members.degree(sid) == 0:
            return
        for elem in self._members.row(sid).tolist():
            self._owners.remove(elem, sid)
        self._members.clear(sid)
        self._bucket_counts[:, sid] = 0
        orphans = np.flatnonzero(self._phi == sid)
        if self._level[sid] >= 0:
            self._level[sid] = -1
            self._leave_solution(sid)
        self._cov_size[sid] = 0
        for elem in orphans.tolist():
            self._phi[elem] = -1
            old = int(self._elem_level[elem])
            self._elem_level[elem] = -1
            if old >= 0:
                self._clear_elem_level(elem, old)
        for elem in orphans.tolist():
            self._assign_somewhere(elem)
        self._stabilize()

    # ------------------------------------------------------------------
    # Verification (used by tests; exhaustive, not fast)
    # ------------------------------------------------------------------
    def is_cover(self) -> bool:
        """Every universe element is assigned to a containing set."""
        for elem in np.flatnonzero(self._elem_alive).tolist():
            sid = int(self._phi[elem])
            if sid < 0 or not self._owners.contains(elem, sid):
                return False
        return True

    def is_stable(self) -> bool:
        """Exhaustively check Definition 2 (both conditions), and that
        the solution array holds exactly the sets with a level."""
        in_c = np.flatnonzero(self._level >= 0)
        if (self.solution_size() != in_c.shape[0]
                or not np.array_equal(np.sort(self._solution), in_c)):
            return False  # a missing, stray or duplicated solution id
        for sid in in_c.tolist():
            size = int(self._cov_size[sid])
            if size == 0 or self._level[sid] != _level_of(size):
                return False
        if int(self._cov_size[self._level < 0].sum()) != 0:
            return False
        max_level = int(self._elem_level.max(initial=-1))
        # reprolint: disable=RPL004 -- is_stable is a test/debug invariant check
        for sid in range(self._level.shape[0]):
            mem = self._members.row(sid)
            if mem.size == 0:
                continue
            lv = self._elem_level[mem]
            hist = np.bincount(lv[lv >= 0], minlength=max_level + 1)
            for j, count in enumerate(hist.tolist()):
                if count >= (1 << (j + 1)):
                    return False
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _queue_push(self, sid: int, j: int) -> None:
        if not self._pending_mask[j, sid]:
            self._pending_mask[j, sid] = True
            heapq.heappush(self._pending, (j << _KEY_BITS) | sid)

    def _queue_check(self, sid: int, j: int) -> None:
        if self._bucket_counts[j, sid] >= (1 << (j + 1)):
            self._queue_push(sid, j)

    def _set_elem_level(self, elem: int, new_j: int) -> None:
        """Move ``elem``'s assignment level to ``new_j`` in all counts."""
        old = int(self._elem_level[elem])
        if old == new_j:
            return
        if new_j >= self._bucket_counts.shape[0]:
            self._ensure_level(new_j)
        owners = self._owners.row(elem)
        counts = self._bucket_counts
        if old >= 0:
            counts[old][owners] -= 1
        row = counts[new_j]
        row[owners] += 1
        self._elem_level[elem] = new_j
        cap = 1 << (new_j + 1)
        chk = row[owners] >= cap
        if chk.any():
            for sid in owners[chk].tolist():
                self._queue_push(sid, new_j)

    def _move_elems_level(self, elems: Int64Array, new_j: int) -> None:
        """Vectorized :meth:`_set_elem_level` for a group of elements.

        Count-equivalent to moving each element in turn: the updates
        are additive, the target-level counts only grow during the
        group, and the dedup mask makes the queue pushes a set — so one
        scatter-add per direction replaces a per-element pass.
        """
        if new_j >= self._bucket_counts.shape[0]:
            self._ensure_level(new_j)
        counts = self._bucket_counts
        rows = [self._owners.row(e) for e in elems.tolist()]
        olds = self._elem_level[elems]
        all_owners = np.concatenate(rows)
        old_rep = np.repeat(olds, [r.shape[0] for r in rows])
        assigned = old_rep >= 0
        if assigned.any():
            np.subtract.at(counts, (old_rep[assigned],
                                    all_owners[assigned]), 1)
        row = counts[new_j]
        np.add.at(row, all_owners, 1)
        self._elem_level[elems] = new_j
        cap = 1 << (new_j + 1)
        touched = np.unique(all_owners)
        hot = touched[row[touched] >= cap]
        for sid in hot.tolist():
            self._queue_push(int(sid), new_j)

    def _clear_elem_level(self, elem: int, old_j: int) -> None:
        """Drop ``elem`` from the level counts (it became unassigned)."""
        self._bucket_counts[old_j][self._owners.row(elem)] -= 1

    def _unassign(self, elem: int, sid: int) -> None:
        """Remove ``elem`` from ``cov(sid)`` and relevel the donor."""
        self._cov_size[sid] -= 1
        self._phi[elem] = -1
        old = int(self._elem_level[elem])
        self._elem_level[elem] = -1
        if old >= 0:
            self._clear_elem_level(elem, old)
        self._relevel(sid)

    def _assign_somewhere(self, elem: int) -> None:
        """Assign ``elem`` to a containing set (RELEVEL included).

        Preference order: the containing set already in ``C`` at the
        highest level (minimizes churn and keeps |C| small), ties and
        the none-in-C case toward the smallest set id, which then joins
        ``C`` at level 0.
        """
        candidates = self._owners.row(elem)
        if candidates.size == 0:
            raise ValueError(f"element {elem!r} has no containing set; "
                             "cover would become infeasible")
        levels = self._level[candidates]
        best = int(candidates[levels == levels.max()].min())
        self._phi[elem] = best
        self._cov_size[best] += 1
        self._relevel(best)
        new_j = int(self._level[best])
        if self._elem_level[elem] != new_j:
            # RELEVEL kept the set's level; sync just the new arrival.
            self._set_elem_level(elem, new_j)

    def _leave_solution(self, sid: int) -> None:
        """Swap-remove ``sid`` from the solution array."""
        sol = self._solution
        p = int((sol == sid).argmax())
        sol[p] = sol[-1]
        self._solution = sol[:-1]

    def _relevel(self, sid: int) -> None:
        """RELEVEL of Algorithm 1: sync ``sid``'s level with |cov|."""
        size = int(self._cov_size[sid])
        in_sol = self._level[sid] >= 0
        if size == 0:
            if in_sol:
                self._level[sid] = -1
                self._leave_solution(sid)
            return
        new_j = _level_of(size)
        if not in_sol:
            self._solution = np.append(self._solution, sid)
        if self._level[sid] == new_j:
            # Cover members were in sync before this size change; any
            # freshly assigned element is synced by its caller
            # (_assign_somewhere, the STABILIZE absorption).
            return
        self._level[sid] = new_j
        cov = np.flatnonzero(self._phi == sid)
        mism = cov[self._elem_level[cov] != new_j]
        if mism.size == 0:
            return
        if mism.size == 1:
            self._set_elem_level(int(mism[0]), new_j)
        else:
            self._move_elems_level(mism, new_j)

    def _stabilize(self) -> None:
        if not self._deferred:
            self._drain()

    def _drain(self) -> None:
        """STABILIZE of Algorithm 1, violation-queue driven.

        Processes Condition-2 violations lowest level first, then
        smallest set id; within one absorption, bucket members are
        absorbed in ascending element id order. A step cap (generous;
        never hit in our experiments) falls back to a fresh greedy
        solution, which Lemma 1 guarantees stable.
        """
        m = max(1, self._n_elems)
        cap = 64 + 16 * m * (m.bit_length() + 1)
        steps = 0
        while self._pending:
            key = heapq.heappop(self._pending)
            j, sid = key >> _KEY_BITS, key & ((1 << _KEY_BITS) - 1)
            self._pending_mask[j, sid] = False
            mem = self._members.row(sid)
            if mem.size == 0:
                continue
            if self._bucket_counts[j, sid] < (1 << (j + 1)):
                continue
            steps += 1
            self.stabilize_steps += 1
            if steps > cap:  # pragma: no cover - safety valve
                self.rebuild()
                return
            # Absorb S ∩ A_j into cov(S); donors shrink and relevel.
            bucket = np.sort(mem[self._elem_level[mem] == j])
            for elem in bucket.tolist():
                owner = int(self._phi[elem])
                if owner == sid:
                    continue
                if owner >= 0:
                    self._cov_size[owner] -= 1
                    old = int(self._elem_level[elem])
                    self._elem_level[elem] = -1
                    if old >= 0:
                        self._clear_elem_level(elem, old)
                    self._phi[elem] = -1
                    self._relevel(owner)
                self._phi[elem] = sid
                self._cov_size[sid] += 1
            self._relevel(sid)
            # RELEVEL skips the sync when the level is unchanged; the
            # absorbed arrivals still need their level set.
            new_j = int(self._level[sid])
            mism = bucket[self._elem_level[bucket] != new_j]
            if mism.size == 1:
                self._set_elem_level(int(mism[0]), new_j)
            elif mism.size:
                self._move_elems_level(mism, new_j)
