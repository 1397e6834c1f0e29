"""FD-RMS: the fully-dynamic k-RMS algorithm (Algorithms 2–4).

The pipeline, per §III of the paper:

1. Draw ``M`` utility vectors (the first ``d`` are the standard basis,
   the rest uniform on ``U``) and maintain each one's ε-approximate
   top-k set ``Φ_{k,ε}(u_i, P_t)`` (:class:`repro.core.ApproxTopKIndex`).
2. Build the set system ``Σ = (U, S)`` over the first ``m`` utilities:
   ``S(p) = {u_i : i < m, p ∈ Φ_{k,ε}(u_i, P_t)}``.
3. Maintain a *stable* set-cover solution ``C`` on ``Σ``
   (:class:`repro.core.StableSetCover`); the k-RMS result is
   ``Q_t = {p : S(p) ∈ C}``.
4. Keep ``|C| = r`` by growing/shrinking the active prefix ``m``
   (Algorithm 4, UPDATEM).

INITIALIZATION (Algorithm 2) binary-searches ``m ∈ [r, M]`` so the
greedy cover has exactly ``r`` sets; UPDATE (Algorithm 3) translates the
membership deltas produced by the top-k maintainer into the set
operations ``σ`` of Algorithm 1.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro._types import AnyArray, FloatArray, SeedLike
from repro.core.set_cover import (StableSetCover, _row_positions,
                                  greedy_prefix_sizer)
from repro.core.topk import (
    SCORE_TOL,
    ApproxTopKIndex,
    DeltaLog,
)
from repro.data.database import INSERT, Database, iter_op_runs
from repro.geometry.sampling import sample_utilities_with_basis
from repro.utils import check_epsilon, check_k, check_size_constraint


def _sub(arrays: dict[str, Any], prefix: str) -> dict[str, Any]:
    """Strip ``prefix`` from the keys of a composite state mapping."""
    n = len(prefix)
    # reprolint: disable=RPL001 -- key relabeling; consumers read by name
    return {key[n:]: val for key, val in arrays.items()
            if key.startswith(prefix)}


class FDRMS:
    """Fully-dynamic maintenance of a ``RMS(k, r)`` result.

    Parameters
    ----------
    db : Database
        The dynamic database ``P_0``; all further updates must go through
        :meth:`insert` / :meth:`delete` of this object.
    k : int
        Rank parameter (``k = 1`` is the classic r-regret query).
    r : int
        Result size constraint (``r >= d``).
    eps : float
        Approximation factor ε of the top-k sets. Larger ε → denser set
        system → more utility vectors needed → better quality, more work
        (see Fig. 5 of the paper and ``benchmarks/bench_fig5_epsilon.py``).
    m_max : int
        Upper bound ``M`` on the number of utility vectors (``M > r``).
    seed : int | numpy.random.Generator | None
        Randomness for the utility sample.

    Attributes
    ----------
    m : int
        Current number of active utility vectors.
    """

    def __init__(self, db: Database, k: int, r: int, eps: float, *,
                 m_max: int = 1024, seed: SeedLike = None) -> None:
        self._db = db
        self._k = check_k(k)
        self._r = check_size_constraint(r, db.d)
        self._eps = check_epsilon(eps)
        if m_max <= r:
            raise ValueError(f"m_max must exceed r, got m_max={m_max}, r={r}")
        self._m_max = int(m_max)
        t0 = time.perf_counter()
        utilities = sample_utilities_with_basis(self._m_max, db.d, seed=seed)
        t1 = time.perf_counter()
        self._topk = ApproxTopKIndex(db, utilities, self._k, self._eps)
        t2 = time.perf_counter()
        self._cover = StableSetCover()
        self._m = self._r
        self._stats = {"inserts": 0, "deletes": 0, "deltas": 0,
                       "m_changes": 0, "cover_rebuilds": 0}
        if len(db) > 0:
            self._m = self._initialize()
            self._update_m()
        t3 = time.perf_counter()
        #: Cold-start phase breakdown in seconds (Algorithm 2 split into
        #: the top-k bootstrap phases and the set-cover greedy).
        self.init_profile: dict[str, float] = {
            "utility_sample": t1 - t0,
            **self._topk.build_profile,
            "cover_greedy": t3 - t2,
        }

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self._k

    @property
    def r(self) -> int:
        return self._r

    @property
    def eps(self) -> float:
        return self._eps

    @property
    def m(self) -> int:
        """Number of active utility vectors (Algorithm 4 adjusts this)."""
        return self._m

    @property
    def m_max(self) -> int:
        return self._m_max

    @property
    def database(self) -> Database:
        return self._db

    def statistics(self) -> dict[str, int]:
        """Maintenance counters (operations, deltas, m changes, ...).

        ``stabilize_steps`` exposes the cumulative STABILIZE work of the
        underlying set cover — the quantity bounded by Lemma 2.
        """
        out = dict(self._stats)
        out["stabilize_steps"] = self._cover.stabilize_steps
        out["m"] = self._m
        out["solution_size"] = self._cover.solution_size()
        return out

    def result(self) -> list[int]:
        """Current k-RMS result ``Q_t`` as sorted tuple ids."""
        return sorted(self._cover.solution())

    def result_points(self) -> FloatArray:
        """Current result as an ``(|Q_t|, d)`` matrix."""
        ids = self.result()
        if not ids:
            return np.empty((0, self._db.d))
        return self._db.points(ids)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def export_state(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """``(config, arrays)`` snapshot of the full engine state.

        ``config`` is JSON-able (scalars + counters) and travels in the
        checkpoint manifest; ``arrays`` is a flat name → ndarray mapping
        ready for ``np.savez``. Together they are sufficient to rebuild
        an engine that is *physically* identical — same member-row order,
        free-list order, adjacency order — so every future operation
        takes exactly the same path as in the exported instance.
        """
        config: dict[str, Any] = {
            "k": self._k, "r": self._r, "eps": self._eps,
            "m_max": self._m_max, "m": self._m, "d": self._db.d,
            "stats": dict(self._stats),
        }
        arrays: dict[str, Any] = {}
        for prefix, sub in (("db_", self._db.export_state()),
                            ("topk_", self._topk.export_state()),
                            ("cover_", self._cover.export_state())):
            # reprolint: disable=RPL001 -- key relabeling; read by name
            for key, val in sub.items():
                arrays[prefix + key] = val
        return config, arrays

    @classmethod
    def from_state(cls, config: dict[str, Any], arrays: dict[str, Any]
                   ) -> "FDRMS":
        """Rebuild an engine from :meth:`export_state` output."""
        self = object.__new__(cls)
        db = Database.from_state(_sub(arrays, "db_"))
        if db.d != int(config["d"]):
            raise ValueError("database dimension does not match config")
        self._db = db
        self._k = check_k(int(config["k"]))
        self._r = check_size_constraint(int(config["r"]), db.d)
        self._eps = check_epsilon(float(config["eps"]))
        self._m_max = int(config["m_max"])
        if self._m_max <= self._r:
            raise ValueError("m_max must exceed r")
        self._topk = ApproxTopKIndex.from_state(
            _sub(arrays, "topk_"), db, self._k, self._eps)
        self._cover = StableSetCover.from_state(_sub(arrays, "cover_"))
        m = int(config["m"])
        if not self._r <= m <= self._m_max:
            raise ValueError(f"active prefix m={m} out of range")
        self._m = m
        stats = config["stats"]
        self._stats = {"inserts": int(stats["inserts"]),
                       "deletes": int(stats["deletes"]),
                       "deltas": int(stats["deltas"]),
                       "m_changes": int(stats["m_changes"]),
                       "cover_rebuilds": int(stats["cover_rebuilds"])}
        self.init_profile = {}
        return self

    def state_digest(self) -> str:
        """sha256 over the engine's *logical* state.

        Hashes only observable state — alive tuples, member rows in
        arrival order, thresholds, the cover assignment, counters —
        never physical layout (array capacities, free-list or adjacency
        order). A restored engine digests identically to
        the one that was saved; this is the parity check behind crash
        recovery. Batched and sequential runs of the same operations do
        *not* in general: they agree on ids, cover and results, but the
        sequential path scores an insertion with a mat-vec and the
        batched path with a GEMM, so stored member scores and
        thresholds may differ in the last ulp (docs/DETERMINISM.md,
        "Batched ≡ sequential").
        """
        h = hashlib.sha256()

        def absorb(name: str, arr: Any) -> None:
            a = np.ascontiguousarray(arr)
            h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())

        absorb("config", np.asarray(
            [self._k, self._r, self._m, self._m_max], dtype=np.int64))
        absorb("eps", np.asarray([self._eps]))
        ids, pts = self._db.snapshot()
        order = np.argsort(ids)
        absorb("db_ids", ids[order])
        absorb("db_points", pts[order])
        for name, arr in self._topk.logical_arrays():
            absorb("topk_" + name, arr)
        for name, arr in self._cover.logical_arrays():
            absorb("cover_" + name, arr)
        # reprolint: disable=RPL007 -- keys sorted: digest input is ordered
        for key in sorted(self._stats):
            absorb("stat_" + key,
                   np.asarray([self._stats[key]], dtype=np.int64))
        absorb("stabilize_steps", np.asarray(
            [self._cover.stabilize_steps], dtype=np.int64))
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Updates (Algorithm 3)
    # ------------------------------------------------------------------
    def insert(self, point: ArrayLike) -> int:
        """Process ``Δ_t = <p, +>``; returns the new tuple id."""
        fresh_start = len(self._db) == 0
        pid, log = self._topk.insert_log(point)
        self._absorb_insert_deltas(log, fresh_start)
        return pid

    def _absorb_insert_deltas(self, log: DeltaLog,
                              fresh_start: bool) -> None:
        """Cover-layer half of one insertion (shared with batching)."""
        self._stats["inserts"] += 1
        self._stats["deltas"] += len(log)
        if fresh_start:
            self._rebuild_cover()
        else:
            self._apply_deltas(log)
        if self._cover.solution_size() != self._r:
            self._update_m()

    def apply_batch(self, ops: Sequence[Any]) -> list[int | None]:
        """Process a workload slice; returns per-op ids (None = delete).

        Equivalent to applying each :class:`~repro.data.Operation` with
        :meth:`insert` / :meth:`delete` in order — same final result,
        same statistics — but runs of same-kind operations flow through
        the top-k maintainer's batched cursors: insert runs bulk-load
        the database and score the whole run with one ``(batch × M)``
        GEMM; delete runs bulk-remove the victims and repair top-k sets
        with one GEMM scan per operation. The membership deltas are still materialized
        per operation and fed to the set-cover layer in arrival order
        (the stable cover is history-dependent, so coalescing across
        operations would change the result).
        """
        out: list[int | None] = []
        for run in iter_op_runs(ops):
            if run[0].kind != INSERT:
                cursor = self._topk.begin_delete_run(
                    [op.tuple_id for op in run])
                for op in run:
                    n_after = cursor.n_before - 1
                    log = cursor.step_log()
                    self._absorb_delete_deltas(int(op.tuple_id), log,
                                               n_after)
                    out.append(None)
                continue
            cursor = self._topk.begin_insert_run(
                np.asarray([op.point for op in run]))
            for _ in run:
                fresh_start = cursor.n_before == 0
                pid, log = cursor.step_log()
                self._absorb_insert_deltas(log, fresh_start)
                out.append(pid)
        return out

    def delete(self, tuple_id: int) -> None:
        """Process ``Δ_t = <p, ->``."""
        log = self._topk.delete_log(tuple_id)
        self._absorb_delete_deltas(int(tuple_id), log, len(self._db))

    def delete_many(self, tuple_ids: Iterable[int]) -> None:
        """Process a batch of deletions through the batched pipeline.

        Same final state and statistics as calling :meth:`delete` per
        id, but the database removal is one bulk operation and the
        top-k repairs run as waves (see
        :meth:`ApproxTopKIndex.begin_delete_run`).
        """
        ids = [int(t) for t in tuple_ids]
        if not ids:
            return
        cursor = self._topk.begin_delete_run(ids)
        for tid in ids:
            n_after = cursor.n_before - 1
            log = cursor.step_log()
            self._absorb_delete_deltas(tid, log, n_after)

    def _absorb_delete_deltas(self, tuple_id: int, log: DeltaLog,
                              n_db: int) -> None:
        """Cover-layer half of one deletion (shared with batching).

        ``n_db`` is the database size as of this operation (batched
        runs empty the database up front, so ``len(db)`` would run
        ahead).
        """
        self._stats["deletes"] += 1
        self._stats["deltas"] += len(log)
        if n_db == 0:
            self._cover = StableSetCover()
            self._m = self._r
            return
        # Additions first so every element keeps a containing set, then
        # removals of *other* tuples (numerical edge cases), finally the
        # wholesale removal of S(p) with reassignment (Alg. 3 lines 9-12).
        # The whole burst is one cover batch: violations queue up and a
        # single stabilize pass repairs the solution at the end.
        u, pid, kind = log.columns()
        active = u < self._m
        adds = active & (kind > 0)
        removes = active & (kind < 0) & (pid != tuple_id)
        cover = self._cover
        started = cover.begin_batch()
        try:
            self._apply_delta_rows(u[adds].tolist(), pid[adds].tolist(),
                                   kind[adds].tolist())
            self._apply_delta_rows(u[removes].tolist(),
                                   pid[removes].tolist(),
                                   kind[removes].tolist())
            cover.remove_set(tuple_id)
        finally:
            cover.end_batch(started)
        if self._cover.solution_size() != self._r:
            self._update_m()

    def verify(self, *, deep: bool = False) -> None:
        """Self-check all maintained invariants; raises AssertionError.

        Cheap checks (always): the result is a set of alive tuples, the
        cover is a feasible *stable* cover (Definition 2), the active
        universe is exactly the prefix ``[0, m)``, and every active
        utility with a non-empty approximate top-k is covered by the
        result (the feasibility core of Theorem 2).

        ``deep=True`` additionally recomputes every ``Φ_{k,ε}`` and,
        above ``k`` tuples, every threshold ``τ_i`` from the raw
        database (O(M·n)) and compares — the full §II-A membership
        invariant, plus the threshold vector that filters insertions.
        Intended for tests and debugging, not hot paths.
        """
        result = set(self.result())
        for pid in sorted(result):
            assert pid in self._db, f"result tuple {pid} not alive"
        assert self._cover.is_cover(), "cover infeasible"
        assert self._cover.is_stable(), "cover violates Definition 2"
        if len(self._db) > 0:
            assert self._cover.universe == frozenset(range(self._m)), \
                "active universe is not the prefix [0, m)"
            for u_idx in range(self._m):
                members = set(self._topk.members_of(u_idx))
                assert not members or members & result, \
                    f"utility {u_idx} uncovered by the result"
        if not deep:
            return
        ids, pts = self._db.snapshot()
        for u_idx in range(self._m_max):
            u = self._topk.utility(u_idx)
            members = set(self._topk.members_of(u_idx))
            scores = pts @ u
            if ids.size <= self._k:
                # The stored τ is not checked here: insertions up to
                # |P| = k + 1 reach every utility without reading it,
                # and a deletion down to |P| <= k leaves the τ of the
                # utilities it did not repair as it was.
                tau = 0.0
            else:
                kth = float(np.partition(scores, ids.size - self._k)
                            [ids.size - self._k])
                tau = (1.0 - self._eps) * kth
                stored = self._topk.threshold(u_idx)
                assert abs(stored - tau) <= SCORE_TOL, (
                    f"threshold drift at utility {u_idx}: stored "
                    f"{stored!r}, recomputed {tau!r}")
            if ids.size == 0:
                assert members == set()
                continue
            expect = {int(ids[row])
                      for row in np.flatnonzero(scores >= tau - SCORE_TOL)}
            for pid in sorted(members ^ expect):
                score = float(self._db.point(pid) @ u)
                assert abs(score - tau) < 1e-9, (
                    f"membership drift at utility {u_idx}, tuple {pid}")

    def update(self, tuple_id: int, point: ArrayLike) -> int:
        """Process a value update as deletion + insertion (§II-B).

        Returns the new tuple id of the updated tuple (ids are never
        reused, so the tuple gets a fresh identity).
        """
        self.delete(tuple_id)
        return self.insert(point)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prefix_system(self, m: int) -> tuple[AnyArray, AnyArray,
                                              AnyArray]:
        """Set system restricted to the first ``m`` utilities, as the
        CSR ``(sids, lens, elems)`` that :meth:`StableSetCover.build_arrays`
        installs.

        A set's elements are its utilities, ascending. The set order is
        part of the engine's determinism contract (the stable cover is
        history-dependent): each tuple in order of its first appearance
        in the utility-major scan of the members ascending by (score,
        id), i.e. sorted by (first utility, stored score there, id).
        """
        lens, pids, scores = self._topk.member_rows(m)
        utils = np.repeat(np.arange(m), lens)
        # Stable by pid: each tuple's utilities stay ascending.
        by_pid = np.argsort(pids, kind="stable")
        pids, utils = pids[by_pid], utils[by_pid]
        ptr = np.r_[np.flatnonzero(np.r_[True, pids[1:] != pids[:-1]]),
                    pids.size]
        starts = ptr[:-1]
        key = np.lexsort((pids[starts], scores[by_pid[starts]],
                          utils[starts]))
        elems = utils[_row_positions(ptr, key)]
        return pids[starts[key]], np.diff(ptr)[key], elems

    def _initialize(self) -> int:
        """Algorithm 2: binary search ``m`` so the greedy cover has r sets.

        Probe sizes come from :func:`greedy_prefix_sizer` over the raw
        member-id arrays — the same kernel and selection rule as the
        stateful greedy, without building any membership state; the
        pool's pairs are ranked and sorted set-major once, and each
        probe masks its prefix — so only the final chosen ``m`` pays for
        a cover construction, installed from :meth:`_prefix_system`'s
        arrays.
        """
        probe = greedy_prefix_sizer(
            [self._topk.member_row(u) for u in range(self._m_max)])
        lo, hi = self._r, self._m_max
        chosen_m: int | None = None
        fallback: tuple[int, int] | None = None  # (size distance, m)
        while lo <= hi:
            m = (lo + hi) // 2
            size = probe(m)
            dist = abs(size - self._r)
            if fallback is None or dist < fallback[0] or \
                    (dist == fallback[0] and m > fallback[1]):
                fallback = (dist, m)
            if size == self._r or m == self._m_max:
                chosen_m = m
                break
            if size < self._r:
                lo = m + 1
            else:
                hi = m - 1
        if chosen_m is None:
            chosen_m = fallback[1] if fallback is not None else self._r
        self._cover = StableSetCover()
        self._cover.build_arrays(*self._prefix_system(chosen_m))
        return chosen_m

    def _rebuild_cover(self) -> None:
        """Fresh greedy cover over the active prefix (edge-case path)."""
        self._stats["cover_rebuilds"] += 1
        self._cover = StableSetCover()
        sids, lens, elems = self._prefix_system(self._m)
        if sids.size:
            self._cover.build_arrays(sids, lens, elems)

    def _apply_delta_rows(self, us: list[int], ps: list[int],
                          ks: list[int]) -> None:
        """Feed ordered (elem, set, kind) delta rows to the cover.

        The top-k maintainer emits deltas in natural runs — one tuple
        joining many utilities (an insertion's reach), or one utility
        gaining/losing many tuples (evictions and repairs) — so the
        scan hands each maximal run to the cover's bulk operation
        instead of one σ at a time. Must be called inside a cover
        batch; run grouping does not change the result (insertions make
        no assignment decisions, and a removal run reassigns its
        element once at the end, which is the documented group
        semantics).
        """
        cover = self._cover
        n = len(us)
        i = 0
        while i < n:
            k0, u0, p0 = ks[i], us[i], ps[i]
            j = i + 1
            if j < n and ks[j] == k0 and ps[j] == p0 and us[j] != u0:
                while j < n and ks[j] == k0 and ps[j] == p0:
                    j += 1
                if k0 > 0:
                    cover.add_elems_to_set(us[i:j], p0)
                else:
                    for u_idx in us[i:j]:
                        cover.remove_from_set(u_idx, p0)
                i = j
                continue
            while j < n and ks[j] == k0 and us[j] == u0:
                j += 1
            if k0 > 0:
                cover.add_elem_to_sets(u0, ps[i:j])
            else:
                cover.remove_elem_from_sets(u0, ps[i:j])
            i = j

    def _apply_deltas(self, log: DeltaLog) -> None:
        """Translate top-k membership deltas into Algorithm 1 operations.

        One operation's delta burst runs as a single cover batch, so the
        violation queue is drained once at the end instead of after
        every σ.
        """
        u, pid, kind = log.columns()
        if u.size == 0:
            return
        keep = u < self._m
        u, pid, kind = u[keep], pid[keep], kind[keep]
        cover = self._cover
        started = cover.begin_batch()
        try:
            adds = kind > 0
            add_pids = pid[adds]
            if add_pids.size and (add_pids == add_pids[0]).all():
                # Insert-shaped burst: every addition is the new tuple
                # joining its reached utilities. Additions commute with
                # the eviction removals under a deferred stabilize
                # (removals read only levels and φ, which additions
                # never touch; each utility's own addition already
                # precedes its evictions in the log), so the whole
                # reach is installed with one vectorized call.
                cover.add_elems_to_set(u[adds].tolist(), int(add_pids[0]))
                rem = ~adds
                self._apply_delta_rows(u[rem].tolist(), pid[rem].tolist(),
                                       kind[rem].tolist())
            else:
                self._apply_delta_rows(u.tolist(), pid.tolist(),
                                       kind.tolist())
        finally:
            cover.end_batch(started)

    def _update_m(self) -> None:
        """Algorithm 4: resize the active utility prefix until |C| = r."""
        m_before = self._m
        while self._cover.solution_size() < self._r and self._m < self._m_max:
            u_idx = self._m
            members = self._topk.members_of(u_idx)
            if not members:
                break  # database empty; nothing to cover with
            self._cover.add_element(u_idx, members)
            self._m += 1
        while self._cover.solution_size() > self._r and self._m > self._r:
            self._m -= 1
            self._cover.remove_element(self._m)
        if self._m != m_before:
            self._stats["m_changes"] += 1
