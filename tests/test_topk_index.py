"""Unit + property tests for ε-approximate top-k maintenance.

The central invariant (§II-A):

    members[i] = { p alive : <u_i, p> >= (1-ε)·ω_k(u_i, P) }

must hold after every insertion and deletion, with τ = 0 while |P| <= k.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.topk as topk_mod
from repro.core.topk import ADD, REMOVE, ApproxTopKIndex
from repro.data.database import Database
from repro.geometry.sampling import sample_utilities_with_basis


def check_invariant(index: ApproxTopKIndex, db: Database) -> None:
    ids, pts = db.snapshot()
    for i in range(index.pool_size):
        u = index.utility(i)
        members = set(index.members_of(i))
        if ids.size == 0:
            assert members == set()
            continue
        scores = pts @ u
        if ids.size <= index.k:
            tau = 0.0
        else:
            tau = (1.0 - index.eps) * float(
                np.partition(scores, ids.size - index.k)[ids.size - index.k])
            assert abs(index.threshold(i) - tau) <= 1e-12, (i, tau)
        expect = {int(ids[j]) for j in np.flatnonzero(scores >= tau - 1e-12)}
        # Allow boundary tuples to differ only by floating error.
        sym = members ^ expect
        for pid in sym:
            score = float(db.point(pid) @ u)
            assert abs(score - tau) < 1e-9, (i, pid, score, tau)


def make_index(points, m=24, k=1, eps=0.05, seed=0):
    db = Database(points)
    utils = sample_utilities_with_basis(m, points.shape[1], seed=seed)
    return db, ApproxTopKIndex(db, utils, k, eps)


class TestBootstrap:
    def test_invariant_after_build(self, small_cloud):
        db, index = make_index(small_cloud)
        check_invariant(index, db)

    def test_inverted_index_consistency(self, small_cloud):
        db, index = make_index(small_cloud)
        for i in range(index.pool_size):
            for pid in index.members_of(i):
                assert i in index.sets_containing(pid)

    def test_multi_chunk_bootstrap(self, small_cloud, monkeypatch):
        # Large databases split the bootstrap GEMM into utility chunks
        # (BOOTSTRAP_CHUNK_ELEMS // n utilities each); shrink the chunk
        # so a small cloud takes that path: 300 points -> 5 per chunk.
        monkeypatch.setattr(topk_mod, "BOOTSTRAP_CHUNK_ELEMS", 1500)
        db, index = make_index(small_cloud, k=2)
        check_invariant(index, db)
        monkeypatch.undo()
        _, whole = make_index(small_cloud, k=2)
        for i in range(index.pool_size):
            assert index.members_of(i) == whole.members_of(i)

    @pytest.mark.parametrize("n, d, k, chunk_elems, copies", [
        (300, 2, 1, 300 * 13, 1),   # 13-utility chunks: 4 chunks of M=40
        (300, 2, 3, 300 * 13, 1),
        (300, 2, 3, 300 * 13, 3),   # every tuple thrice: tied top-k
        (300, 4, 1, 300 * 7, 1),
        (301, 4, 3, 301 * 7, 1),    # n not a multiple of k
        (3, 3, 5, 3 * 4, 1),        # n <= k: every tuple joins, tau = 0
    ])
    def test_bootstrap_matches_column_partition_bitwise(
            self, monkeypatch, n, d, k, chunk_elems, copies):
        # The scores, top-k rows and thresholds the bootstrap stores are
        # digested, so they must equal the (n, b) GEMM plus a full top-k
        # partition down each column, bit for bit, across chunk seams.
        # At d=2 and 13-wide chunks a (b, n) GEMM differs from it in the
        # last ulp with OpenBLAS's Haswell kernels, which this catches.
        monkeypatch.setattr(topk_mod, "BOOTSTRAP_CHUNK_ELEMS", chunk_elems)
        m, eps = 40, 0.05
        base = np.random.default_rng(n + d + k).random((n, d))
        pts0 = np.repeat(base, copies, axis=0)[:n]
        db, index = make_index(pts0, m=m, k=k, eps=eps)
        ids, pts = db.snapshot()
        u = np.ascontiguousarray(
            sample_utilities_with_basis(m, d, seed=0), dtype=np.float64)
        chunk = max(1, chunk_elems // n)
        assert m > 2 * chunk  # at least three chunks
        topk = np.full((m, k), -np.inf)
        taus = np.zeros(m)
        rows = []
        for start in range(0, m, chunk):
            scores = pts @ u[start:start + chunk].T  # (n, b)
            b = scores.shape[1]
            if n <= k:
                topk[start:start + b, k - n:] = np.sort(scores, axis=0).T
            else:
                part = np.partition(scores, range(n - k, n), axis=0)
                topk[start:start + b] = part[n - k:].T
                taus[start:start + b] = (1.0 - eps) * part[n - k]
            for col in range(b):
                hit = scores[:, col] >= taus[start + col]
                rows.append((ids[hit], scores[hit, col]))
        store = index._store
        for i, (want_ids, want_scores) in enumerate(rows):
            got_ids, got_scores = store.row(i)
            assert np.array_equal(got_ids, want_ids), i
            assert np.array_equal(got_scores, want_scores), i
            want_min = want_scores.min() if want_scores.size else np.inf
            assert store._min[i] == want_min, i
        assert np.array_equal(store._topk, topk)
        assert np.array_equal(index._tau, taus)
        for pid in ids.tolist():
            owners = [i for i, (row_ids, _) in enumerate(rows)
                      if pid in row_ids]
            assert store.owners(pid).tolist() == owners, pid

    def test_small_db_all_members(self, rng):
        pts = rng.random((3, 3))
        db, index = make_index(pts, k=5)
        for i in range(index.pool_size):
            assert set(index.members_of(i)) == {0, 1, 2}

    def test_k_and_eps_validation(self, small_cloud):
        db = Database(small_cloud)
        utils = sample_utilities_with_basis(8, 4, seed=0)
        with pytest.raises(ValueError):
            ApproxTopKIndex(db, utils, 0, 0.05)
        with pytest.raises(ValueError):
            ApproxTopKIndex(db, utils, 1, 0.0)


class TestFromState:
    def test_rejects_wrong_length_tau(self, small_cloud):
        db, index = make_index(small_cloud)
        state = index.export_state()
        state["cone_tau"] = state["cone_tau"][:-1]
        state["cone_active"] = state["cone_active"][:-1]
        with pytest.raises(ValueError, match="does not match this utility"):
            ApproxTopKIndex.from_state(state, db, index.k, index.eps)

    def test_rejects_mask_that_disagrees_with_tau(self, small_cloud):
        db, index = make_index(small_cloud)
        state = index.export_state()
        state["cone_active"] = state["cone_active"].copy()
        state["cone_active"][3] = False
        with pytest.raises(ValueError, match="isfinite"):
            ApproxTopKIndex.from_state(state, db, index.k, index.eps)


class TestInsert:
    def test_dominating_insert_joins_every_set(self, small_cloud):
        db, index = make_index(small_cloud)
        pid, deltas = index.insert(np.array([1.0, 1.0, 1.0, 1.0]))
        added_everywhere = {d.u_index for d in deltas
                            if d.kind == ADD and d.tuple_id == pid}
        assert added_everywhere == set(range(index.pool_size))
        check_invariant(index, db)

    def test_weak_insert_changes_nothing(self, small_cloud):
        db, index = make_index(small_cloud)
        _, deltas = index.insert(np.array([0.001, 0.001, 0.001, 0.001]))
        assert deltas == []
        check_invariant(index, db)

    def test_insert_can_evict(self, rng):
        # Points near the threshold get evicted when a strong point
        # raises ω_k.
        pts = rng.random((100, 3)) * 0.5
        db, index = make_index(pts, eps=0.02)
        _, deltas = index.insert(np.array([1.0, 1.0, 1.0]))
        assert any(d.kind == REMOVE for d in deltas)
        check_invariant(index, db)


class TestDelete:
    def test_delete_topk_tuple_rebuilds(self, small_cloud, rng):
        db, index = make_index(small_cloud)
        u0 = index.utility(4)  # a sampled (non-basis) utility
        ids, _ = db.top_k(u0, 1)
        deltas = index.delete(int(ids[0]))
        assert any(d.kind == REMOVE and d.tuple_id == int(ids[0])
                   for d in deltas)
        check_invariant(index, db)

    def test_delete_margin_tuple_cheap(self, small_cloud):
        db, index = make_index(small_cloud, eps=0.2)
        # Find a member that is not in the exact top-1 of any utility.
        all_top = set()
        for i in range(index.pool_size):
            ids, _ = db.top_k(index.utility(i), 1)
            all_top.add(int(ids[0]))
        margin = None
        for pid in range(len(db)):
            if pid not in all_top and index.sets_containing(pid):
                margin = pid
                break
        if margin is None:
            pytest.skip("no margin member in this draw")
        index.delete(margin)
        check_invariant(index, db)

    def test_delete_to_empty(self, rng):
        pts = rng.random((3, 2))
        db, index = make_index(pts, m=6)
        for pid in range(3):
            index.delete(pid)
        assert len(db) == 0
        for i in range(index.pool_size):
            assert index.members_of(i) == []

    def test_deltas_describe_exact_membership_change(self, small_cloud):
        db, index = make_index(small_cloud)
        before = {i: set(index.members_of(i)) for i in range(index.pool_size)}
        ids, _ = db.top_k(index.utility(0), 1)
        deltas = index.delete(int(ids[0]))
        after = {i: set(index.members_of(i)) for i in range(index.pool_size)}
        replay = {i: set(before[i]) for i in before}
        for d in deltas:
            if d.kind == ADD:
                replay[d.u_index].add(d.tuple_id)
            else:
                replay[d.u_index].discard(d.tuple_id)
        assert replay == after


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300), k=st.integers(1, 3),
       n_ops=st.integers(1, 25))
def test_random_ops_preserve_invariant(seed, k, n_ops):
    rng = np.random.default_rng(seed)
    pts = rng.random((20, 3))
    db = Database(pts)
    utils = sample_utilities_with_basis(10, 3, seed=seed + 1)
    index = ApproxTopKIndex(db, utils, k, 0.08)
    for _ in range(n_ops):
        alive = db.ids()
        if alive.size <= k + 1 or rng.random() < 0.55:
            index.insert(rng.random(3))
        else:
            index.delete(int(alive[rng.integers(alive.size)]))
        check_invariant(index, db)
