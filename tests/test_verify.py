"""Tests for FDRMS.verify() — the public self-check."""

import pytest

from repro.core.fdrms import FDRMS
from repro.data import Database


class TestVerify:
    def test_passes_after_construction(self, small_cloud):
        db = Database(small_cloud)
        algo = FDRMS(db, 1, 8, 0.05, m_max=64, seed=0)
        algo.verify(deep=True)

    def test_passes_after_churn(self, small_cloud, rng):
        db = Database(small_cloud)
        algo = FDRMS(db, 2, 8, 0.05, m_max=64, seed=0)
        for _ in range(60):
            if rng.random() < 0.5:
                algo.insert(rng.random(4))
            else:
                alive = db.ids()
                algo.delete(int(alive[rng.integers(alive.size)]))
        algo.verify(deep=True)

    def test_detects_corrupted_cover(self, small_cloud):
        db = Database(small_cloud)
        algo = FDRMS(db, 1, 8, 0.05, m_max=64, seed=0)
        # Sabotage: steal an element's assignment record.
        cover = algo._cover
        elem = next(iter(cover.universe))
        cover._phi[elem] = -1
        with pytest.raises(AssertionError):
            algo.verify()

    def test_detects_corrupted_membership(self, small_cloud):
        db = Database(small_cloud)
        algo = FDRMS(db, 1, 8, 0.05, m_max=64, seed=0)
        # Sabotage the top-k structures behind verify's back.
        topk = algo._topk
        victim = None
        for i in range(topk.pool_size):
            members = topk.members_of(i)
            if members:
                victim = (i, members[0])
                break
        assert victim is not None
        i, pid = victim
        topk._store.remove(i, pid)
        with pytest.raises(AssertionError):
            algo.verify(deep=True)

    def test_detects_corrupted_threshold(self, small_cloud):
        db = Database(small_cloud)
        algo = FDRMS(db, 2, 8, 0.05, m_max=64, seed=0)
        # Nudge one threshold without touching its member set: only the
        # threshold check can see it.
        algo._topk._tau[5] += 1e-6
        with pytest.raises(AssertionError, match="threshold drift"):
            algo.verify(deep=True)

    def test_empty_database_ok(self):
        db = Database(d=3)
        algo = FDRMS(db, 1, 3, 0.05, m_max=16, seed=0)
        algo.verify(deep=True)
