"""Top-k repair by scan on engines above 16,384 alive tuples.

Every top-k repair is one GEMM scan of the alive tuples, at every
database size. Until 4.0.0 a k-d tree served the repairs above 16,384
alive tuples, so these tests start their engines above that size: the
path every served tenant takes keeps engine-level coverage. The old
checkpoint fixture pins that checkpoints written with the tree's
``kd_*`` arrays still load, verify and re-save without them.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.fdrms import FDRMS
from repro.data.database import DELETE, INSERT, Database, Operation
from repro.persist.checkpoint import load_checkpoint, save_checkpoint

OLD_CHECKPOINT = Path(__file__).parent / "fixtures" / "ckpt_v1_kdtree"


def _delete_heavy_ops(pts, n_ops, rng):
    """Deletions of each axis's best tuples (top-k losses), 1 in 10 an insert.

    Victims come round-robin from the per-coordinate rankings, best
    first, so each deletion takes a top-1 tuple of a basis utility and
    forces a repair scan.
    """
    d = pts.shape[1]
    rankings = [np.argsort(-pts[:, j], kind="stable") for j in range(d)]
    taken, victims, pos = set(), [], [0] * d
    while len(victims) < n_ops:
        j = len(victims) % d
        while int(rankings[j][pos[j]]) in taken:
            pos[j] += 1
        pid = int(rankings[j][pos[j]])
        taken.add(pid)
        victims.append(pid)
    ops = []
    for t, pid in enumerate(victims):
        if t % 10 == 9:
            ops.append(Operation(INSERT, rng.random(d)))
        else:
            ops.append(Operation(DELETE, pts[pid], pid))
    return ops


def test_large_engine_single_op_matches_batched():
    rng = np.random.default_rng(11)
    pts = rng.random((20_000, 4))
    ops = _delete_heavy_ops(pts, 240, rng)

    def engine():
        return FDRMS(Database(pts), 2, 8, 0.1, m_max=64, seed=1)

    single, batched = engine(), engine()
    assert len(single.database) > 16_384
    taus_before = np.array([single._topk.threshold(i) for i in range(64)])
    for op in ops:
        if op.kind == INSERT:
            single.insert(op.point)
        else:
            single.delete(op.tuple_id)
    for start in range(0, len(ops), 60):
        batched.apply_batch(ops[start:start + 60])

    taus_after = np.array([single._topk.threshold(i) for i in range(64)])
    assert (taus_after < taus_before).sum() >= 4  # repairs lowered τ
    assert batched.result() == single.result()
    assert batched.statistics() == single.statistics()
    for i in range(64):
        assert np.array_equal(batched._topk.member_row(i),
                              single._topk.member_row(i)), i
    single.verify(deep=True)
    batched.verify(deep=True)


#: ``state_digest()`` of an n = 50k cold open plus a short batched churn
#: (every top-k repair a GEMM scan). Member scores and thresholds are
#: digested, so a change to how the engine computes a score — kernel,
#: orientation, chunking — moves this value in the last ulp.
GOLDEN_50K_DIGEST = (
    "6d03ba8ca476497df37021589f162e3228a5121b9c728f4bf05033a0f6641f5b")


def test_n50k_cold_open_and_churn_digest_is_pinned():
    rng = np.random.default_rng(5)
    pts = rng.random((50_000, 6))
    engine = FDRMS(Database(pts), 1, 10, 0.1, m_max=256, seed=0)
    ops = []
    for t in range(120):
        if t % 2:
            ops.append(Operation(INSERT, rng.random(6)))
        else:
            pid = engine.result()[0]
            ops.append(Operation(DELETE, engine.database.point(pid), pid))
            engine.apply_batch(ops)
            ops = []
    engine.apply_batch(ops)
    engine.verify(deep=True)
    assert engine.state_digest() == GOLDEN_50K_DIGEST


class TestOldCheckpoint:
    """A v1 checkpoint written by 3.x, with the k-d tree's arrays."""

    def test_loads_verifies_and_resaves_without_tree(self, tmp_path):
        engine, manifest = load_checkpoint(OLD_CHECKPOINT)
        assert [name for name in manifest["arrays"] if "kd_" in name]
        engine.verify(deep=True)
        assert engine.result() == [192, 200, 248]
        resaved = save_checkpoint(engine, tmp_path / "ckpt")
        assert not [name for name in resaved["arrays"] if "kd_" in name]
        assert resaved["state_digest"] == manifest["state_digest"]
        again, _ = load_checkpoint(tmp_path / "ckpt")
        assert again.state_digest() == manifest["state_digest"]

    @pytest.mark.parametrize("drive", ["single", "batched"])
    def test_restored_engine_keeps_repairing(self, drive):
        engine, _ = load_checkpoint(OLD_CHECKPOINT)
        victims = list(engine.result())
        if drive == "single":
            for pid in victims:
                engine.delete(pid)
        else:
            pts = engine.database
            engine.apply_batch([Operation(DELETE, pts.point(p), p)
                                for p in victims])
        engine.verify(deep=True)
        assert not set(victims) & set(engine.result())
