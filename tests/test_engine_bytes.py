"""Ceiling on the bytes one FD-RMS session holds, at one pinned config.

The set cover keeps its per-level counts ``|S ∩ A_j|`` as an int32
matrix with one row per level in use (at least 8), and its adjacency
rows carry no position maps. This pins both, structurally and as a
``tracemalloc`` ceiling on the session's current traced bytes. No
wall-clock bound: the figure is allocation, not time.
"""

import gc
import tracemalloc

import numpy as np

from repro.api.session import open_session
from repro.core.set_cover import _Adjacency
from repro.data import make_dataset
from repro.data.workload import make_skewed_workload

N0, R, K, EPS, M_MAX, N_OPS, STEP = 20_000, 20, 1, 0.1, 1024, 2_000, 64

#: Traced bytes held by the session below (Indep, n = 20k, d = 6,
#: M = 1024, k = 1, r = 20, then 2,000 ops in batches of 64), NumPy 2.4:
#: 21,515,505 with int64 counts grown by doubling and per-row position
#: maps; 13,970,885 with int32 counts sized to the levels in use and no
#: maps. The ceiling sits between the two.
ENGINE_BYTES_CEILING = 17_500_000


def test_session_bytes_and_cover_layout():
    pts = make_dataset("Indep", n=2 * N0, seed=0)
    wl = make_skewed_workload(pts, insert_fraction=0.5, n_operations=N_OPS,
                              seed=1)
    assert wl.initial.shape == (N0, 6)
    ops = wl.operations
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = open_session(wl.initial, R, k=K, algo="fd-rms", seed=0,
                               eps=EPS, m_max=M_MAX)
        for lo in range(0, len(ops), STEP):
            session.apply_batch(ops[lo:lo + STEP])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < ENGINE_BYTES_CEILING, held
    cover = session.engine._cover
    counts = cover._bucket_counts
    assert counts.dtype == np.int32
    top = max(int(cover._elem_level.max(initial=-1)),
              int(cover._level.max(initial=-1)))
    assert counts.shape[0] <= max(8, top + 1)
    assert cover._pending_mask.shape == counts.shape
    assert "_pos" not in _Adjacency.__slots__
    assert not hasattr(cover._owners, "_pos")
    session.close()
