"""Ablation — value of the incremental top-k indexes (§III-C).

FD-RMS prunes top-k maintenance with the threshold vector (insertions:
only utilities with ``<u_i, p> >= τ_i`` are touched) and the ``S(p)``
inverted index (deletions: only the utilities that lost a top-k tuple
are rescanned). The ablation measures
the naive alternative: refresh every utility's approximate top-k by a
full scan on every update.

Expected shape: the indexed maintainer touches a small fraction of the
utilities per update and wins by a growing margin as M rises.
"""

import time

import numpy as np

from repro.core.topk import ApproxTopKIndex
from repro.data import Database
from repro.data.synthetic import independent_points
from repro.geometry.sampling import sample_utilities_with_basis

from _common import CFG, emit


def _brute_refresh(db, utilities, k, eps):
    """Naive Φ_{k,ε} for every utility by full scan (the ablation)."""
    ids, pts = db.snapshot()
    out = []
    n = ids.shape[0]
    if n == 0:
        return [set() for _ in range(utilities.shape[0])]
    scores = pts @ utilities.T
    kk = min(k, n)
    kth = np.partition(scores, n - kk, axis=0)[n - kk]
    taus = np.where(n <= k, 0.0, (1.0 - eps) * kth)
    for col in range(utilities.shape[0]):
        out.append({int(ids[row]) for row in
                    np.flatnonzero(scores[:, col] >= taus[col])})
    return out


def test_ablation_dualtree_vs_scan(benchmark):
    n = min(CFG["n"], 1500)
    m = min(CFG["m_max"], 512)
    k, eps = 1, 0.05
    rng = np.random.default_rng(70)
    points = independent_points(n, 4, seed=71)
    utilities = sample_utilities_with_basis(m, 4, seed=72)

    def run():
        db = Database(points[: n // 2])
        index = ApproxTopKIndex(db, utilities, k, eps)
        ops = []
        for row in range(n // 2, n):
            ops.append(("+", points[row]))
        for _ in range(n // 4):
            ops.append(("-", None))
        # Indexed maintenance.
        t0 = time.perf_counter()
        victims = []
        for kind, payload in ops:
            if kind == "+":
                index.insert(payload)
            else:
                ids = db.ids()
                victim = int(ids[rng.integers(ids.size)])
                victims.append(victim)
                index.delete(victim)
        t_indexed = time.perf_counter() - t0

        # Naive full-scan maintenance over the same logical stream.
        db2 = Database(points[: n // 2])
        _brute_refresh(db2, utilities, k, eps)
        t0 = time.perf_counter()
        vi = iter(victims)
        for kind, payload in ops:
            if kind == "+":
                db2.insert(payload)
            else:
                db2.delete(next(vi))
            _brute_refresh(db2, utilities, k, eps)
        t_scan = time.perf_counter() - t0
        return t_indexed, t_scan, len(ops)

    t_indexed, t_scan, n_ops = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("ablation_index", "\n".join([
        f"dual-tree indexed: {1000 * t_indexed / n_ops:9.3f} ms/op",
        f"full-scan refresh: {1000 * t_scan / n_ops:9.3f} ms/op",
        f"speedup: {t_scan / max(t_indexed, 1e-9):.1f}x (M={m}, n={n})",
    ]))
    assert t_indexed < t_scan, "indexes must beat full rescans"
