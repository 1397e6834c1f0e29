"""Regret-ratio computation and estimation.

Implements the quantities of §II-A:

* ``rr_k(u, Q)`` — the k-regret ratio of ``Q`` over ``P`` for one
  utility vector (:func:`k_regret_ratio`);
* ``mrr_k(Q) = max_u rr_k(u, Q)`` — estimated over a large random
  utility sample, exactly as the paper's evaluation does with 500 K test
  vectors (:func:`max_k_regret_ratio_sampled`, :class:`RegretEvaluator`);
* an **exact** LP-based ``mrr_1`` for ``k = 1``
  (:func:`max_regret_ratio_lp`), used by tests to validate the sampled
  estimator and by the LP-driven baselines.

All sampled estimators are vectorized and batched so that ``n × m``
score matrices never exceed a bounded memory footprint.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro._types import FloatArray, SeedLike
from repro.geometry.hull import extreme_points
from repro.geometry.lp import worst_case_ratio
from repro.geometry.sampling import sample_utilities
from repro.utils import as_point_matrix, check_k, resolve_rng

# ----------------------------------------------------------------------
# Cached utility test sets. The paper's measurement protocol evaluates
# every snapshot/algorithm against the SAME large random test set, so
# re-drawing a fresh sample per call both wastes the dominant share of
# evaluation time and makes estimates incomparable. Draws requested with
# a reproducible seed (None or an int — not a stateful Generator) are
# memoized here and shared across calls.
# ----------------------------------------------------------------------

_SAMPLE_CACHE: dict[tuple[int, int, int | None, bool], FloatArray] = {}
_SAMPLE_CACHE_MAX = 8


def cached_test_utilities(n_samples: int, d: int, seed: SeedLike = None, *,
                          with_basis: bool = False) -> FloatArray:
    """A memoized utility test set of ``n_samples`` vectors in ``d`` dims.

    ``with_basis=True`` prefixes the ``d`` standard basis vectors (which
    catch single-attribute regret exactly), drawing ``n_samples - d``
    random directions. Passing a stateful ``numpy.random.Generator`` as
    ``seed`` bypasses the cache (the draw is not reproducible).
    """
    key_seed: int | None | bool
    if seed is None:
        key_seed = None
    elif isinstance(seed, (int, np.integer)):
        key_seed = int(seed)
    else:
        key_seed = False  # stateful generator: not cacheable
    if key_seed is not False:
        key = (int(n_samples), int(d), key_seed, bool(with_basis))
        hit = _SAMPLE_CACHE.get(key)
        if hit is not None:
            return hit
    if with_basis:
        utilities = np.vstack([
            np.eye(d),
            sample_utilities(n_samples - d, d, seed=resolve_rng(seed)),
        ])
    else:
        utilities = sample_utilities(n_samples, d, seed=resolve_rng(seed))
    utilities.flags.writeable = False
    if key_seed is not False:
        if len(_SAMPLE_CACHE) >= _SAMPLE_CACHE_MAX:
            _SAMPLE_CACHE.pop(next(iter(_SAMPLE_CACHE)))
        _SAMPLE_CACHE[key] = utilities
    return utilities


def k_regret_ratio(u: ArrayLike, points_p: ArrayLike, points_q: ArrayLike,
                   k: int = 1) -> float:
    """Exact ``rr_k(u, Q)`` for a single utility vector.

    ``rr_k(u, Q) = max(0, 1 - ω(u, Q) / ω_k(u, P))``. When ``P`` holds
    fewer than ``k`` tuples, the k-th best score degrades to the minimum
    (every tuple is a top-k tuple). A nonpositive ``ω_k`` yields 0 — no
    utility can regret a score that is not positive.
    """
    p = as_point_matrix(points_p, name="points_p")
    q = as_point_matrix(points_q, name="points_q")
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    k = check_k(k)
    sp = p @ u
    kth = float(np.partition(sp, -min(k, sp.size))[-min(k, sp.size)])
    if kth <= 0.0:
        return 0.0
    best = float(np.max(q @ u))
    return float(max(0.0, 1.0 - best / kth))


def max_k_regret_ratio_sampled(points_p: ArrayLike, points_q: ArrayLike,
                               k: int = 1, *,
                               n_samples: int = 100_000,
                               seed: SeedLike = None,
                               batch: int = 2048,
                               utilities: ArrayLike | None = None) -> float:
    """Monte-Carlo estimate of ``mrr_k(Q)`` over ``n_samples`` utilities.

    This mirrors the paper's measurement protocol (§IV-A): draw a large
    test set of random utility vectors and report the maximum observed
    k-regret ratio. Pass ``utilities`` to pin an explicit test set;
    without one, the draw for a given ``(n_samples, d, seed)`` is cached
    and **reused across calls** (snapshots of a stream, competing
    algorithms), so repeated estimates are mutually comparable and skip
    the re-draw. Pass a stateful Generator as ``seed`` to force a fresh
    draw.
    """
    p = as_point_matrix(points_p, name="points_p")
    q = as_point_matrix(points_q, name="points_q")
    if p.shape[1] != q.shape[1]:
        raise ValueError("points_p and points_q must share dimensionality")
    k = check_k(k)
    if utilities is None:
        utilities = cached_test_utilities(n_samples, p.shape[1], seed)
    else:
        utilities = np.asarray(utilities, dtype=np.float64)
    worst = 0.0
    n = p.shape[0]
    kk = min(k, n)
    for start in range(0, utilities.shape[0], batch):
        block = utilities[start:start + batch]
        sp = p @ block.T                     # (n, b)
        kth = np.partition(sp, n - kk, axis=0)[n - kk]
        # einsum, not GEMM: BLAS picks its kernel by the row count of
        # q, so a row's dot products could differ in the last ulp
        # between two Q sets, and adding tuples could raise the ratio.
        best = np.einsum("qd,bd->qb", q, block).max(axis=0)  # (b,)
        with np.errstate(divide="ignore", invalid="ignore"):
            rr = 1.0 - np.divide(best, kth, out=np.ones_like(best),
                                 where=kth > 0)
        rr[kth <= 0] = 0.0
        block_worst = float(rr.max(initial=0.0))
        if block_worst > worst:
            worst = block_worst
    return float(np.clip(worst, 0.0, 1.0))


def max_regret_ratio_lp(points_p: ArrayLike, points_q: ArrayLike, *,
                        prefilter: str = "hull",
                        seed: SeedLike = None) -> float:
    """Exact ``mrr_1(Q)`` via one LP per candidate tuple (k = 1 only).

    The maximum over utilities of ``1 - ω(u, Q)/ω(u, P)`` equals the
    maximum over tuples ``p ∈ P`` of the LP value
    ``max_u {1 - ω(u, Q) : <u, p> = 1, u >= 0}`` — see
    :func:`repro.geometry.lp.worst_case_ratio`. Since only tuples that
    are top-1 for some direction can attain the maximum, candidates are
    pre-filtered to the convex-hull extremes by default
    (``prefilter='none'`` scans everything; ``'hull'`` is exact).
    """
    p = as_point_matrix(points_p, name="points_p")
    q = as_point_matrix(points_q, name="points_q")
    if prefilter == "hull":
        candidates = p[extreme_points(p, seed=seed)]
    elif prefilter == "none":
        candidates = p
    else:
        raise ValueError(f"unknown prefilter {prefilter!r}")
    worst = 0.0
    for row in candidates:
        value = worst_case_ratio(row, q)
        if value > worst:
            worst = value
    return float(worst)


class RegretEvaluator:
    """A fixed utility test set for consistent ``mrr_k`` comparisons.

    The paper evaluates every recorded result against the *same* 500 K
    random utility vectors; this class freezes such a test set so that
    different algorithms and snapshots are measured identically.

    Parameters
    ----------
    d : int
        Dimensionality.
    n_samples : int
        Size of the test set (includes the ``d`` basis vectors, which
        catch single-attribute regret exactly).
    seed : int | Generator | None
    """

    def __init__(self, d: int, *, n_samples: int = 100_000,
                 seed: SeedLike = None) -> None:
        if n_samples < d:
            raise ValueError(f"n_samples must be >= d, got {n_samples}")
        # The drawn test set is cached module-wide: building evaluators
        # with the same (d, n_samples, seed) — e.g. one per snapshot or
        # per solve() call — shares one frozen sample.
        self._utilities = cached_test_utilities(n_samples, d, seed,
                                                with_basis=True)
        self._d = d

    @property
    def utilities(self) -> FloatArray:
        return self._utilities

    @property
    def n_samples(self) -> int:
        return self._utilities.shape[0]

    def evaluate(self, points_p: ArrayLike, points_q: ArrayLike,
                 k: int = 1) -> float:
        """Estimated ``mrr_k`` of ``Q`` over ``P`` on the frozen test set."""
        return max_k_regret_ratio_sampled(
            points_p, points_q, k, utilities=self._utilities)
