"""Unit tests for regret computation, incl. the paper's worked examples."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.regret import (
    RegretEvaluator,
    k_regret_ratio,
    max_k_regret_ratio_sampled,
    max_regret_ratio_lp,
)


class TestPaperExample1:
    """Example 1 of §II-A on the Fig. 1 database."""

    def test_top2_of_u1(self, paper_points):
        u1 = np.array([0.42, 0.91])
        order = np.argsort(-(paper_points @ u1), kind="stable")
        assert set(order[:2].tolist()) == {0, 1}          # {p1, p2}

    def test_top2_of_u2(self, paper_points):
        u2 = np.array([0.91, 0.42])
        order = np.argsort(-(paper_points @ u2), kind="stable")
        assert set(order[:2].tolist()) == {1, 3}          # {p2, p4}

    def test_rr2_of_q1(self, paper_points):
        u1 = np.array([0.42, 0.91])
        q1 = paper_points[[2, 3]]                         # {p3, p4}
        rr = k_regret_ratio(u1, paper_points, q1, k=2)
        assert rr == pytest.approx(1 - 0.749 / 0.98, abs=1e-3)

    def test_mrr2_of_q1_attained_at_e_y(self, paper_points):
        q1 = paper_points[[2, 3]]
        rr_ey = k_regret_ratio(np.array([0.0, 1.0]), paper_points, q1, k=2)
        assert rr_ey == pytest.approx(1 - 5.0 / 9.0, abs=1e-9)
        mrr = max_k_regret_ratio_sampled(paper_points, q1, k=2,
                                         n_samples=40_000, seed=0)
        assert mrr == pytest.approx(rr_ey, abs=5e-3)

    def test_q2_is_2_0_regret_set(self, paper_points):
        q2 = paper_points[[0, 1, 3]]                      # {p1, p2, p4}
        mrr = max_k_regret_ratio_sampled(paper_points, q2, k=2,
                                         n_samples=40_000, seed=0)
        assert mrr == pytest.approx(0.0, abs=1e-9)


class TestPaperExample2:
    def test_rms_2_2_value_of_p1_p4(self, paper_points):
        """Example 2 reports mrr2({p1, p4}) = ε*_{2,2} ≈ 0.05."""
        val = max_k_regret_ratio_sampled(paper_points, paper_points[[0, 3]],
                                         k=2, n_samples=40_000, seed=1)
        assert val == pytest.approx(0.05, abs=0.015)

    def test_rms_2_2_optimum_at_most_paper_value(self, paper_points):
        """The true optimum is at most the paper's ≈0.05.

        (Exhaustive search actually finds {p4, p7} marginally better
        (~0.047) than the paper's {p1, p4}; Example 2 appears to round.
        We therefore assert the optimal value, not the argmin identity.)
        """
        from itertools import combinations
        best_val = 2.0
        for combo in combinations(range(8), 2):
            val = max_k_regret_ratio_sampled(paper_points,
                                             paper_points[list(combo)], k=2,
                                             n_samples=20_000, seed=1)
            best_val = min(best_val, val)
        assert best_val <= 0.055


class TestKRegretRatio:
    def test_zero_when_q_contains_top(self, paper_points):
        u = np.array([1.0, 0.0])
        assert k_regret_ratio(u, paper_points, paper_points[[3]]) == 0.0

    def test_k_larger_than_db(self, paper_points):
        u = np.array([1.0, 0.0])
        val = k_regret_ratio(u, paper_points, paper_points[[0]], k=100)
        # ω_100 degrades to the min score (0.2); Q scores 0.2 → regret 0.
        assert val == pytest.approx(0.0)

    def test_monotone_in_k(self, paper_points, rng):
        u = rng.random(2)
        q = paper_points[[4]]
        vals = [k_regret_ratio(u, paper_points, q, k=k) for k in (1, 2, 3, 4)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_score_guard(self):
        p = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert k_regret_ratio(np.array([1.0, 0.0]), p, p[[0]]) == 0.0


class TestSampledVsLp:
    def test_sampled_lower_bounds_lp(self, tiny_cloud):
        q = tiny_cloud[:5]
        lp = max_regret_ratio_lp(tiny_cloud, q)
        mc = max_k_regret_ratio_sampled(tiny_cloud, q, 1,
                                        n_samples=50_000, seed=0)
        assert mc <= lp + 1e-9
        assert mc == pytest.approx(lp, abs=0.02)

    def test_lp_prefilter_matches_full_scan(self, tiny_cloud):
        q = tiny_cloud[:6]
        assert max_regret_ratio_lp(tiny_cloud, q, prefilter="hull") == \
            pytest.approx(max_regret_ratio_lp(tiny_cloud, q, prefilter="none"),
                          abs=1e-6)

    def test_unknown_prefilter(self, tiny_cloud):
        with pytest.raises(ValueError):
            max_regret_ratio_lp(tiny_cloud, tiny_cloud[:2], prefilter="x")

    def test_full_set_has_zero_regret(self, tiny_cloud):
        assert max_regret_ratio_lp(tiny_cloud, tiny_cloud) == \
            pytest.approx(0.0, abs=1e-9)


class TestEvaluator:
    def test_frozen_testset_reproducible(self, small_cloud):
        ev1 = RegretEvaluator(4, n_samples=2000, seed=5)
        ev2 = RegretEvaluator(4, n_samples=2000, seed=5)
        q = small_cloud[:8]
        assert ev1.evaluate(small_cloud, q) == ev2.evaluate(small_cloud, q)

    def test_includes_basis(self):
        ev = RegretEvaluator(3, n_samples=10, seed=0)
        assert np.allclose(ev.utilities[:3], np.eye(3))
        assert ev.n_samples == 10

    def test_monotone_in_q(self, small_cloud):
        ev = RegretEvaluator(4, n_samples=3000, seed=0)
        small = ev.evaluate(small_cloud, small_cloud[:3])
        large = ev.evaluate(small_cloud, small_cloud[:30])
        assert large <= small + 1e-12

    def test_n_samples_validation(self):
        with pytest.raises(ValueError):
            RegretEvaluator(5, n_samples=3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500), nq=st.integers(1, 8))
@example(seed=318, nq=1)
@example(seed=397, nq=1)
def test_regret_bounds_property(seed, nq):
    """mrr is in [0, 1] and adding tuples never increases it."""
    rng = np.random.default_rng(seed)
    pts = rng.random((30, 3))
    q1 = pts[:nq]
    q2 = pts[:nq + 3]
    utils = rng.random((200, 3)) + 1e-6
    utils /= np.linalg.norm(utils, axis=1, keepdims=True)
    m1 = max_k_regret_ratio_sampled(pts, q1, 1, utilities=utils)
    m2 = max_k_regret_ratio_sampled(pts, q2, 1, utilities=utils)
    assert 0.0 <= m2 <= m1 <= 1.0


class TestCachedTestSets:
    def test_default_sample_reused_across_calls(self, rng):
        from repro.core.regret import cached_test_utilities
        a = cached_test_utilities(500, 3, seed=7)
        b = cached_test_utilities(500, 3, seed=7)
        assert a is b
        assert not a.flags.writeable
        # Different shape/seed → different draw.
        c = cached_test_utilities(500, 3, seed=8)
        assert c is not a

    def test_generator_seed_bypasses_cache(self):
        from repro.core.regret import cached_test_utilities
        g = np.random.default_rng(0)
        a = cached_test_utilities(100, 3, seed=g)
        b = cached_test_utilities(100, 3, seed=g)
        assert a is not b

    def test_evaluators_share_one_frozen_sample(self):
        e1 = RegretEvaluator(4, n_samples=300, seed=11)
        e2 = RegretEvaluator(4, n_samples=300, seed=11)
        assert e1.utilities is e2.utilities
        assert np.allclose(e1.utilities[:4], np.eye(4))

    def test_sampled_estimator_stable_across_snapshots(self, rng):
        """Same implicit test set → identical estimates for equal inputs."""
        pts = rng.random((40, 3))
        a = max_k_regret_ratio_sampled(pts, pts[:5], n_samples=400, seed=3)
        b = max_k_regret_ratio_sampled(pts, pts[:5], n_samples=400, seed=3)
        assert a == b
