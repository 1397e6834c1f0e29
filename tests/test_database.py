"""Unit + property tests for the dynamic Database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.database import DELETE, INSERT, Database, Operation


class TestConstruction:
    def test_from_points(self, small_cloud):
        db = Database(small_cloud)
        assert len(db) == 300
        assert db.d == 4
        assert db.capacity == 300

    def test_empty_with_d(self):
        db = Database(d=3)
        assert len(db) == 0
        assert db.d == 3

    def test_requires_points_or_d(self):
        with pytest.raises(ValueError):
            Database()

    def test_d_mismatch(self):
        with pytest.raises(ValueError):
            Database(np.ones((2, 3)), d=4)


class TestInsertDelete:
    def test_ids_are_sequential(self):
        db = Database(d=2)
        assert db.insert([0.1, 0.2]) == 0
        assert db.insert([0.3, 0.4]) == 1
        assert db.insert([0.5, 0.6]) == 2

    def test_delete_keeps_other_ids(self):
        db = Database(np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]))
        db.delete(1)
        assert 0 in db and 2 in db and 1 not in db
        assert db.ids().tolist() == [0, 2]
        # A new insert gets a fresh id, never reusing 1.
        assert db.insert([0.4, 0.4]) == 3

    def test_delete_returns_value(self):
        db = Database(np.array([[0.7, 0.3]]))
        assert np.allclose(db.delete(0), [0.7, 0.3])

    def test_double_delete_raises(self):
        db = Database(np.array([[0.7, 0.3]]))
        db.delete(0)
        with pytest.raises(KeyError):
            db.delete(0)

    def test_insert_validates(self):
        db = Database(d=2)
        with pytest.raises(ValueError):
            db.insert([0.1])           # wrong d
        with pytest.raises(ValueError):
            db.insert([-0.1, 0.2])     # negative
        with pytest.raises(ValueError):
            db.insert([np.nan, 0.2])   # non-finite

    def test_growth_beyond_initial_capacity(self):
        db = Database(d=2)
        for i in range(100):
            db.insert([i / 100.0, 1.0 - i / 100.0])
        assert len(db) == 100
        assert db.ids().tolist() == list(range(100))


class TestAccessors:
    def test_point_and_points(self, small_cloud):
        db = Database(small_cloud)
        assert np.allclose(db.point(5), small_cloud[5])
        assert np.allclose(db.points([2, 7]), small_cloud[[2, 7]])

    def test_point_dead_raises(self):
        db = Database(np.array([[0.1, 0.1]]))
        db.delete(0)
        with pytest.raises(KeyError):
            db.point(0)
        with pytest.raises(KeyError):
            db.points([0])

    def test_snapshot_alignment(self, small_cloud):
        db = Database(small_cloud)
        db.delete(10)
        ids, pts = db.snapshot()
        assert ids.shape[0] == pts.shape[0] == 299
        row = int(np.flatnonzero(ids == 11)[0])
        assert np.allclose(pts[row], small_cloud[11])
        # The matrix is the caller's: writing to it leaves the db as is.
        pts[row] = -1.0
        assert np.array_equal(db.point(11), small_cloud[11])


class TestScoring:
    def test_top_k_matches_bruteforce(self, small_cloud, rng):
        db = Database(small_cloud)
        u = rng.random(4)
        ids, scores = db.top_k(u, 5)
        brute = np.argsort(-(small_cloud @ u), kind="stable")[:5]
        assert ids.tolist() == brute.tolist()
        assert np.allclose(scores, (small_cloud @ u)[brute])

    def test_top_k_tie_break_by_id(self):
        db = Database(np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]]))
        ids, _ = db.top_k(np.array([1.0, 0.0]), 3)
        assert ids.tolist() == [2, 0, 1]

    def test_kth_score(self, small_cloud, rng):
        db = Database(small_cloud)
        u = rng.random(4)
        sc = np.sort(small_cloud @ u)[::-1]
        assert db.kth_score(u, 3) == pytest.approx(sc[2])

    def test_kth_score_small_db(self):
        db = Database(np.array([[0.5, 0.5]]))
        assert db.kth_score(np.array([1.0, 0.0]), 10) == pytest.approx(0.5)

    def test_empty_db_scores(self):
        db = Database(d=2)
        ids, sc = db.scores(np.array([1.0, 0.0]))
        assert ids.size == 0 and sc.size == 0
        assert db.kth_score(np.array([1.0, 0.0]), 1) == 0.0


class TestOperations:
    def test_apply_insert(self):
        db = Database(d=2)
        op = Operation(INSERT, np.array([0.2, 0.8]))
        assert db.apply(op) == 0

    def test_apply_delete(self):
        db = Database(np.array([[0.2, 0.8]]))
        op = Operation(DELETE, np.array([0.2, 0.8]), tuple_id=0)
        assert db.apply(op) == 0
        assert len(db) == 0

    def test_delete_requires_id(self):
        db = Database(np.array([[0.2, 0.8]]))
        with pytest.raises(ValueError):
            db.apply(Operation(DELETE, np.array([0.2, 0.8])))

    def test_operation_kind_validated(self):
        with pytest.raises(ValueError):
            Operation("x", np.zeros(2))


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(),
                              st.floats(0.0, 1.0, allow_nan=False),
                              st.floats(0.0, 1.0, allow_nan=False)),
                    min_size=1, max_size=60))
def test_database_matches_reference_dict(ops):
    """Random insert/delete sequence vs a plain dict reference model."""
    db = Database(d=2)
    ref: dict[int, np.ndarray] = {}
    for is_insert, x, y in ops:
        if is_insert or not ref:
            pid = db.insert([x, y])
            ref[pid] = np.array([x, y])
        else:
            victim = sorted(ref)[len(ref) // 2]
            db.delete(victim)
            del ref[victim]
    assert len(db) == len(ref)
    assert db.ids().tolist() == sorted(ref)
    for pid, vec in ref.items():
        assert np.allclose(db.point(pid), vec)


class TestBulkAndViews:
    def test_points_fast_path_is_a_view(self, rng):
        """No-deletion databases expose points() without any copy."""
        pts = rng.random((50, 3))
        db = Database(pts)
        view = db.points()
        assert np.shares_memory(view, db._data)
        assert view.flags.c_contiguous and view.dtype == np.float64
        assert not view.flags.writeable
        assert np.array_equal(view, pts)

    def test_points_view_survives_growth(self, rng):
        db = Database(rng.random((4, 2)))
        view = db.points()
        for _ in range(40):  # force several storage reallocations
            db.insert([0.5, 0.5])
        assert view.shape == (4, 2)
        assert np.array_equal(view, db.points()[:4])

    def test_points_copy_path_after_delete(self, rng):
        db = Database(rng.random((10, 2)))
        db.delete(4)
        pts = db.points()
        assert pts.shape == (9, 2)
        assert not np.shares_memory(pts, db._data)

    def test_insert_many_assigns_sequential_ids(self, rng):
        db = Database(rng.random((5, 3)))
        ids = db.insert_many(rng.random((7, 3)))
        assert ids.tolist() == list(range(5, 12))
        assert len(db) == 12


class TestDeleteMany:
    def test_matches_repeated_delete(self, rng):
        pts = rng.random((20, 3))
        a, b = Database(pts), Database(pts)
        victims = [3, 17, 4, 9, 11, 0]
        values = a.delete_many(victims)
        expect = [b.delete(t) for t in victims]
        assert np.array_equal(values, np.asarray(expect))
        assert len(a) == len(b)
        assert a.ids().tolist() == b.ids().tolist()
        assert np.array_equal(a.points(), b.points())

    def test_tiny_batch_matches_repeated_delete(self, rng):
        pts = rng.random((10, 2))
        a, b = Database(pts), Database(pts)
        assert np.array_equal(a.delete_many([7, 2]),
                              np.asarray([b.delete(7), b.delete(2)]))
        assert a.ids().tolist() == b.ids().tolist()

    def test_empty_batch_is_noop(self, rng):
        db = Database(rng.random((5, 2)))
        out = db.delete_many([])
        assert out.shape == (0, 2)
        assert len(db) == 5

    @pytest.mark.parametrize("victims", [[1, 99], [1, 1], [2, -1]])
    def test_invalid_batch_is_atomic(self, rng, victims):
        db = Database(rng.random((6, 2)))
        with pytest.raises(KeyError):
            db.delete_many(victims)
        assert len(db) == 6  # nothing was deleted

    def test_dead_id_in_large_batch_is_atomic(self, rng):
        db = Database(rng.random((12, 2)))
        db.delete(5)
        with pytest.raises(KeyError, match="5"):
            db.delete_many([0, 1, 2, 3, 5, 6])
        assert len(db) == 11
