"""Swap-removal order of the set cover's adjacency rows.

Owner-row order is physical but history-dependent, and checkpoints
store it (``_Adjacency.export_rows``): for checkpoints of one history to
stay byte-identical, a removal must leave the same order however it is
carried out. ``_Adjacency`` keeps no position map; its
removals scan the row. These tests drive it side by side with a
reference copy of the position-mapped rows it replaced and require equal
rows and return values after every step.
"""

import numpy as np
import pytest

from repro.core.set_cover import _EMPTY_IDS, _Adjacency


class _TrackedAdjacency:
    """Reference: rows shadowed by per-row ``{id: position}`` maps, with
    O(1) swap-removal: the set cover's owner rows as they were kept
    while each carried a position map."""

    def __init__(self):
        self._rows = []
        self._lens = []
        self._pos = []

    def ensure(self, idx):
        grow = idx + 1 - len(self._rows)
        if grow > 0:
            self._rows.extend([None] * grow)
            self._lens.extend([0] * grow)
            self._pos.extend([None] * grow)

    def row(self, idx):
        if idx >= len(self._rows) or self._rows[idx] is None:
            return _EMPTY_IDS
        return self._rows[idx][: self._lens[idx]]

    def contains(self, idx, other):
        if idx >= len(self._rows) or self._pos[idx] is None:
            return False
        return other in self._pos[idx]

    def _append(self, idx, other):
        n = self._lens[idx]
        row = self._rows[idx]
        if row is None or n == row.shape[0]:
            grown = np.empty(max(4, 2 * n), dtype=np.int64)
            if n:
                grown[:n] = row[:n]
            row = self._rows[idx] = grown
        row[n] = other
        self._lens[idx] = n + 1
        if self._pos[idx] is None:
            self._pos[idx] = {}
        self._pos[idx][other] = n

    def add(self, idx, other):
        self.ensure(idx)
        self._append(idx, other)

    def extend(self, idx, others):
        self.ensure(idx)
        for other in others.tolist():
            self._append(idx, other)

    def append_each(self, idxs, other):
        if idxs:
            self.ensure(max(idxs))
        for idx in idxs:
            self._append(idx, other)

    def remove(self, idx, other):
        if idx >= len(self._rows) or self._pos[idx] is None:
            return False
        pos = self._pos[idx]
        p = pos.pop(other, None)
        if p is None:
            return False
        n = self._lens[idx]
        row = self._rows[idx]
        last = int(row[n - 1])
        if p != n - 1:
            row[p] = last
            pos[last] = p
        self._lens[idx] = n - 1
        return True

    def remove_many(self, idx, others):
        if idx >= len(self._rows) or self._pos[idx] is None:
            return _EMPTY_IDS
        pos = self._pos[idx]
        hits = sorted((pos[o], o) for o in others.tolist() if o in pos)
        if not hits:
            return _EMPTY_IDS
        removed = np.asarray([o for _, o in hits], dtype=np.int64)
        n = self._lens[idx]
        row = self._rows[idx]
        for o in removed.tolist():
            p = pos.pop(o)
            last = int(row[n - 1])
            if p != n - 1:
                row[p] = last
                pos[last] = p
            n -= 1
        self._lens[idx] = n
        return removed

    def clear(self, idx):
        if idx < len(self._rows):
            self._rows[idx] = None
            self._lens[idx] = 0
            self._pos[idx] = None


N_ROWS, ID_RANGE = 6, 40


def _assert_same_rows(got, want):
    for idx in range(N_ROWS):
        assert got.row(idx).tolist() == want.row(idx).tolist(), idx


def _pick_hits(rng, row):
    """Ids for ``remove_many``: the last slot, chains whose later hit is
    the entry an earlier hit's swap moves, plus absent ids."""
    n = row.shape[0]
    picks = set()
    if n:
        picks.add(int(row[-1]))  # a hit in the last slot
        if n >= 3:
            # Removing row[0] swaps row[-1] into slot 0; the hit after
            # it is row[-1] itself, now sitting in that hole.
            picks.update((int(row[0]), int(row[-1]), int(row[-2])))
        picks.update(int(x) for x in rng.choice(
            row, size=int(rng.integers(0, n + 1)), replace=False))
    picks.update(int(x) for x in rng.integers(0, ID_RANGE, size=3))
    out = np.asarray(sorted(picks), dtype=np.int64)
    rng.shuffle(out)
    return out


def _step(rng, got, want):
    """One random operation on both; their results must agree."""
    idx = int(rng.integers(0, N_ROWS))
    row = want.row(idx)
    absent = np.setdiff1d(np.arange(ID_RANGE), row)
    op = rng.choice(["add", "extend", "append_each", "remove",
                     "remove_many", "remove_many", "contains", "clear"],
                    p=[0.15, 0.15, 0.15, 0.15, 0.15, 0.15, 0.07, 0.03])
    if op == "add" and absent.size:
        other = int(rng.choice(absent))
        got.add(idx, other)
        want.add(idx, other)
    elif op == "extend" and absent.size:
        others = rng.choice(absent, size=int(rng.integers(1, min(
            6, absent.size) + 1)), replace=False).astype(np.int64)
        got.extend(idx, others)
        want.extend(idx, others)
    elif op == "append_each":
        other = int(rng.integers(0, ID_RANGE))
        idxs = [i for i in range(N_ROWS) if not want.contains(i, other)
                and rng.random() < 0.6]
        got.append_each(idxs, other)
        want.append_each(idxs, other)
    elif op == "remove":
        other = (int(rng.choice(row)) if row.size and rng.random() < 0.8
                 else int(rng.integers(0, ID_RANGE)))
        assert got.remove(idx, other) == want.remove(idx, other)
    elif op == "remove_many":
        others = _pick_hits(rng, row)
        assert (got.remove_many(idx, others).tolist()
                == want.remove_many(idx, others).tolist())
    elif op == "contains":
        other = int(rng.integers(0, ID_RANGE))
        assert got.contains(idx, other) == want.contains(idx, other)
    elif op == "clear":
        got.clear(idx)
        want.clear(idx)


@pytest.mark.parametrize("seed", range(12))
def test_random_sequences_match_position_mapped_rows(seed):
    rng = np.random.default_rng(seed)
    got, want = _Adjacency(), _TrackedAdjacency()
    for _ in range(400):
        _step(rng, got, want)
        _assert_same_rows(got, want)


def test_chain_where_a_later_hit_fills_an_earlier_hole():
    # Hits 10 (slot 0) and 50 (the last slot): removing 10 swaps 50
    # into slot 0, so 50 must be found again there, not at slot 4.
    got, want = _Adjacency(), _TrackedAdjacency()
    for adj in (got, want):
        adj.extend(0, np.array([10, 20, 30, 40, 50], dtype=np.int64))
    others = np.array([50, 99, 10], dtype=np.int64)
    assert got.remove_many(0, others).tolist() == [10, 50]
    assert want.remove_many(0, others).tolist() == [10, 50]
    assert got.row(0).tolist() == want.row(0).tolist() == [40, 20, 30]


def test_hits_in_the_last_slots():
    got, want = _Adjacency(), _TrackedAdjacency()
    for adj in (got, want):
        adj.extend(2, np.array([1, 2, 3, 4, 5, 6], dtype=np.int64))
    others = np.array([6, 2, 5], dtype=np.int64)
    assert (got.remove_many(2, others).tolist()
            == want.remove_many(2, others).tolist() == [2, 5, 6])
    assert got.row(2).tolist() == want.row(2).tolist() == [1, 4, 3]


def test_rows_imported_as_views_keep_the_order():
    lens = np.array([3, 0, 4], dtype=np.int64)
    flat = np.array([7, 8, 9, 1, 2, 3, 4], dtype=np.int64)
    got = _Adjacency.import_rows(lens, flat)
    want = _TrackedAdjacency()
    for idx, row in ((0, [7, 8, 9]), (2, [1, 2, 3, 4])):
        want.extend(idx, np.asarray(row, dtype=np.int64))
    want.ensure(2)
    others = np.array([1, 4], dtype=np.int64)
    assert (got.remove_many(2, others).tolist()
            == want.remove_many(2, others).tolist())
    assert got.remove(0, 7) and want.remove(0, 7)
    got.add(0, 11)
    want.add(0, 11)
    for idx in range(3):
        assert got.row(idx).tolist() == want.row(idx).tolist()
    assert flat.tolist() == [7, 8, 9, 1, 2, 3, 4]  # import copied


def test_no_position_maps():
    assert "_pos" not in _Adjacency.__slots__
    assert not hasattr(_Adjacency(), "_pos")
