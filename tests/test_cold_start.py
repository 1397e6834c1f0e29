"""The array-built cold start (Algorithm 2) against its reference forms.

The bootstrap scores every chunk into one reused buffer and finds
members with a flat index; the initial cover is installed from a CSR
built straight from the member rows; the Algorithm 2 probes sort the
pool's pairs once; and the build selects with the probes' kernel. Each
test below pins one of these against the form it replaced: the stored
state bit for bit, the cover's set order, and the greedy's choices.
The order of the elements within a set is physical: the order-neutrality
test pins that no decision reads it.
"""

import numpy as np
import pytest

import repro.core.topk as topk_mod
from repro.core.fdrms import FDRMS
from repro.core.set_cover import (StableSetCover, greedy_cover_size,
                                  greedy_prefix_sizer)
from repro.core.topk import ApproxTopKIndex
from repro.data.database import DELETE, INSERT, Database, Operation
from repro.geometry.sampling import sample_utilities_with_basis


def _reference_bootstrap(pts, u, k, eps):
    """Per chunk, a fresh ``(n, b)`` product, a full top-k partition per
    column and a 2-D ``nonzero`` for the members."""
    n, m = pts.shape[0], u.shape[0]
    chunk = max(1, topk_mod.BOOTSTRAP_CHUNK_ELEMS // n)
    topk = np.empty((m, k))
    taus = np.empty(m)
    rows_out = []
    for start in range(0, m, chunk):
        scores = pts @ u[start:start + chunk].T
        b = scores.shape[1]
        part = np.partition(scores, range(n - k, n), axis=0)
        topk[start:start + b] = part[n - k:].T
        taus[start:start + b] = (1.0 - eps) * part[n - k]
        rows, cols = np.nonzero(scores >= taus[start:start + b])
        order = np.argsort(cols, kind="stable")
        rows, cols = rows[order], cols[order]
        vals = scores[rows, cols]
        for col in range(b):
            hit = cols == col
            rows_out.append((rows[hit], vals[hit]))
    return topk, taus, rows_out


@pytest.mark.parametrize("k", [1, 3])
def test_bootstrap_is_bitwise_the_fresh_product(k):
    # 9,000 tuples and M = 1024 give chunks of 444, 444 and 136
    # utilities: the last one reuses only part of the buffer.
    n, m, eps = 9_000, 1024, 0.1
    pts = np.random.default_rng(40 + k).random((n, 6))
    db = Database(pts)
    u = np.ascontiguousarray(sample_utilities_with_basis(m, 6, seed=k))
    index = ApproxTopKIndex(db, u, k, eps)
    assert topk_mod.BOOTSTRAP_CHUNK_ELEMS // n == 444
    ids, snap = db.snapshot()
    topk, taus, rows = _reference_bootstrap(snap, u, k, eps)
    store = index._store
    assert np.array_equal(store._topk, topk)
    assert np.array_equal(index._tau, taus)
    owners: dict[int, list[int]] = {}
    for i, (want_rows, want_scores) in enumerate(rows):
        got_ids, got_scores = store.row(i)
        assert np.array_equal(got_ids, ids[want_rows]), i
        assert np.array_equal(got_scores, want_scores), i
        assert store._min[i] == want_scores.min(), i
        for pid in ids[want_rows].tolist():
            owners.setdefault(pid, []).append(i)
    for pid, want in owners.items():
        assert store.owners(pid).tolist() == want, pid


def _reference_prefix(engine, m):
    """The dict of Python sets the cover was built from before the CSR:
    every tuple keyed by first appearance in the utility-major scan of
    ``members_of``."""
    sets: dict[int, set[int]] = {}
    for u_idx in range(m):
        for pid in engine._topk.members_of(u_idx):
            sets.setdefault(pid, set()).add(u_idx)
    return sets


def _churn(engine, rng, n_ops, batch):
    ops = []
    for _ in range(n_ops):
        if rng.random() < 0.5:
            ops.append(Operation(INSERT, rng.random(engine.database.d)))
        else:
            taken = {op.tuple_id for op in ops if op.kind == DELETE}
            res = [p for p in engine.result() if p not in taken]
            if not res:
                continue
            pid = res[int(rng.integers(len(res)))]
            ops.append(Operation(DELETE, engine.database.point(pid), pid))
        if len(ops) >= batch:
            engine.apply_batch(ops)
            ops = []
    engine.apply_batch(ops)


def _assert_prefix_matches(engine, m):
    mapping = _reference_prefix(engine, m)
    sids, lens, elems = engine._prefix_system(m)
    assert sids.tolist() == list(mapping)
    rows = np.split(elems, np.cumsum(lens)[:-1]) if lens.size else []
    for sid, row in zip(sids.tolist(), rows):
        assert row.tolist() == sorted(mapping[sid]), sid


@pytest.mark.parametrize("k", [1, 2, 3])
def test_prefix_system_keeps_the_dict_key_order(k):
    rng = np.random.default_rng(100 + k)
    engine = FDRMS(Database(rng.random((3_000, 5))), k, 8, 0.1,
                   m_max=256, seed=k)
    for m in (engine.r, engine.m, 256):
        _assert_prefix_matches(engine, m)
    _churn(engine, rng, 400, 16)
    engine.verify()
    for m in (engine.r, engine.m, 256):
        _assert_prefix_matches(engine, m)


def _apply_random_sigma(covers, rng, next_ids):
    """One seeded σ operation (or a whole-set removal), applied alike to
    every cover in ``covers``; the first one picks a valid operation."""
    ref = covers[0]
    elems = sorted(ref.universe)
    sids = sorted(ref.solution()) + sorted(
        {s for e in elems[:40] for s in ref.sets_of(e)})
    roll = rng.random()
    e = elems[int(rng.integers(len(elems)))]
    sid = sids[int(rng.integers(len(sids)))]
    owners = sorted(ref.sets_of(e))
    if roll < 0.12:
        op = ("add_element", next_ids["elem"],
              sorted({sid, sids[int(rng.integers(len(sids)))]}))
        next_ids["elem"] += 1
    elif roll < 0.2 and len(elems) > 4:
        op = ("remove_element", e)
    elif roll < 0.32:
        op = ("add_to_set", e, next_ids["sid"] if rng.random() < 0.5
              else sid)
        next_ids["sid"] += 1
    elif roll < 0.44 and len(owners) >= 2:
        op = ("remove_from_set", e, owners[int(rng.integers(len(owners)))])
    elif roll < 0.56:
        pool = [x for x in elems if sid not in ref.sets_of(x)]
        group = sorted(rng.choice(pool, size=min(len(pool), 1 + int(
            rng.integers(12))), replace=False).tolist())
        op = ("add_elems_to_set", group, sid)
    elif roll < 0.68:
        fresh = [s for s in sids if s not in owners] + [next_ids["sid"]]
        next_ids["sid"] += 1
        group = sorted(set(rng.choice(fresh, size=min(len(fresh), 1 + int(
            rng.integers(10))), replace=False).tolist()))
        op = ("add_elem_to_sets", e, group)
    elif roll < 0.8 and len(owners) >= 2:
        group = sorted(rng.choice(owners, size=1 + int(
            rng.integers(len(owners) - 1)), replace=False).tolist())
        op = ("remove_elem_from_sets", e, group)
    else:
        # A tuple deletion: remove a set whose orphans can move.
        for cand in sorted(ref.solution()):
            if all(len(ref.sets_of(x)) >= 2 for x in ref.cover_of(cand)):
                op = ("remove_set", cand)
                break
        else:
            return None
    for cover in covers:
        getattr(cover, op[0])(*op[1:])
    return op


def test_order_within_a_set_is_physical_only():
    rng = np.random.default_rng(7)
    engine = FDRMS(Database(rng.random((2_000, 4))), 2, 6, 0.1,
                   m_max=128, seed=3)
    mapping = _reference_prefix(engine, engine.m)
    # Both builds must start from different physical rows.
    assert any(list(row) != sorted(row) for row in mapping.values())
    # CPython's set order (the build up to 4.0.0), ascending (the array
    # build) and, to reach every row, descending.
    by_hash, ascending, descending = (StableSetCover(), StableSetCover(),
                                      StableSetCover())
    by_hash.build(mapping)
    ascending.build({sid: sorted(row) for sid, row in mapping.items()})
    descending.build({sid: sorted(row, reverse=True)
                      for sid, row in mapping.items()})
    assert any(by_hash._members.row(s).tolist()
               != ascending._members.row(s).tolist() for s in mapping)
    covers = (by_hash, ascending, descending)
    next_ids = {"elem": 10_000, "sid": 10 ** 6}
    n_ops = 0
    for step in range(300):
        if step % 25 == 24:
            # A deferred-stabilize batch, as the engine runs each update.
            started = [cover.begin_batch() for cover in covers]
            for _ in range(4):
                _apply_random_sigma(covers, rng, next_ids)
            for cover, flag in zip(covers, started):
                cover.end_batch(flag)
        elif _apply_random_sigma(covers, rng, next_ids) is None:
            continue
        n_ops += 1
        want = list(ascending.logical_arrays())
        for other in (by_hash, descending):
            got = list(other.logical_arrays())
            assert [name for name, _ in got] == [name for name, _ in want]
            for (name, a), (_, b) in zip(got, want):
                assert np.array_equal(a, b), (step, name)
    assert n_ops > 250
    assert by_hash.is_cover() and by_hash.is_stable()


def _tied_rows(rng, n_elems, n_sets, per_elem):
    sids = rng.choice(10 * n_sets, size=n_sets, replace=False)
    return [np.sort(rng.choice(sids, size=per_elem, replace=False))
            for _ in range(n_elems)]


@pytest.mark.parametrize("seed", range(4))
def test_prefix_sizer_matches_greedy_cover_size(seed):
    rng = np.random.default_rng(seed)
    rows = _tied_rows(rng, 60, 25, 2 + seed % 2)
    size = greedy_prefix_sizer(rows)
    for m in range(len(rows) + 1):
        assert size(m) == greedy_cover_size(rows[:m]), m


#: Selection order, solution and assignment of the tied system below
#: as the lazy-heap GREEDY of 4.0.0 made them (largest current gain,
#: ties to the smaller set id).
TIED_ORDER = [51, 73, 32, 12, 17, 69, 35, 62, 54, 18]
TIED_PHI = [17, 73, 73, 32, 32, 69, 73, 12, 54, 51, 32, 12, 17, 51, 51,
            12, 35, 18, 69, 73, 69, 62, 32, 73, 32, 62, 35, 51, 51, 17,
            17, 51, 12, 51, 62, 69, 73, 73, 35, 54]


def test_build_selects_what_the_heap_selected():
    # 40 elements in 3 of 30 sets each: nearly every step is a tie.
    rng = np.random.default_rng(2024)
    sids = rng.choice(80, size=30, replace=False)
    membership = {int(s): set() for s in sids}
    for e in range(40):
        for s in rng.choice(sids, size=3, replace=False).tolist():
            membership[s].add(e)
    cover = StableSetCover()
    cover.build(membership)
    assert cover._select_greedy(cover._elem_alive.copy()) == TIED_ORDER
    assert sorted(cover.solution()) == sorted(TIED_ORDER)
    assert [cover.assignment(e) for e in range(40)] == TIED_PHI
    assert cover.is_stable()
