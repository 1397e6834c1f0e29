"""Unit + property tests for the stable dynamic set cover (Algorithm 1).

Invariants after *every* operation (Definition 2 + cover feasibility):

1. every universe element is assigned to a containing set;
2. every solution set sits at the level matching its cover size;
3. no candidate set has ``|S ∩ A_j| >= 2^{j+1}`` at any level ``j``.

Theorem 1 gives the quality bound |C| <= (2 + 2·log2 m)·OPT, which we
check against the exact LP lower bound on random systems.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.set_cover import StableSetCover, _check_id, _level_of
from repro.geometry.lp import min_size_cover_lp_bound


def assert_valid(cover: StableSetCover) -> None:
    assert cover.is_cover(), "solution is not a cover"
    assert cover.is_stable(), "solution violates Definition 2"


def random_system(rng, n_elems, n_sets, density=0.3):
    membership = {s: set() for s in range(n_sets)}
    for e in range(n_elems):
        owners = np.flatnonzero(rng.random(n_sets) < density)
        if owners.size == 0:
            owners = [int(rng.integers(n_sets))]
        for s in owners:
            membership[int(s)].add(e)
    return {s: m for s, m in membership.items() if m}


class TestLevelOf:
    def test_powers(self):
        assert _level_of(1) == 0
        assert _level_of(2) == 1
        assert _level_of(3) == 1
        assert _level_of(4) == 2
        assert _level_of(1023) == 9
        assert _level_of(1024) == 10


class TestGreedyBuild:
    def test_tiny_exact(self):
        cover = StableSetCover()
        cover.build({100: {1, 2, 3}, 101: {3, 4}, 102: {4}})
        assert_valid(cover)
        assert cover.solution_size() == 2
        assert 100 in cover.solution()

    def test_greedy_is_stable(self, rng):
        cover = StableSetCover()
        cover.build(random_system(rng, 60, 20))
        assert_valid(cover)

    def test_empty_sets_are_harmless(self):
        # Elements are derived from memberships, so an "uncoverable
        # element" cannot be expressed through build(); empty sets are
        # simply never selected.
        cover = StableSetCover()
        cover.build({100: set(), 101: {1}})
        assert cover.solution() == frozenset({101})
        assert_valid(cover)

    def test_theorem1_bound_vs_lp(self, rng):
        for trial in range(5):
            membership = random_system(rng, 50, 25, density=0.2)
            cover = StableSetCover()
            cover.build(membership)
            assert_valid(cover)
            sets = sorted(membership)
            mat = np.zeros((50, len(sets)))
            for col, sid in enumerate(sets):
                for e in membership[sid]:
                    mat[e, col] = 1.0
            opt_lb = min_size_cover_lp_bound(mat)
            m = 50
            assert cover.solution_size() <= (2 + 2 * np.log2(m)) * max(1.0, opt_lb)


class TestDynamicOps:
    def _base(self, rng):
        cover = StableSetCover()
        cover.build(random_system(rng, 40, 15))
        return cover

    def test_add_element(self, rng):
        cover = self._base(rng)
        cover.add_element(1000, [0, 1])
        assert_valid(cover)
        assert cover.assignment(1000) in (0, 1)

    def test_add_element_twice_raises(self, rng):
        cover = self._base(rng)
        cover.add_element(1000, [0])
        with pytest.raises(KeyError):
            cover.add_element(1000, [0])

    def test_add_element_without_sets_raises(self, rng):
        cover = self._base(rng)
        with pytest.raises(ValueError):
            cover.add_element(1000, [])

    def test_remove_element(self, rng):
        cover = self._base(rng)
        cover.remove_element(5)
        assert 5 not in cover.universe
        assert_valid(cover)

    def test_remove_unknown_element_raises(self, rng):
        cover = self._base(rng)
        with pytest.raises(KeyError):
            cover.remove_element(999)

    def test_add_to_set(self, rng):
        cover = self._base(rng)
        sid = next(iter(cover.solution()))
        cover.add_to_set(3, sid)
        assert sid in cover.sets_of(3)
        assert_valid(cover)

    def test_remove_from_set_reassigns(self, rng):
        cover = self._base(rng)
        # Pick an element with >= 2 containing sets and remove its
        # assigned one.
        for elem in list(cover.universe):
            if len(cover.sets_of(elem)) >= 2:
                owner = cover.assignment(elem)
                cover.remove_from_set(elem, owner)
                assert cover.assignment(elem) != owner
                assert_valid(cover)
                return
        pytest.skip("no multi-set element in this draw")

    def test_remove_last_containing_set_raises(self):
        cover = StableSetCover()
        cover.build({100: {1}})
        with pytest.raises(ValueError):
            cover.remove_from_set(1, 100)

    def test_remove_set_reassigns_all(self, rng):
        cover = self._base(rng)
        # Remove a solution set whose elements all have alternatives.
        for sid in list(cover.solution()):
            if all(len(cover.sets_of(e)) >= 2 for e in cover.cover_of(sid)):
                cover.remove_set(sid)
                assert sid not in cover.solution()
                assert_valid(cover)
                return
        pytest.skip("no removable set in this draw")

    def test_remove_absent_set_is_noop(self, rng):
        cover = self._base(rng)
        size = cover.solution_size()
        cover.remove_set(999)
        assert cover.solution_size() == size

    def test_non_int_ids_rejected(self):
        cover = StableSetCover()
        with pytest.raises(TypeError):
            cover.build({"a": {1}})
        cover.build({0: {1}})
        with pytest.raises(TypeError):
            cover.add_to_set(1, "b")
        with pytest.raises(ValueError):
            cover.add_element(-3, [0])

    def test_bulk_add_rejects_invalid_elements(self):
        # Both the scalar (<=8) and vectorized (>8) group paths must
        # reject negative / unknown element ids instead of silently
        # corrupting the adjacency state.
        cover = StableSetCover()
        cover.build({0: set(range(12))})
        with pytest.raises(KeyError):
            cover.add_elems_to_set([1, -1], 5)
        with pytest.raises(KeyError):
            cover.add_elems_to_set(list(range(1, 10)) + [-1], 5)
        with pytest.raises(KeyError):
            cover.add_elems_to_set(list(range(1, 10)) + [10_000], 5)
        assert cover.members(5) == frozenset()
        assert cover.is_cover() and cover.is_stable()


class TestStabilizeBehaviour:
    def test_level0_merge(self):
        """Many singleton covers sharing one big set must collapse."""
        # Elements 0..7; sets 100+i with {i}, plus one set 200
        # containing all. Build greedy picks the big set first, so start
        # from a degenerate assignment instead: force singletons via
        # dynamic ops.
        cover = StableSetCover()
        cover.build({100 + i: {i} for i in range(8)})
        assert cover.solution_size() == 8
        # Now a big set arrives: elements join it one by one. Stability
        # forces absorption once |B ∩ A_0| >= 2.
        for i in range(8):
            cover.add_to_set(i, 200)
        assert_valid(cover)
        assert cover.solution_size() < 8
        assert 200 in cover.solution()

    def test_stabilize_counts_steps(self):
        cover = StableSetCover()
        cover.build({100 + i: {i} for i in range(8)})
        before = cover.stabilize_steps
        for i in range(8):
            cover.add_to_set(i, 200)
        assert cover.stabilize_steps > before

    def test_batch_defers_stabilize_to_exit(self):
        cover = StableSetCover()
        cover.build({100 + i: {i} for i in range(8)})
        with cover.batch():
            for i in range(8):
                cover.add_to_set(i, 200)
            # Violations are queued but not yet drained inside a batch.
            assert cover.solution_size() == 8
        assert_valid(cover)
        assert 200 in cover.solution()
        assert cover.solution_size() < 8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 400), n_ops=st.integers(1, 30))
def test_random_operation_stream_property(seed, n_ops):
    """Arbitrary op streams keep the solution a stable cover."""
    rng = np.random.default_rng(seed)
    cover = StableSetCover()
    cover.build(random_system(rng, 25, 10, density=0.35))
    next_elem = 1000
    for _ in range(n_ops):
        roll = rng.random()
        elems = list(cover.universe)
        if roll < 0.3:
            sids = [int(rng.integers(10)) for _ in range(1 + int(rng.integers(3)))]
            cover.add_element(next_elem, sids)
            next_elem += 1
        elif roll < 0.5 and len(elems) > 1:
            cover.remove_element(elems[int(rng.integers(len(elems)))])
        elif roll < 0.75 and elems:
            e = elems[int(rng.integers(len(elems)))]
            cover.add_to_set(e, int(rng.integers(10)))
        elif elems:
            e = elems[int(rng.integers(len(elems)))]
            owners = list(cover.sets_of(e))
            if len(owners) >= 2:
                cover.remove_from_set(e, owners[int(rng.integers(len(owners)))])
        assert cover.is_cover()
        assert cover.is_stable()


def _assert_solution_matches_levels(cover: StableSetCover) -> None:
    """The maintained solution array is exactly ``{sid : level >= 0}``."""
    want = np.flatnonzero(cover._level >= 0).tolist()
    held = cover._solution.tolist()
    assert len(set(held)) == len(held), "duplicated solution id"
    assert sorted(held) == want
    assert cover.solution() == frozenset(want)
    assert cover.solution_size() == len(want)
    assert cover.is_cover() and cover.is_stable()


def _random_sigma(cover: StableSetCover, rng, fresh: list[int]):
    """Apply one random σ (or bulk op, rebuild, build or checkpoint
    round trip) to ``cover``; returns the cover to keep using.
    ``fresh`` holds the next unused ``[element id, set id]``."""
    elems = sorted(cover.universe)
    n_sids = cover._level.shape[0]
    live = [s for s in range(n_sids) if cover._members.degree(s)]
    e = elems[int(rng.integers(len(elems)))]
    s = live[int(rng.integers(len(live)))]
    owners = sorted(cover.sets_of(e))
    roll = int(rng.integers(11))
    if roll == 0:
        picks = rng.choice(live, size=min(3, len(live)), replace=False)
        cover.add_element(fresh[0], picks.tolist())
        fresh[0] += 1
    elif roll == 1 and len(elems) > 2:
        cover.remove_element(e)
    elif roll == 2:
        cover.add_to_set(e, s)
    elif roll == 3 and len(owners) > 1:
        cover.remove_from_set(e, owners[int(rng.integers(len(owners)))])
    elif roll == 4:
        # A brand-new set swallowing many elements joins C through
        # STABILIZE.
        sid = s
        if rng.random() < 0.5:
            sid, fresh[1] = fresh[1], fresh[1] + 1
        outside = [x for x in elems if not cover._owners.contains(x, sid)]
        take = rng.permutation(outside)[:int(rng.integers(1, 13))]
        cover.add_elems_to_set(take.tolist(), sid)
    elif roll == 5:
        others = [x for x in live if x not in owners]
        take = rng.permutation(others)[:int(rng.integers(1, 11))]
        cover.add_elem_to_sets(e, take.tolist())
    elif roll == 6 and len(owners) > 1:
        take = rng.permutation(owners)[:int(rng.integers(1, len(owners)))]
        cover.remove_elem_from_sets(e, take.tolist())
    elif roll == 7 and all(len(cover.sets_of(x)) > 1
                           for x in cover.members(s)):
        cover.remove_set(s)
    elif roll == 8:
        cover.rebuild()
    elif roll == 9:
        with cover.batch():
            cover.add_to_set(e, s)
            if len(cover.sets_of(e)) > 1:
                cover.remove_from_set(e, sorted(cover.sets_of(e))[0])
            cover.remove_set(fresh[1] + 5)  # absent: a no-op
    elif roll == 10:
        if rng.random() < 0.3:
            system = random_system(rng, 30, 10, density=0.3)
            cover.build_arrays(
                [3 * sid for sid in system], [len(m) for m in system.values()],
                [x for m in system.values() for x in sorted(m)])
            fresh[1] = max(fresh[1], 3 * 10)
        else:
            before = cover.solution()
            cover = StableSetCover.from_state(cover.export_state())
            assert cover.solution() == before
    return cover


@pytest.mark.parametrize("seed", range(8))
def test_maintained_solution_tracks_every_sigma(seed):
    """After every step of a random σ sequence — bulk ops, whole-set
    removal, universe changes, rebuilds, CSR builds and checkpoint
    round trips — the solution array holds exactly the sets with a
    level, and ``is_stable`` agrees."""
    rng = np.random.default_rng(seed)
    cover = StableSetCover()
    cover.build(random_system(rng, 30, 12, density=0.3))
    _assert_solution_matches_levels(cover)
    fresh = [1000, 12]
    for _ in range(150):
        cover = _random_sigma(cover, rng, fresh)
        _assert_solution_matches_levels(cover)


def test_is_stable_rejects_a_stale_solution_array():
    cover = StableSetCover()
    cover.build({3: {0, 1}, 9: {1, 2}, 40: {2, 3}})
    assert cover.is_stable()
    held = cover._solution
    cover._solution = np.append(held, held[0])  # duplicated id
    assert not cover.is_stable()
    cover._solution = held[:-1]  # missing id
    assert not cover.is_stable()


def test_solution_read_does_not_scan_the_set_capacity():
    """``solution()`` reads the |C|-entry array: its peak allocation
    stays small however many set ids the cover has ever held."""
    cover = StableSetCover()
    cover.build({3: {0, 1}, 9: {1, 2}, 40: {2, 3}, 41: {3}})
    want = cover.solution()
    cover._ensure_sid(1 << 20)
    assert cover._level.shape[0] > 1 << 20
    tracemalloc.start()
    try:
        got = cover.solution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 64 * 1024, peak


def _build_per_pair(cover: StableSetCover, membership) -> None:
    """Reference install: every (set, element) pair added one at a time,
    the way :meth:`StableSetCover.build` installed the relation before
    it became one CSR install."""
    cover._reset()
    for sid, elems in membership.items():
        sid = _check_id(sid, "set")
        cover._ensure_sid(sid)
        for elem in elems:
            elem = _check_id(elem, "element")
            cover._ensure_elem(elem)
            if not cover._elem_alive[elem]:
                cover._elem_alive[elem] = True
                cover._n_elems += 1
            if not cover._owners.contains(elem, sid):
                cover._owners.add(elem, sid)
                cover._members.add(sid, elem)
    cover._greedy()


def _assert_identical(got: StableSetCover, want: StableSetCover) -> None:
    got_state, want_state = got.export_state(), want.export_state()
    assert got_state.keys() == want_state.keys()
    for key, arr in want_state.items():
        assert got_state[key].dtype == arr.dtype, key
        assert got_state[key].shape == arr.shape, key
        assert np.array_equal(got_state[key], arr), key
    got_arrays = list(got.logical_arrays())
    want_arrays = list(want.logical_arrays())
    assert [name for name, _ in got_arrays] == [n for n, _ in want_arrays]
    for (name, arr), (_, ref) in zip(got_arrays, want_arrays):
        assert np.asarray(arr).shape == np.asarray(ref).shape, name
        assert np.array_equal(arr, ref), name
    assert got._bucket_counts.shape == want._bucket_counts.shape
    assert np.array_equal(got._bucket_counts, want._bucket_counts)
    assert got._pending_mask.shape == want._pending_mask.shape


def _shuffled_system(rng, n_elems, n_sets, id_scale):
    """Random set system with scattered ids, shuffled key order and
    list values (duplicates included); some sets are empty."""
    sids = rng.choice(n_sets * id_scale, size=n_sets, replace=False)
    elems = rng.choice(n_elems * id_scale, size=n_elems, replace=False)
    membership = {int(s): [] for s in sids}
    keys = list(membership)
    for e in elems.tolist():
        for s in rng.choice(keys, size=int(rng.integers(1, 4))).tolist():
            membership[s].append(e)
    for s in keys[:3]:
        membership[s].extend(membership[s][:2])  # repeated elements
    membership[keys[-1]] = []
    return membership


class TestBulkBuildParity:
    """The CSR build leaves exactly the state the per-pair install did."""

    def test_unordered_set_iteration(self):
        elems = {5, 1000}
        assert list(elems) != sorted(elems)  # the case under test
        membership = {7: elems, 3: {1000, 2}, 12: {5}}
        got, want = StableSetCover(), StableSetCover()
        got.build(membership)
        _build_per_pair(want, membership)
        _assert_identical(got, want)
        assert got._members.row(7).tolist() == list(elems)

    def test_capacity_doublings(self):
        # Set ids arrive as 3, 20, 7, 100, 40, 300, 2: the 16-slot
        # floor, a doubling (20 -> 32 slots) and two id-sized jumps.
        membership = {3: {0, 17}, 20: {40, 2}, 7: {100}, 100: {33, 600},
                      40: {5000}, 300: {1, 2, 3}, 2: {999, 64}}
        got, want = StableSetCover(), StableSetCover()
        got.build(membership)
        _build_per_pair(want, membership)
        _assert_identical(got, want)
        assert got._level.shape[0] == 301  # 16 -> 32 -> 101 -> 301
        assert got._phi.shape[0] == 5001

    @pytest.mark.parametrize("seed", range(6))
    def test_random_systems_then_dynamic_ops(self, seed):
        rng = np.random.default_rng(seed)
        membership = _shuffled_system(rng, 60, 25, id_scale=1 + seed * 7)
        got, want = StableSetCover(), StableSetCover()
        got.build(membership)
        _build_per_pair(want, membership)
        _assert_identical(got, want)
        # Rows installed as views of one CSR array must grow and
        # shrink exactly like rows grown pair by pair.
        sids = sorted(membership)
        fresh = 10 ** 4 + seed
        for cover in (got, want):
            cover.add_element(fresh, sids[:3])
            cover.add_to_set(fresh, sids[4])
            for e in list(cover.members(sids[1]))[:3]:
                if len(cover.sets_of(e)) > 1:
                    cover.remove_from_set(e, sids[1])
            cover.remove_element(fresh)
        _assert_identical(got, want)

    def test_invalid_ids_rejected(self):
        cover = StableSetCover()
        with pytest.raises(TypeError):
            cover.build({0: [1, "x"]})
        with pytest.raises(TypeError):
            cover.build({0: [True]})
        with pytest.raises(ValueError):
            cover.build({0: [1, -2]})
        cover.build({np.int64(4): np.array([3, 1])})
        assert cover.members(4) == frozenset({1, 3})
