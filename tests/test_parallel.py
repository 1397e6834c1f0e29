"""Parallel execution backend: worker-count invariance and crash safety.

The contract under test (docs/DETERMINISM.md, worker-count-invariance
rule): block decompositions are pure functions of problem size, every
block is the same NumPy call on every backend, and reduction is
block-ordered — so engine state digests are *byte-identical* across
``parallel=1/2/4``, replay determinism digests match the inline engine,
and a worker crash mid-wave degrades to inline recomputation without
changing a single bit.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.parallel.blocks as blocks
from repro.core.fdrms import FDRMS
from repro.data.database import DELETE, INSERT, Database, Operation
from repro.parallel import (
    SerialBackend,
    SharedMemoryBackend,
    ShmArena,
    resolve_backend,
)
from repro.parallel.kernels import KERNELS, bootstrap_chunk


def _mixed_ops(rng, n_insert=30, delete_ids=range(0, 40, 2)):
    ops = [Operation(INSERT, rng.random(4), None) for _ in range(n_insert)]
    ops += [Operation(DELETE, None, int(i)) for i in delete_ids]
    return ops


def _build_engine(points, parallel, *, ops=None):
    engine = FDRMS(Database(points), 1, 6, 0.1, m_max=32, seed=3,
                   parallel=parallel)
    if ops is not None:
        engine.apply_batch(ops)
    return engine


@pytest.fixture
def small_sharding(monkeypatch):
    """Shrink blocks/thresholds so tiny problems exercise real sharding."""
    monkeypatch.setattr(blocks, "BOOTSTRAP_CHUNK_ELEMS", 2000)
    monkeypatch.setattr(blocks, "SCORE_BLOCK_ROWS", 7)
    monkeypatch.setattr(blocks, "SCORE_PAR_MIN_ELEMS", 1)
    monkeypatch.setattr(blocks, "REPAIR_BLOCK_COLS", 3)
    monkeypatch.setattr(blocks, "REPAIR_PAR_MIN_ELEMS", 1)


# ----------------------------------------------------------------------
# Backend resolution and block decompositions
# ----------------------------------------------------------------------

def test_resolve_backend_mapping():
    assert resolve_backend(None) is None
    assert isinstance(resolve_backend(0), SerialBackend)
    assert isinstance(resolve_backend(1), SerialBackend)
    assert isinstance(resolve_backend("serial"), SerialBackend)
    shm = resolve_backend(3)
    assert isinstance(shm, SharedMemoryBackend) and shm.workers == 3
    shm.close()
    auto = resolve_backend("auto")
    assert auto.workers == max(1, os.cpu_count() or 1) or \
        isinstance(auto, SerialBackend)
    auto.close()
    passthrough = SerialBackend()
    assert resolve_backend(passthrough) is passthrough
    with pytest.raises(ValueError):
        resolve_backend(-1)
    with pytest.raises(ValueError):
        resolve_backend("sideways")
    with pytest.raises(ValueError):
        SharedMemoryBackend(1)


def test_bootstrap_chunks_match_historical_rule():
    # The inline bootstrap has always chunked utilities by
    # max(1, 4_000_000 // n); the canonical decomposition must agree.
    for n, m_total in [(1, 8), (100, 64), (100_000, 1024), (5_000_000, 7)]:
        chunk = max(1, int(4_000_000 // max(1, n)))
        expected = [(s, min(s + chunk, m_total))
                    for s in range(0, m_total, chunk)]
        assert blocks.bootstrap_chunks(n, m_total) == expected


def test_block_decompositions_cover_exactly():
    for fn, total in [(blocks.score_row_blocks, 2500),
                      (blocks.repair_col_blocks, 100)]:
        spans = fn(total)
        assert spans[0][0] == 0 and spans[-1][1] == total
        for (_, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 == s2


# ----------------------------------------------------------------------
# Kernel-level byte parity
# ----------------------------------------------------------------------

def test_bootstrap_kernel_byte_parity_across_backends():
    rng = np.random.default_rng(0)
    n, d, m_total = 400, 4, 96
    pts = rng.standard_normal((n, d))
    ids = np.arange(n, dtype=np.intp)
    u = np.abs(rng.standard_normal((m_total, d)))
    chunks = blocks.bootstrap_chunks(n, m_total)

    def wave(backend):
        payloads = [{"pts": backend.ship(pts), "ids": backend.ship(ids),
                     "u": backend.share("u", 0, u),
                     "start": s, "end": e, "k": 2, "eps": 0.1}
                    for s, e in chunks]
        return backend.map_blocks("bootstrap_chunk", payloads)

    serial, shm = SerialBackend(), SharedMemoryBackend(2)
    try:
        results = {"serial": wave(serial), "shm": wave(shm)}
    finally:
        shm.close()
    for (s, e), rs, rp in zip(chunks, results["serial"], results["shm"]):
        reference = bootstrap_chunk(pts, ids, u, s, e, 2, 0.1)
        for ref, out_s, out_p in zip(reference, rs, rp):
            assert np.array_equal(ref, out_s)
            assert np.array_equal(out_s, out_p)


def test_shm_arena_publish_cache_and_release():
    arena = ShmArena()
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    ref1 = arena.publish("u", 0, arr)
    assert arena.publish("u", 0, arr) is ref1  # token hit reuses
    ref2 = arena.publish("u", 1, arr * 2)  # token bump reallocates
    assert ref2.name != ref1.name
    assert np.array_equal(arena.view(ref2), arr * 2)
    transient = arena.ship(arr[::2])  # non-contiguous input
    view = arena.view(transient)
    assert view.flags["C_CONTIGUOUS"] and np.array_equal(view, arr[::2])
    arena.release(transient)
    arena.close()
    assert not arena._segments


# ----------------------------------------------------------------------
# Engine-level worker-count invariance
# ----------------------------------------------------------------------

def test_state_digest_identical_inline_and_all_worker_counts():
    # Default thresholds: small workloads stay on the single-GEMM
    # paths, and the bootstrap decomposition equals the inline chunk
    # rule — so even the inline engine must agree byte for byte.
    rng = np.random.default_rng(7)
    pts = rng.random((150, 4))
    ops = _mixed_ops(np.random.default_rng(8))
    digests = {}
    for parallel in (None, 1, 2, 4):
        engine = _build_engine(pts, parallel, ops=ops)
        digests[parallel] = engine.state_digest()
        engine.close()
    assert len(set(digests.values())) == 1


def test_state_digest_identical_with_forced_sharding(small_sharding):
    # Shrunk blocks force multi-chunk bootstrap, sharded insert-run
    # scoring, and blocked repair waves; workers 1/2/4 must still agree
    # byte for byte (inline is excluded here: it legitimately uses the
    # unsharded GEMMs).
    rng = np.random.default_rng(7)
    pts = rng.random((200, 4))
    ops = _mixed_ops(np.random.default_rng(9), n_insert=40,
                     delete_ids=range(0, 60, 2))
    digests = {}
    for parallel in (1, 2, 4):
        engine = _build_engine(pts, parallel, ops=ops)
        assert engine.parallel_workers == parallel
        digests[parallel] = engine.state_digest()
        engine.close()
    assert len(set(digests.values())) == 1


def test_replay_digest_and_trace_hash_worker_invariant():
    import json
    from pathlib import Path

    from repro.scenarios import get_scenario, hash_key, replay_trace

    golden = json.loads(
        Path(__file__).resolve().parents[1]
        .joinpath("benchmarks", "scenario_hashes.json").read_text())
    trace = get_scenario("mixed-batch").compile(seed=0, n=400)
    assert golden[hash_key("mixed-batch", 400, 0)] == trace.content_hash
    digests = set()
    for workers in (None, 1, 2, 4):
        options = {"eps": 0.1, "m_max": 64}
        if workers is not None:
            options["parallel"] = workers
        result = replay_trace(trace, "fd-rms", r=6, k=1, seed=0,
                              eval_samples=200, options=options)
        assert result.trace_hash == trace.content_hash
        digests.add(result.determinism_digest())
    assert len(digests) == 1


def test_open_session_parallel_and_close_releases_pool():
    from repro.api.session import open_session

    rng = np.random.default_rng(1)
    session = open_session(rng.random((120, 4)), 6, eps=0.1, m_max=32,
                           parallel=2)
    session.insert(rng.random(4))
    backend = session.engine._backend
    assert isinstance(backend, SharedMemoryBackend)
    session.close()
    assert backend._executor is None
    assert not backend._arena._segments


def test_workers_never_leak_into_digested_counters():
    # Worker count is physical configuration; landing it in stats()
    # would break digest parity across --workers values.
    rng = np.random.default_rng(2)
    engine = _build_engine(rng.random((80, 4)), 2)
    try:
        stats = engine.statistics()
        assert "parallel_workers" not in stats
        assert "workers" not in stats
        assert engine.parallel_workers == 2
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------

def _install_crashing_kernel(monkeypatch, name):
    """Make ``name`` kill the process when run inside a worker.

    The parent pid check keeps the degraded inline recomputation (and
    any serial backend) on the real kernel.
    """
    parent = os.getpid()
    real = KERNELS[name]

    def crashing(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setitem(KERNELS, name, crashing)


def test_crash_during_parallel_bootstrap_degrades_bit_exact(
        monkeypatch, tmp_path):
    from repro.persist.checkpoint import save_checkpoint
    from repro.persist.recovery import restore_engine

    _install_crashing_kernel(monkeypatch, "bootstrap_chunk")
    rng = np.random.default_rng(4)
    pts = rng.random((150, 4))
    crashed = _build_engine(pts, 2)
    backend = crashed._backend
    assert backend.degraded  # every worker died mid-bootstrap
    clean = _build_engine(pts, 1)
    assert crashed.state_digest() == clean.state_digest()

    # Persistence is unaffected: the degraded engine checkpoints, and
    # the checkpoint restores (serially and in parallel) digest-exact.
    ops = _mixed_ops(np.random.default_rng(5), n_insert=10,
                     delete_ids=range(0, 10, 2))
    crashed.apply_batch(ops)
    clean.apply_batch(ops)
    assert crashed.state_digest() == clean.state_digest()
    save_checkpoint(crashed, tmp_path / "ckpt")
    for parallel in (None, 2):
        restored, info = restore_engine(tmp_path / "ckpt",
                                        parallel=parallel)
        assert info["state_digest"] == crashed.state_digest()
        restored.close()
    crashed.close()
    clean.close()


def test_crash_mid_stream_wave_recovers_and_stays_serial(
        monkeypatch, small_sharding):
    _install_crashing_kernel(monkeypatch, "score_rows")
    rng = np.random.default_rng(6)
    pts = rng.random((150, 4))
    ops = _mixed_ops(np.random.default_rng(7))
    survivor = _build_engine(pts, 2, ops=ops)  # crashes on first wave
    assert survivor._backend.degraded
    reference = _build_engine(pts, 1, ops=ops)
    assert survivor.state_digest() == reference.state_digest()
    survivor.close()
    reference.close()


def test_restore_reestablishes_pool_digest_exact(
        monkeypatch, small_sharding):
    """Degrade -> fix -> ``restore()`` -> parallel again, bit-for-bit.

    The full round trip the service layer's breaker probe relies on:
    a crashing kernel degrades the backend inline, reinstating the
    real kernel and calling ``restore()`` brings a live pool back, and
    the post-restore parallel waves leave the engine digest-identical
    to a serial run of the same history.
    """
    real = KERNELS["score_rows"]
    _install_crashing_kernel(monkeypatch, "score_rows")
    rng = np.random.default_rng(8)
    pts = rng.random((150, 4))
    first = _mixed_ops(np.random.default_rng(9))
    survivor = _build_engine(pts, 2, ops=first)
    backend = survivor._backend
    assert backend.degraded
    monkeypatch.setitem(KERNELS, "score_rows", real)  # "deploy the fix"
    assert backend.restore() is True
    assert not backend.degraded
    assert backend.restores == 1
    assert backend.restore() is True  # idempotent on a healthy pool
    assert backend.restores == 1
    more = _mixed_ops(np.random.default_rng(10), n_insert=20,
                      delete_ids=range(40, 60, 2))
    survivor.apply_batch(more)
    assert not backend.degraded  # the re-pooled executor really ran
    reference = _build_engine(pts, 1, ops=first + more)
    assert survivor.state_digest() == reference.state_digest()
    survivor.close()
    reference.close()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_replay_workers_flag(capsys):
    from repro.cli import main

    rc = main(["replay", "mixed-batch", "--n", "150", "--r", "6",
               "--m-max", "32", "--eval-samples", "100",
               "--workers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mixed-batch" in out
