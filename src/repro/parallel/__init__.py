"""Parallel hot-path execution layer.

Shards the engine's three dominant loops — bootstrap GEMM + membership
fill, ``(batch × M)`` insert-run scoring, and brute-force delete-repair
waves — across worker processes over shared-memory array views, with a
serial fallback backend that executes the same canonical blocks
inline. Block boundaries are a pure function of problem size (never of
worker count), and reduction is strictly block-ordered, so results are
byte-identical at any ``parallel=`` setting that uses a backend, and
replay digests are invariant across ``--workers 1/2/4``. See
``docs/DETERMINISM.md`` (worker-count-invariance rule) and
``docs/ARCHITECTURE.md``.

Selection: ``FDRMS(..., parallel=)``, ``open_session(parallel=)``, or
CLI ``repro replay --workers N``. ``parallel=None`` (the default)
bypasses this package entirely — the engine keeps its historical
inline code paths.
"""

from .backend import (
    ExecutionBackend,
    ParallelExecutionError,
    SerialBackend,
    SharedMemoryBackend,
    resolve_backend,
)
from .shm import ShmArena, ShmRef

__all__ = [
    "ExecutionBackend",
    "ParallelExecutionError",
    "SerialBackend",
    "SharedMemoryBackend",
    "ShmArena",
    "ShmRef",
    "resolve_backend",
]
