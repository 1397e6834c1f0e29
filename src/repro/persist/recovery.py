"""Checkpoint restore with WAL roll-forward and verified parity.

The restore pipeline (wired into ``open_session(..., snapshot=...)``):

1. :func:`~repro.persist.checkpoint.load_checkpoint` — read the
   manifest, verify format version and per-array sha256 digests,
   rebuild the engine, and check its logical ``state_digest()`` against
   the digest recorded at save time;
2. read the WAL tail past the checkpoint's ``wal_position`` (strictly
   validated — a torn or malformed tail raises);
3. replay the tail through ``FDRMS.apply_batch`` — the exact code path
   a continuously-running engine takes, so the exact-parity contract of
   batched-vs-sequential updates extends to recovery: a restored engine
   is indistinguishable, digest for digest, from one that never went
   down.

Every detected fault raises :class:`CheckpointError` / :class:`WALError`
from the layer that found it; :func:`restore_engine` propagates them and
the session layer catches them to degrade gracefully to a cold start
(counted in ``stats()["recovery"]``). Nothing in this module ever
returns a partially restored engine.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.persist.checkpoint import CheckpointError, load_checkpoint
from repro.persist.wal import WALError, read_wal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fdrms import FDRMS

__all__ = ["restore_engine"]


def restore_engine(snapshot: str | Path, *,
                   wal: str | Path | None = None
                   ) -> tuple["FDRMS", dict[str, Any]]:
    """Restore an engine from a checkpoint, rolling the WAL forward.

    Returns ``(engine, info)`` where ``info`` records what happened:
    ``checkpoint_digest`` (state at the checkpoint), ``replayed_ops``
    (WAL tail length), ``wal_position`` (head after replay) and
    ``state_digest`` (the restored engine, post-replay). Raises
    :class:`CheckpointError` or :class:`WALError` on any detected
    fault — callers decide whether that means cold start.
    """
    engine, manifest = load_checkpoint(snapshot)
    info: dict[str, Any] = {
        "mode": "restored",
        "checkpoint_digest": manifest["state_digest"],
        "replayed_ops": 0,
        "wal_position": int(manifest.get("wal_position", 0)),
    }
    if wal is not None:
        start = int(manifest.get("wal_position", 0))
        tail, head = read_wal(wal, start)
        if tail:
            try:
                engine.apply_batch(tail)
            except (TypeError, ValueError, KeyError, IndexError) as exc:
                raise WALError(
                    f"{wal}: WAL tail replay failed at position "
                    f">= {start}: {exc}") from exc
        info["replayed_ops"] = len(tail)
        info["wal_position"] = head
    info["state_digest"] = engine.state_digest()
    return engine, info
