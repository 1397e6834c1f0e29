"""Versioned, digest-verified engine checkpoints.

A checkpoint is a directory with two files:

* ``state.npz`` — every engine array (uncompressed: restore speed is the
  point, and the zip container's CRC32 still catches torn writes and bit
  flips at read time);
* ``manifest.json`` — format kind/version, the engine config, per-array
  sha256 digests (dtype + shape + bytes), the logical ``state_digest``
  of the exported engine, and the WAL position the checkpoint covers.

Both files are written atomically (tmp + fsync + ``os.replace``) and the
manifest is written *last*: its presence is the commit point, so a crash
between the two stages leaves either the previous complete checkpoint or
no (new) checkpoint — never a half-written one that could load.

Every failure mode on the load path — missing files, truncation, flipped
bits, future format versions, inconsistent arrays — surfaces as a typed
:class:`CheckpointError`, which callers (the recovery layer) translate
into a clean cold start. A checkpoint never loads silently corrupt: the
restored engine's ``state_digest()`` must equal the digest recorded at
save time.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.persist.atomic import write_json_atomic, write_via_handle_atomic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.fdrms import FDRMS

__all__ = ["CheckpointError", "MANIFEST_NAME", "STATE_NAME",
           "load_checkpoint", "save_checkpoint", "verify_checkpoint"]

_KIND = "fdrms-checkpoint"
_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
STATE_NAME = "state.npz"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or from an unknown format."""


def _array_digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{a.dtype.str}:{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def save_checkpoint(engine: "FDRMS", directory: str | Path, *,
                    wal_position: int = 0) -> dict[str, Any]:
    """Write a checkpoint of ``engine`` into ``directory``.

    Returns the manifest. ``wal_position`` records how many WAL
    operations the exported state already includes, so recovery replays
    only the tail.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        config, arrays = engine.export_state()
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"engine state is not exportable: {exc}") \
            from exc
    manifest: dict[str, Any] = {
        "kind": _KIND,
        "version": _FORMAT_VERSION,
        "config": config,
        "wal_position": int(wal_position),
        "state_digest": engine.state_digest(),
        "arrays": {
            name: {"dtype": np.asarray(arr).dtype.str,
                   "shape": list(np.asarray(arr).shape),
                   "sha256": _array_digest(arr)}
            for name, arr in arrays.items()
        },
    }
    write_via_handle_atomic(directory / STATE_NAME,
                            lambda h: np.savez(h, **arrays))
    # The manifest commits the checkpoint; it must land after the state.
    write_json_atomic(directory / MANIFEST_NAME, manifest, sort_keys=True)
    return manifest


def _read_manifest(directory: Path) -> dict[str, Any]:
    path = directory / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise CheckpointError(f"{directory}: no checkpoint manifest") \
            from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest: {exc}") from exc
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: malformed manifest") from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != _KIND:
        raise CheckpointError(f"{path}: not a checkpoint manifest")
    version = int(manifest.get("version", -1))
    if version > _FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format v{version} is newer than this "
            f"library (v{_FORMAT_VERSION})")
    if version < 1:
        raise CheckpointError(f"{path}: bad checkpoint version {version}")
    return manifest


def _read_arrays(directory: Path,
                 manifest: dict[str, Any]) -> dict[str, np.ndarray]:
    path = directory / STATE_NAME
    expected = manifest.get("arrays")
    if not isinstance(expected, dict):
        raise CheckpointError(f"{path}: manifest lists no arrays")
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except FileNotFoundError as exc:
        raise CheckpointError(f"{path}: checkpoint state missing") from exc
    except (zipfile.BadZipFile, EOFError, OSError, ValueError,
            KeyError) as exc:
        raise CheckpointError(f"{path}: corrupt state bundle: {exc}") \
            from exc
    if set(arrays) != set(expected):
        raise CheckpointError(
            f"{path}: state arrays do not match the manifest")
    for name, meta in expected.items():
        arr = arrays[name]
        if (arr.dtype.str != meta["dtype"]
                or list(arr.shape) != list(meta["shape"])
                or _array_digest(arr) != meta["sha256"]):
            raise CheckpointError(
                f"{path}: array {name!r} fails digest verification")
    return arrays


def load_checkpoint(directory: str | Path
                    ) -> tuple["FDRMS", dict[str, Any]]:
    """Load and fully verify a checkpoint; returns ``(engine, manifest)``.

    Verification is end to end: manifest kind/version, per-array sha256
    digests, structural validation during state import, and finally the
    restored engine's logical ``state_digest()`` against the digest
    recorded at save time. Any failure raises :class:`CheckpointError`.
    """
    from repro.core.fdrms import FDRMS

    directory = Path(directory)
    manifest = _read_manifest(directory)
    arrays = _read_arrays(directory, manifest)
    try:
        engine = FDRMS.from_state(manifest["config"], arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{directory}: checkpoint state rejected: {exc}") from exc
    digest = engine.state_digest()
    if digest != manifest.get("state_digest"):
        raise CheckpointError(
            f"{directory}: restored engine digest {digest} does not "
            f"match the checkpoint ({manifest.get('state_digest')})")
    return engine, manifest


def verify_checkpoint(directory: str | Path) -> dict[str, Any]:
    """Run the full load-path verification; returns the manifest."""
    _, manifest = load_checkpoint(directory)
    return manifest
