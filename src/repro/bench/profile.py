"""Component-level profiling of FD-RMS updates.

Breaks the per-operation cost of FD-RMS into its §III components:

* ``topk``  — ε-approximate top-k maintenance (threshold filter and repair scans),
* ``cover`` — stable set-cover maintenance (Algorithm 1 operations),

by wrapping the two subsystem objects in transparent timing proxies.
The complexity analysis of §III-B predicts the top-k side scales with
``u(Δ_t)·n_t`` and the cover side with ``m² log m``; the profile makes
that split measurable (see ``benchmarks/bench_profile_components.py``).
"""

from __future__ import annotations

import time

from repro.core.fdrms import FDRMS
from repro.data.database import Database
from repro.utils import Stopwatch


class _TimedProxy:
    """Wraps an object; every method call is timed under one segment."""

    def __init__(self, target, stopwatch: Stopwatch, segment: str) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_stopwatch", stopwatch)
        object.__setattr__(self, "_segment", segment)

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr
        stopwatch = self._stopwatch
        segment = self._segment

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                stopwatch.add(segment, time.perf_counter() - start)
        return timed

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        setattr(self._target, name, value)


class ProfiledFDRMS(FDRMS):
    """FD-RMS with a per-component stopwatch.

    Usage::

        algo = ProfiledFDRMS(db, k=1, r=10, eps=0.02, m_max=1024)
        ... updates ...
        algo.profile.total("topk"), algo.profile.total("cover")

    Note the proxies time *calls from FDRMS into the subsystem*; nested
    subsystem-internal calls are not double counted because the proxy
    wraps only the outer boundary.
    """

    def __init__(self, db: Database, k: int, r: int, eps: float, *,
                 m_max: int = 1024, seed=None) -> None:
        self.profile = Stopwatch()
        super().__init__(db, k, r, eps, m_max=m_max, seed=seed)
        # Wrap after construction so INITIALIZATION is not attributed to
        # the update segments.
        self._topk = _TimedProxy(self._topk, self.profile, "topk")
        self._wrap_cover()

    def _wrap_cover(self) -> None:
        if not isinstance(self._cover, _TimedProxy):
            self._cover = _TimedProxy(self._cover, self.profile, "cover")

    def _rebuild_cover(self) -> None:
        super()._rebuild_cover()   # installs a fresh StableSetCover
        self._wrap_cover()

    def delete(self, tuple_id: int) -> None:
        super().delete(tuple_id)
        # The drain-to-empty path installs a bare cover; re-wrap it.
        self._wrap_cover()

    def breakdown(self) -> dict[str, float]:
        """Seconds per component accumulated over all updates."""
        return self.profile.segments()
