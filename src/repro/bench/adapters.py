"""Algorithm adapters implementing the paper's dynamic protocol (§IV-A).

FD-RMS is natively dynamic. Every static baseline is wrapped in
:class:`StaticAdapter`, which maintains the skyline incrementally and
re-runs the algorithm *only when an operation changes the skyline* —
exactly the protocol the paper uses, including its timing rule: "we only
took the time for k-RMS computation into account and ignored the time
for skyline maintenance".

Because pure-Python baselines recomputing hundreds of times would make
laptop-scale sweeps take hours without changing any conclusion, the
adapter supports an *estimating* mode (default): it counts the skyline
changes in each snapshot interval, recomputes once per snapshot, and
charges ``changes × recompute_time`` as the interval's k-RMS time. With
``estimate=False`` it recomputes on every change, which is the paper's
literal protocol. Both modes return identical results (the result after
op ``t`` depends only on the skyline after op ``t``); only the timing
estimator differs, and EXPERIMENTS.md reports which mode produced each
table.

State maintenance itself lives in :mod:`repro.api.session` — adapters
add only the paper's *timing* accounting on top of a
:class:`~repro.api.session.Session`. Dispatch is registry-driven:
:func:`adapter_for` (and the derived :data:`BASELINE_FACTORIES` table)
looks algorithms up in :mod:`repro.api.registry`, so a newly registered
algorithm is benchmarkable with no edits here.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.api.registry import AlgorithmSpec, get_algorithm, list_algorithms
from repro.api.session import FDRMSSession, RecomputeSession
from repro.data.database import Operation


class DynamicAdapter:
    """Common interface the harness drives.

    ``apply(op)`` processes one operation and returns the seconds of
    *algorithm* time it cost (excluding harness bookkeeping).
    ``result_points()`` returns the current k-RMS result as a matrix.
    """

    name: str = "base"

    def apply(self, op: Operation) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def result_points(self) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def finish_interval(self) -> float:
        """Extra time to charge at a snapshot boundary (default none)."""
        return 0.0


class FDRMSAdapter(DynamicAdapter):
    """Drives :class:`repro.core.FDRMS` (natively fully dynamic)."""

    def __init__(self, initial_points, k: int, r: int, eps: float, *,
                 m_max: int = 1024, seed=None) -> None:
        self.name = "FD-RMS"
        self.session = FDRMSSession(initial_points, r, k, eps=eps,
                                    m_max=m_max, seed=seed)
        self.init_seconds = self.session.init_seconds

    @property
    def db(self):
        return self.session.db

    @property
    def algo(self):
        """The underlying :class:`repro.core.FDRMS` engine."""
        return self.session.engine

    def apply(self, op: Operation) -> float:
        self.session.apply(op)
        return self.session.last_apply_seconds

    def result_points(self) -> np.ndarray:
        return self.session.result_points()


class StaticAdapter(DynamicAdapter):
    """Wraps a static baseline with skyline-triggered recomputation.

    Parameters
    ----------
    initial_points : (n0, d) array
    algorithm : callable(points, **kwargs) -> row indices
        A static baseline from :mod:`repro.baselines`.
    kwargs : dict
        Passed through to ``algorithm`` (including ``r`` / ``k``).
    use_skyline : bool
        Run the algorithm on the skyline (True for 1-RMS algorithms;
        k > 1 algorithms need the full database — §IV-B).
    estimate : bool
        Timing estimator mode (see module docstring). Results are
        unaffected.
    """

    def __init__(self, initial_points, algorithm, *, name: str,
                 kwargs: dict | None = None, use_skyline: bool = True,
                 estimate: bool = True) -> None:
        self.name = name
        self._estimate = estimate
        self._pending_changes = 0
        fixed = dict(kwargs or {})
        self.session = RecomputeSession(
            initial_points, lambda pool: algorithm(pool, **fixed),
            name=name, use_skyline=use_skyline)

    @classmethod
    def from_spec(cls, spec: AlgorithmSpec, initial_points, k: int, r: int, *,
                  seed=None, estimate: bool = True,
                  options: Mapping[str, Any] | None = None
                  ) -> "StaticAdapter":
        """Registry path: bench defaults + routed options drive the spec."""
        merged = dict(spec.bench_kwargs)
        merged.update(dict(options or {}))
        kwargs = spec.build_kwargs(r=r, k=k, seed=seed, options=merged)
        return cls(initial_points, spec.func, name=spec.display_name,
                   kwargs=kwargs,
                   use_skyline=spec.capabilities.skyline_pool,
                   estimate=estimate)

    @property
    def db(self):
        return self.session.db

    @property
    def skyline(self):
        return self.session._skyline

    # -- protocol ------------------------------------------------------
    def apply(self, op: Operation) -> float:
        self.session.apply(op)
        if not self.session.last_changed:
            return 0.0
        if self._estimate:
            self._pending_changes += 1
            return 0.0
        return self.session.recompute()

    def finish_interval(self) -> float:
        """Charge estimated recompute time for the past interval."""
        if not self._estimate:
            return 0.0
        seconds = 0.0
        if self.session.dirty:
            seconds = self.session.recompute()
        charged = seconds * max(0, self._pending_changes - 1)
        self._pending_changes = 0
        return seconds + charged

    def result_points(self) -> np.ndarray:
        return self.session.result_points()


# ----------------------------------------------------------------------
# Registry-driven factories used by the figure benchmarks
# ----------------------------------------------------------------------

def adapter_for(name: str, initial_points, k: int, r: int, *, seed=None,
                estimate: bool = True, **options: Any) -> DynamicAdapter:
    """Instantiate the benchmark adapter for any registered algorithm.

    ``options`` form a shared bag (e.g. the CLI passes ``eps`` and
    ``m_max`` for every algorithm); each key is forwarded only to
    algorithms whose signature accepts it, so callers need no
    per-algorithm dispatch.
    """
    spec = get_algorithm(name)
    routed = {key: value for key, value in options.items()
              if spec.accepts_var_kwargs or key in spec.option_names}
    if spec.capabilities.dynamic:
        eps = routed.pop("eps", 0.02)
        if eps == "auto":
            from repro.core.tuning import suggest_epsilon
            eps = suggest_epsilon(np.asarray(initial_points, dtype=float),
                                  k, r, seed=seed)
        return FDRMSAdapter(initial_points, k, r, eps, seed=seed, **routed)
    return StaticAdapter.from_spec(spec, initial_points, k, r, seed=seed,
                                   estimate=estimate, options=routed)


class _FactoryTable(Mapping):
    """Live display-name → adapter-factory view over the registry.

    Lookups query :func:`repro.api.registry.list_algorithms` on every
    access, so an algorithm registered after import (e.g. a user
    ``@register``) shows up here without re-importing this module.
    """

    @staticmethod
    def _factory(spec: AlgorithmSpec):
        def factory(initial_points, k, r, *, seed=None, estimate=True,
                    **options):
            return adapter_for(spec.name, initial_points, k, r, seed=seed,
                               estimate=estimate, **options)
        factory.display_name = spec.display_name
        return factory

    @staticmethod
    def _specs() -> list[AlgorithmSpec]:
        specs = [spec for spec in list_algorithms() if spec.bench]
        specs.sort(key=lambda s: (not s.capabilities.dynamic, s.name))
        return specs  # FD-RMS first, then statics alphabetically

    def __getitem__(self, name: str):
        for spec in self._specs():
            if spec.display_name == name:
                return self._factory(spec)
        raise KeyError(name)

    def __iter__(self):
        return iter(spec.display_name for spec in self._specs())

    def __len__(self) -> int:
        return len(self._specs())


BASELINE_FACTORIES = _FactoryTable()
