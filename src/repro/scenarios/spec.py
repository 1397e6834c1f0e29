"""Declarative scenario specs and the scenario registry.

A :class:`Scenario` describes a dynamic workload *declaratively* — which
dataset to draw, how operations arrive, and when to snapshot results —
without fixing a dataset size or seed. Compiling a scenario
(:meth:`Scenario.compile`) materializes it into a fully deterministic,
serializable operation :class:`~repro.scenarios.trace.Trace` that any
registered algorithm can replay through the streaming Session API.

The split mirrors the algorithm registry in :mod:`repro.api.registry`:

* **arrival patterns** (``@arrival``) are reusable generators that turn
  a point matrix plus an RNG into a
  :class:`~repro.data.DynamicWorkload` and an optional batch plan;
* **scenarios** (``register_scenario``) bind an arrival pattern to a
  dataset, parameters, and a snapshot policy under a stable name.

Adding a new workload shape is therefore a ~20-line spec, not a new
harness: write (or reuse) an arrival pattern, then register a
:class:`Scenario` naming it. The built-in catalogue lives in
:mod:`repro.scenarios.builtins` and is loaded lazily on first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np


class UnknownScenarioError(KeyError):
    """Raised when a name resolves to no registered scenario."""

    def __init__(self, name: str, choices: list[str]) -> None:
        self.name = name
        self.choices = list(choices)
        super().__init__(
            f"unknown scenario {name!r}; choose from {', '.join(choices)}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


class UnknownArrivalError(KeyError):
    """Raised when a scenario names an unregistered arrival pattern."""

    def __init__(self, name: str, choices: list[str]) -> None:
        self.name = name
        self.choices = list(choices)
        super().__init__(
            f"unknown arrival pattern {name!r}; registered patterns: "
            f"{', '.join(choices)}")

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class Scenario:
    """One declarative dynamic-workload specification.

    Attributes
    ----------
    name : str
        Stable registry key (lowercase, dash-separated).
    summary : str
        One-line description shown by ``repro scenarios``.
    dataset : str
        Any :func:`repro.data.make_dataset` name (BB, AQ, CT, Movie,
        Indep, AntiCor); the compiled size defaults to ``n``.
    n : int
        Default dataset size; override per-compile with ``compile(n=...)``.
    arrival : str
        Name of a registered arrival pattern (see :func:`arrival`).
    params : mapping
        Extra keyword arguments for the arrival pattern. Sizes are
        expressed as fractions of ``n`` so scenarios scale cleanly.
    n_snapshots : int
        Snapshot policy: how many evenly spaced recording marks the
        compiled workload carries.
    service : mapping
        Supervisor hints for supervised replays (``repro replay
        --supervised``): keys are
        :class:`~repro.service.policy.SupervisorConfig` fields plus the
        driver's ``read_every``. Purely a runtime default —
        never part of the compiled trace or its content hash.
    """

    name: str
    summary: str
    dataset: str = "Indep"
    n: int = 2000
    arrival: str = "paper"
    params: Mapping[str, Any] = field(default_factory=dict)
    n_snapshots: int = 10
    service: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           MappingProxyType(dict(self.params)))
        object.__setattr__(self, "service",
                           MappingProxyType(dict(self.service)))

    def scaled(self, n: int) -> "Scenario":
        """A copy of this scenario with dataset size ``n``."""
        return replace(self, n=int(n))

    def compile(self, *, seed: int = 0, n: int | None = None):
        """Materialize the scenario into a deterministic operation trace.

        The dataset is drawn with ``seed`` and the arrival pattern with
        an RNG derived from ``(seed, scenario name)``, so the same
        ``(scenario, seed, n)`` always compiles to the same trace —
        byte-for-byte, across platforms (PCG64 and the JSON float repr
        are both platform-stable). That invariant is what the trace
        content hash asserts.
        """
        from repro.data import make_dataset
        from repro.scenarios.trace import Trace

        n = int(self.n if n is None else n)
        seed = int(seed)
        points = make_dataset(self.dataset, n=n, seed=seed)
        salt = sum(ord(c) for c in self.name)
        rng = np.random.default_rng([seed, salt])
        builder = get_arrival(self.arrival)
        workload, batch_plan = builder(points, rng=rng,
                                       n_snapshots=self.n_snapshots,
                                       **dict(self.params))
        return Trace(scenario=self.name, seed=seed, workload=workload,
                     batch_plan=batch_plan,
                     params={"dataset": self.dataset, "n": n,
                             "arrival": self.arrival, **dict(self.params)})


# ----------------------------------------------------------------------
# Arrival-pattern registry
# ----------------------------------------------------------------------

# A builder maps ``(points, *, rng, n_snapshots, **params)`` to
# ``(DynamicWorkload, batch_plan)`` where ``batch_plan`` is either None
# (replay one operation at a time) or a tuple of batch sizes summing to
# the number of operations.
ArrivalBuilder = Callable[..., tuple]

_ARRIVALS: dict[str, ArrivalBuilder] = {}


def arrival(name: str) -> Callable[[ArrivalBuilder], ArrivalBuilder]:
    """Decorator registering an arrival-pattern builder under ``name``."""
    def decorate(func: ArrivalBuilder) -> ArrivalBuilder:
        key = _normalize(name)
        existing = _ARRIVALS.get(key)
        if existing is not None and existing is not func:
            raise ValueError(f"arrival pattern {key!r} already registered")
        _ARRIVALS[key] = func
        return func
    return decorate


def get_arrival(name: str) -> ArrivalBuilder:
    """Resolve an arrival pattern by name (case-insensitive)."""
    _ensure_builtins()
    key = _normalize(name)
    try:
        return _ARRIVALS[key]
    except KeyError:
        raise UnknownArrivalError(name, sorted(_ARRIVALS)) from None


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------

_SCENARIOS: dict[str, Scenario] = {}
_builtins_loaded = False


def _normalize(name: str) -> str:
    return str(name).strip().lower()


def register_scenario(scenario: Scenario) -> Scenario:
    """Insert a scenario into the registry under its normalized name."""
    key = _normalize(scenario.name)
    scenario = replace(scenario, name=key)
    existing = _SCENARIOS.get(key)
    if existing is not None:
        raise ValueError(f"scenario {key!r} is already registered")
    _SCENARIOS[key] = scenario
    return scenario


def _ensure_builtins() -> None:
    global _builtins_loaded
    if not _builtins_loaded:
        import repro.scenarios.builtins  # noqa: F401  (registers built-ins)
        _builtins_loaded = True


def get_scenario(name: str) -> Scenario:
    """Resolve ``name`` to a registered scenario (case-insensitive)."""
    _ensure_builtins()
    key = _normalize(name)
    try:
        return _SCENARIOS[key]
    except KeyError:
        raise UnknownScenarioError(name, scenario_names()) from None


def list_scenarios() -> list[Scenario]:
    """All registered scenarios, sorted by name."""
    _ensure_builtins()
    return sorted(_SCENARIOS.values(), key=lambda s: s.name)


def scenario_names() -> list[str]:
    """Sorted names of all registered scenarios."""
    _ensure_builtins()
    return sorted(_SCENARIOS)
