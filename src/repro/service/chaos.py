"""Seeded runtime fault injection for the supervised session runtime.

PR 7 proved the persistence layer crash-safe with a fault-injecting
filesystem; this module does the same for the *runtime*: a
:class:`ChaosInjector` wraps the supervisor's transport and checkpoint
paths with deterministic, seeded faults, and the replay driver asserts
that the final state digest is byte-identical to a fault-free run.

The injector catalog:

``latency``
    Sleeps the supervisor's clock before a wave is applied — exercises
    wave time-boxing, deadline pressure, and stale-read shedding.
``transient``
    Raises :class:`~repro.service.policy.TransientServiceError`
    *before* delegating to the session (a failed attempt provably
    never mutated the engine, so the retry schedule is safe by
    construction). Bursts longer than the retry schedule exhaust it
    and exercise the inline fallback + circuit breaker.
``malformed``
    Emits poison requests (unknown kind, NaN coordinates, duplicate
    ids, ...) for the driver to submit alongside real traffic; the
    ``apply_batch`` validation boundary must reject them atomically.
``checkpoint``
    Raises ``OSError`` inside the checkpoint watchdog's write hook —
    a non-critical path that must retry, then skip, never corrupt.

Every injector is digest-safe **by construction**: faults are raised
before any mutation, latency only advances the clock, and poison
requests are rejected at the validation boundary. All randomness flows
through one ``np.random.default_rng([seed, salt])`` stream (reprolint
RPL003), so a chaos run replays exactly under a virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.service.clock import Clock
from repro.service.policy import TransientServiceError

__all__ = ["ChaosConfig", "ChaosInjector", "parse_chaos"]

# Stream salt, derived from the module name the same way scenario
# compilation salts its seed (spec.py convention).
_SALT = sum(ord(ch) for ch in "chaos")


@dataclass(frozen=True)
class ChaosConfig:
    """Which injectors run, and how hard. Rates are per transport call
    (``malformed_rate`` is per driver feed)."""

    seed: int = 0
    latency_rate: float = 0.0
    latency_s: float = 0.005
    transient_rate: float = 0.0
    #: Consecutive transient faults per trigger; longer than the retry
    #: schedule (default 4 attempts) exhausts it.
    transient_burst: int = 2
    malformed_rate: float = 0.0
    checkpoint_fail_rate: float = 0.0

    @property
    def active(self) -> tuple[str, ...]:
        """Names of the enabled injectors (for reports)."""
        names = []
        if self.latency_rate > 0:
            names.append("latency")
        if self.transient_rate > 0:
            names.append("transient")
        if self.malformed_rate > 0:
            names.append("malformed")
        if self.checkpoint_fail_rate > 0:
            names.append("checkpoint")
        return tuple(names)


#: Defaults applied when an injector is named without parameters.
_PRESETS: dict[str, dict[str, Any]] = {
    "latency": {"latency_rate": 0.25, "latency_s": 0.005},
    "transient": {"transient_rate": 0.15, "transient_burst": 2},
    "malformed": {"malformed_rate": 0.1},
    "checkpoint": {"checkpoint_fail_rate": 0.5},
}

#: Spec keys accepted per injector: spec key -> (config field, parser).
_PARAMS: dict[str, dict[str, tuple[str, Callable[[str], Any]]]] = {
    "latency": {"rate": ("latency_rate", float),
                "dur": ("latency_s", float)},
    "transient": {"rate": ("transient_rate", float),
                  "burst": ("transient_burst", int)},
    "malformed": {"rate": ("malformed_rate", float)},
    "checkpoint": {"rate": ("checkpoint_fail_rate", float)},
}


def parse_chaos(spec: str, seed: int = 0) -> ChaosConfig:
    """Parse a ``--chaos`` spec string into a :class:`ChaosConfig`.

    The spec is a comma-separated list of injector names, each with
    optional colon-separated ``key=value`` parameters::

        latency
        latency:rate=0.5:dur=0.01,transient:burst=3
        all

    ``all`` enables every injector at its preset intensity.
    """
    config = ChaosConfig(seed=seed)
    names = list(_PRESETS) if spec.strip() == "all" else [
        token for token in spec.split(",") if token.strip()]
    if not names:
        raise ValueError("empty chaos spec")
    for token in names:
        parts = token.strip().split(":")
        name = parts[0]
        if name not in _PRESETS:
            raise ValueError(
                f"unknown chaos injector {name!r}; "
                f"expected one of {sorted(_PRESETS)} or 'all'")
        config = replace(config, **_PRESETS[name])
        for part in parts[1:]:
            key, sep, raw = part.partition("=")
            if not sep or key not in _PARAMS[name]:
                raise ValueError(
                    f"bad chaos parameter {part!r} for {name!r}; "
                    f"expected one of {sorted(_PARAMS[name])}")
            field_name, parse = _PARAMS[name][key]
            config = replace(config, **{field_name: parse(raw)})
    return config


# Poison-request catalog for the ``malformed`` injector. Each entry is
# a batch that must be rejected whole by the validation boundary.
_POISON: tuple[tuple[dict[str, Any], ...], ...] = (
    ({"kind": "mutate", "id": 0},),                       # unknown kind
    ({"kind": "insert"},),                                # missing point
    ({"kind": "delete"},),                                # missing id
    ({"kind": "insert", "point": [float("nan"), 0.5]},),  # NaN coordinate
    ({"kind": "delete", "id": 3}, {"kind": "delete", "id": 3}),  # dup ids
)


class ChaosInjector:
    """Deterministic fault source bound to one supervised run.

    ``transport(session)`` returns the wave-application callable the
    supervisor should use instead of ``session.apply_batch``;
    ``on_checkpoint`` is the watchdog hook; ``poison_request()`` is
    polled by the driver once per feed. ``counters`` tallies every
    injected fault for the service report (never any digest).
    """

    def __init__(self, config: ChaosConfig, clock: Clock) -> None:
        self.config = config
        self._clock = clock
        self._rng = np.random.default_rng([config.seed, _SALT])
        self._wave_index = 0
        self._pending_transient = 0
        self.counters: dict[str, int] = {
            "latency_spikes": 0, "transient_faults": 0,
            "malformed_injected": 0, "checkpoint_faults": 0,
        }

    def _draw(self, rate: float) -> bool:
        return rate > 0 and float(self._rng.random()) < rate

    # -- transport -----------------------------------------------------
    def transport(self, session: Any) -> Callable[[Sequence[Any]], Any]:
        """Wrap ``session.apply_batch`` with the enabled wave faults.

        Fault ordering per call: latency, then transient fault — both
        strictly *before* delegating, so a raising call never mutated
        the engine and the supervisor's retry is safe.
        """
        def apply(ops: Sequence[Any]) -> Any:
            self._wave_index += 1
            if self._draw(self.config.latency_rate):
                self.counters["latency_spikes"] += 1
                self._clock.sleep(self.config.latency_s)
            if self._pending_transient > 0 or self._draw(
                    self.config.transient_rate):
                if self._pending_transient == 0:
                    self._pending_transient = max(
                        1, self.config.transient_burst)
                self._pending_transient -= 1
                self.counters["transient_faults"] += 1
                raise TransientServiceError(
                    f"chaos: injected transport fault "
                    f"(wave {self._wave_index})")
            return session.apply_batch(ops)

        return apply

    # -- checkpoint ----------------------------------------------------
    def on_checkpoint(self) -> None:
        """Watchdog hook: sometimes the checkpoint write "fails"."""
        if self._draw(self.config.checkpoint_fail_rate):
            self.counters["checkpoint_faults"] += 1
            raise OSError("chaos: injected checkpoint-write failure")

    # -- admission -----------------------------------------------------
    def poison_request(self) -> list[dict[str, Any]] | None:
        """A malformed batch to submit this feed, or None.

        The driver submits it like real traffic and requires the typed
        rejection — validation failing to reject (or rejecting
        non-atomically) fails the digest-parity assertion downstream.
        """
        if not self._draw(self.config.malformed_rate):
            return None
        choice = int(self._rng.integers(len(_POISON)))
        self.counters["malformed_injected"] += 1
        return [dict(op) for op in _POISON[choice]]
