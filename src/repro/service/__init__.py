"""Supervised session runtime: the service layer over the Session API.

The engine and the persistence layer are crash-safe and deterministic
*per call*. This package adds the robustness a long-lived service needs
*between* calls:

* :class:`~repro.service.supervisor.SessionSupervisor` — bounded
  admission queue that coalesces incoming operations into
  ``apply_batch`` waves (exact-parity semantics make coalescing
  correctness-free), cost-aware time-boxed wave execution with leftover
  resume, deterministic retry/backoff for transient faults, a circuit
  breaker that degrades to the bit-exact inline path and periodically
  probes the transport again, stale-result load shedding for reads, and
  a checkpoint watchdog that keeps recovery time bounded.
* :mod:`~repro.service.policy` — the typed failure policy:
  :class:`RetryPolicy` (capped exponential backoff, deterministic — no
  wall-clock-seeded jitter), :class:`CircuitBreaker`, and the
  :class:`CostModel` that sizes waves and decides when a read is shed.
* :mod:`~repro.service.chaos` — seeded, deterministic runtime fault
  injectors (latency spikes, malformed batch ops, checkpoint-write
  failures, transient transport faults) that plug into the replay
  driver; under every injector the supervised run's final state
  digest is byte-identical to a fault-free run.
* :mod:`~repro.service.driver` — the supervised replay loop behind
  ``repro replay --supervised [--chaos ...]``.

The digest-safety contract (docs/ROBUSTNESS.md): supervision and chaos
may change *when* work happens — latency, wave boundaries, retry
counts, staleness of shed reads — but never *what* the engine computes.
Write order is FIFO (tuple-id assignment makes write order semantic).
"""

from repro.service.chaos import ChaosConfig, ChaosInjector, parse_chaos
from repro.service.clock import Clock, MonotonicClock, VirtualClock
from repro.service.driver import ServiceOptions, SupervisedDriver
from repro.service.policy import (
    BreakerOpenError,
    CircuitBreaker,
    CostModel,
    RetryExhaustedError,
    RetryPolicy,
    SupervisorConfig,
    TransientServiceError,
)
from repro.service.supervisor import (
    ReadView,
    ServiceReport,
    SessionSupervisor,
    result_digest,
)

__all__ = [
    "BreakerOpenError",
    "ChaosConfig",
    "ChaosInjector",
    "CircuitBreaker",
    "Clock",
    "CostModel",
    "MonotonicClock",
    "ReadView",
    "RetryExhaustedError",
    "RetryPolicy",
    "ServiceOptions",
    "ServiceReport",
    "SessionSupervisor",
    "SupervisedDriver",
    "SupervisorConfig",
    "TransientServiceError",
    "VirtualClock",
    "parse_chaos",
    "result_digest",
]
