"""Typed failure policy: retry schedules, circuit breaking, cost model.

Three small, independently testable pieces the supervisor composes:

* :class:`RetryPolicy` — capped exponential backoff with a fully
  deterministic schedule. No jitter by design: retry timing must be a
  pure function of the attempt number so fault-injection runs replay
  exactly (CONTRIBUTING's determinism checklist; wall-clock-seeded
  jitter would also trip reprolint RPL005's spirit even where its
  letter only bans date reads).
* :class:`CircuitBreaker` — closed / open / half-open over a failure
  counter and a clock. While open, callers take the bit-exact inline
  path; after ``reset_after_s`` the breaker half-opens and allows one
  probe wave through the transport again.
* :class:`CostModel` — per-kind EWMA of observed per-operation cost,
  seeded with a prior so the first wave is already bounded. It sizes
  write waves against their time-box and decides when a read's
  estimated cost exceeds its deadline (the read is then shed).

Transient-vs-permanent classification is explicit:
:func:`is_transient` names the retryable exception types; everything
else propagates immediately (retrying a deterministic failure only
repeats it, and retrying a partially-applied engine fault could
double-apply).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.service.clock import Clock


class TransientServiceError(RuntimeError):
    """A retryable fault in the service transport."""


class RetryExhaustedError(RuntimeError):
    """A transient fault persisted through the whole retry schedule."""

    def __init__(self, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"transient fault persisted through {attempts} attempts: "
            f"{type(last).__name__}: {last}")
        self.attempts = attempts
        self.last = last


class BreakerOpenError(RuntimeError):
    """Raised when a probe is requested while the breaker is open."""


#: Exception types the supervisor treats as transient. Everything else
#: is permanent: it propagates to the caller un-retried.
TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    TransientServiceError,
    TimeoutError,
    OSError,
)


def is_transient(exc: BaseException) -> bool:
    """True when ``exc`` is worth retrying under the backoff schedule."""
    return isinstance(exc, TRANSIENT_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with a deterministic schedule.

    ``delays()`` yields ``max_attempts - 1`` sleep durations (no sleep
    precedes the first attempt): ``base_delay_s * factor**i`` capped at
    ``max_delay_s``. The schedule is a pure function of the policy —
    no jitter — so retry timing replays exactly under a virtual clock.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.005
    factor: float = 2.0
    max_delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")

    def delays(self) -> Iterator[float]:
        """The deterministic backoff schedule, one delay per retry."""
        for attempt in range(self.max_attempts - 1):
            yield min(self.base_delay_s * self.factor ** attempt,
                      self.max_delay_s)


CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-counting breaker with clock-based half-open probes.

    ``record_success`` / ``record_failure`` drive the state machine:
    ``failure_threshold`` consecutive failures open the breaker; after
    ``reset_after_s`` on the supplied clock :meth:`should_probe`
    returns True exactly once per interval (half-open), and the next
    ``record_success`` closes the breaker again while a failure
    re-opens it (restarting the interval). Counters are exposed for
    the service report; none of this state ever reaches a digest.
    """

    def __init__(self, clock: Clock, *, failure_threshold: int = 3,
                 reset_after_s: float = 0.5) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self._clock = clock
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.probes = 0
        self.recoveries = 0
        self._opened_at = 0.0

    @property
    def is_open(self) -> bool:
        return self.state != CLOSED

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self.recoveries += 1
        self.state = CLOSED
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
                self.state == CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self.state = OPEN
            self.trips += 1
            self._opened_at = self._clock.now()
        elif self.state == OPEN:
            # Failure while open (shouldn't normally be reported, but a
            # probe path may) restarts the cool-down.
            self._opened_at = self._clock.now()

    def should_probe(self) -> bool:
        """True once per cool-down interval while open (→ half-open)."""
        if self.state != OPEN:
            return False
        if self._clock.now() - self._opened_at < self.reset_after_s:
            return False
        self.state = HALF_OPEN
        self.probes += 1
        return True


class CostModel:
    """EWMA per-operation cost estimates, per operation kind.

    Observed wave costs (seconds, from the supervisor's clock) update
    the per-kind estimate with weight ``alpha``; until a kind has been
    observed, ``prior_s`` bounds the first wave. Estimates feed two
    decisions: write-wave sizing against the wave time-box, and whether
    a read's estimated cost exceeds its deadline (it is then shed).
    """

    def __init__(self, *, prior_s: float = 1e-4, alpha: float = 0.3) -> None:
        self.prior_s = float(prior_s)
        self.alpha = float(alpha)
        self._est: dict[str, float] = {}

    def estimate(self, kind: str) -> float:
        """Estimated seconds for one operation of ``kind``."""
        return self._est.get(kind, self.prior_s)

    def estimate_ops(self, kinds: "list[str] | tuple[str, ...]") -> float:
        """Estimated seconds for a sequence of operations."""
        return sum(self.estimate(kind) for kind in kinds)

    def observe(self, kind: str, per_op_seconds: float) -> None:
        """Blend one observed per-op cost into the ``kind`` estimate."""
        per_op_seconds = max(0.0, float(per_op_seconds))
        prev = self._est.get(kind)
        if prev is None:
            self._est[kind] = per_op_seconds
        else:
            self._est[kind] = (self.alpha * per_op_seconds
                               + (1.0 - self.alpha) * prev)


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of one :class:`~repro.service.SessionSupervisor`.

    All durations are seconds on the supervisor's clock. Defaults suit
    the scenario scale CI replays (hundreds to thousands of ops); a
    real deployment would raise the queue and wave limits with the
    machine.
    """

    #: Bounded admission: queued (admitted, unapplied) operations never
    #: exceed this. A submit that would overflow first drains waves
    #: inline (backpressure) — writes are never dropped.
    queue_limit: int = 4096
    #: Hard cap on operations per ``apply_batch`` wave.
    max_wave: int = 512
    #: Time-box for one wave: the cost model sizes the wave so its
    #: estimated cost fits; leftover ops resume in the next wave.
    wave_budget_s: float = 0.05
    #: Time-box for one ``pump()`` call (several waves).
    pump_budget_s: float = 0.25
    #: Default deadline for ``read()``; beyond it the last materialized
    #: result is served with a staleness marker instead of blocking.
    read_deadline_s: float = 0.05
    #: Checkpoint watchdog: checkpoint every N applied ops (0 = off;
    #: requires a checkpoint directory).
    checkpoint_every_ops: int = 0
    #: Retry policy for transient faults (deterministic schedule).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Breaker: consecutive transient failures before degrading to the
    #: inline path.
    breaker_threshold: int = 3
    #: Breaker cool-down before a half-open transport probe.
    breaker_reset_s: float = 0.5
    #: Cost-model prior and blend weight.
    cost_prior_s: float = 1e-4
    cost_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.max_wave < 1:
            raise ValueError("max_wave must be >= 1")
