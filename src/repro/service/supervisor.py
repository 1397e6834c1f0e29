"""The supervised session runtime: admission, waves, failure policy.

:class:`SessionSupervisor` wraps any streaming
:class:`~repro.api.session.Session` behind a bounded admission queue
and drives it in ``apply_batch`` waves. The design invariant — the
reason every robustness feature here is digest-safe — is:

    Supervision changes *when* work happens, never *what* is computed.

Concretely:

* **Admission / coalescing.** Submitted operations join a bounded FIFO
  queue and are applied in coalesced waves. Batched-vs-sequential
  exact parity (PR 2/5) means wave boundaries are free: any split of
  the same operation sequence yields a byte-identical engine state.
* **Write order is semantic.** Tuple ids are assigned in application
  order, so write operations are *never* reordered.
* **Time-boxed waves, leftover resume.** The cost model sizes each
  wave so its estimated cost fits the wave budget; whatever remains
  queued simply resumes in the next wave. Deadlines bound latency,
  never drop writes.
* **Typed failure policy.** Transient faults (see
  :func:`~repro.service.policy.is_transient`) retry on a deterministic
  backoff schedule, but only when the engine provably did not mutate
  (a cheap ``(capacity, size)`` witness detects partial application);
  exhaustion falls back to the bit-exact inline path and feeds the
  circuit breaker, whose half-open probes retry the transport.
* **Load shedding.** Reads past their deadline are served from the
  last materialized result with an explicit staleness marker
  (``ReadView.stale`` + ``lag_ops``) instead of blocking. Writes are
  never shed: a full queue pushes back by draining waves inline during
  ``submit`` (bounded admission latency, counted).
* **Checkpoint watchdog.** Every ``checkpoint_every_ops`` applied
  operations the session is checkpointed (retry-wrapped; failures on
  this non-critical path are counted and skipped, never fatal), so
  recovery time stays bounded.

None of the service counters ever feed a replay digest — see
docs/ROBUSTNESS.md for the full contract table.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.api.session import Session, validate_batch
from repro.data.database import Operation
from repro.service.clock import Clock, MonotonicClock
from repro.service.policy import (
    CircuitBreaker,
    CostModel,
    RetryExhaustedError,
    SupervisorConfig,
    is_transient,
)

__all__ = ["ReadView", "ServiceReport", "SessionSupervisor", "result_digest"]

#: Cost-model key for result materialization (reads).
_READ_KIND = "read"

#: Admission latencies kept per supervisor: the most recent submits
#: only, so a long-lived tenant's memory and each stats call's
#: percentile cost stay bounded.
ADMISSION_WINDOW = 4096


def result_digest(session: Session) -> str:
    """Wave-boundary-invariant digest of a session's observable state.

    Hashes the alive database content (ids in ascending order plus
    their point rows — exact input bytes, untouched by execution
    strategy) and the current result id sequence. Unlike the engine's
    ``state_digest`` it excludes derived float caches
    (``member_scores``/``tau``), which can differ in the last ulp
    between batch-GEMM and singleton scoring paths when wave boundaries
    move — so this digest is the one chaos/overload legs (and the
    server's digest-parity checks) with time-dependent wave splits are
    compared on.

    Module-level so the network server and its load generator can
    compute the *same* digest on both the served and the inline
    reference side without holding a supervisor.
    """
    h = hashlib.sha256()
    ids, points = session.db.snapshot()
    h.update(np.ascontiguousarray(ids, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(points, dtype=np.float64).tobytes())
    result = np.asarray(list(session.result()), dtype=np.int64)
    h.update(result.tobytes())
    return f"sha256:{h.hexdigest()}"


@dataclass(frozen=True)
class ReadView:
    """A served read: result ids plus an explicit staleness marker.

    ``stale`` is True when the view was shed from the last materialized
    result instead of draining the queue; ``lag_ops`` is the number of
    admitted-but-unapplied operations the view is behind by (0 for a
    fresh view).
    """

    ids: tuple[int, ...]
    stale: bool
    lag_ops: int


@dataclass
class ServiceReport:
    """Runtime counters of one supervisor (never part of any digest)."""

    admitted_requests: int = 0
    admitted_ops: int = 0
    rejected_requests: int = 0
    waves: int = 0
    applied_ops: int = 0
    resumed_pumps: int = 0
    backpressure_events: int = 0
    max_queue_depth: int = 0
    retries: int = 0
    retry_exhausted: int = 0
    inline_fallbacks: int = 0
    fresh_serves: int = 0
    stale_serves: int = 0
    forced_materializations: int = 0
    checkpoints: int = 0
    checkpoint_failures: int = 0
    admission_ms: deque[float] = field(
        default_factory=lambda: deque(maxlen=ADMISSION_WINDOW))

    def admission_percentiles(self) -> dict[str, float]:
        """p50/p99/max admission latency (ms) over the last
        :data:`ADMISSION_WINDOW` submit calls."""
        if not self.admission_ms:
            return {"p50": 0.0, "p99": 0.0, "max": 0.0}
        lat = np.asarray(self.admission_ms, dtype=float)
        p50, p99 = np.percentile(lat, [50, 99])
        return {"p50": round(float(p50), 5), "p99": round(float(p99), 5),
                "max": round(float(lat.max()), 5)}

    def to_dict(self) -> dict[str, Any]:
        out = {key: value for key, value in sorted(vars(self).items())
               if key != "admission_ms"}
        out["admission_latency_ms"] = self.admission_percentiles()
        return out


class SessionSupervisor:
    """Bounded, deadline-aware, failure-typed runtime over a Session.

    Parameters
    ----------
    session : Session
        The wrapped session. The supervisor does not own it: callers
        close the session themselves after :meth:`drain`.
    config : SupervisorConfig
        Queue, wave, deadline, retry, and breaker tunables.
    clock : Clock
        Injectable time source (virtual in tests, monotonic in
        services). All deadlines and backoff sleeps use it.
    transport : callable, optional
        Replaces ``session.apply_batch`` as the wave-application path —
        the chaos layer wraps the session here. Contract: a transport
        that raises must not have mutated the engine (the supervisor
        additionally verifies this with a mutation witness before
        retrying).
    checkpoint_dir : path-like, optional
        Enables the checkpoint watchdog (with
        ``config.checkpoint_every_ops > 0`` and a session that has a
        ``checkpoint`` method).
    checkpoint_hook : callable, optional
        Called before every watchdog checkpoint (the chaos layer
        injects checkpoint-write failures here).
    """

    def __init__(self, session: Session,
                 config: SupervisorConfig | None = None, *,
                 clock: Clock | None = None,
                 transport: Callable[[Sequence[Operation]], Any] | None = None,
                 checkpoint_dir: Any = None,
                 checkpoint_hook: Callable[[], None] | None = None) -> None:
        self._session = session
        self.config = config or SupervisorConfig()
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._transport = transport if transport is not None \
            else session.apply_batch
        self._queue: deque[Operation] = deque()
        self._cost = CostModel(prior_s=self.config.cost_prior_s,
                               alpha=self.config.cost_alpha)
        self._breaker = CircuitBreaker(
            self._clock, failure_threshold=self.config.breaker_threshold,
            reset_after_s=self.config.breaker_reset_s)
        self.report = ServiceReport()
        self._last_result: tuple[int, ...] | None = None
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_hook = checkpoint_hook
        self._ops_since_checkpoint = 0

    # -- introspection -------------------------------------------------
    @property
    def session(self) -> Session:
        return self._session

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    @property
    def pending_ops(self) -> int:
        """Admitted operations not yet applied."""
        return len(self._queue)

    def state_digest(self) -> str | None:
        """The wrapped engine's logical state digest (FD-RMS only)."""
        engine = getattr(self._session, "engine", None)
        digest = getattr(engine, "state_digest", None)
        return digest() if callable(digest) else None

    def result_digest(self) -> str:
        """The wrapped session's :func:`result_digest`."""
        return result_digest(self._session)

    def counters(self) -> dict[str, Any]:
        """Service counters + breaker state, JSON-ready.

        Everything here describes *when* work happened (latency, waves,
        retries, staleness), so none of it ever feeds a replay digest.
        """
        out = self.report.to_dict()
        out["pending_ops"] = len(self._queue)
        out["breaker"] = {
            "state": self._breaker.state,
            "trips": self._breaker.trips,
            "probes": self._breaker.probes,
            "recoveries": self._breaker.recoveries,
        }
        return out

    # -- admission -----------------------------------------------------
    def submit(self, ops: Iterable[Operation | dict[str, Any]]) -> int:
        """Validate and admit a request; returns the ops admitted.

        The whole request is validated *before* anything is queued — a
        malformed request is rejected atomically
        (:class:`~repro.api.session.BatchValidationError`) and the
        engine state is untouched. When admitting would overflow the
        bounded queue, the supervisor pushes back by draining waves
        inline until the request fits: admission latency grows under
        overload (measured, reported as percentiles) but acknowledged
        writes are never dropped.
        """
        start = self._clock.now()
        try:
            batch = validate_batch(ops, d=self._session.db.d)
        except Exception:
            self.report.rejected_requests += 1
            raise
        while (self._queue and
               len(self._queue) + len(batch) > self.config.queue_limit):
            self.report.backpressure_events += 1
            self._pump_wave()
        self._queue.extend(batch)
        self.report.admitted_requests += 1
        self.report.admitted_ops += len(batch)
        self.report.max_queue_depth = max(self.report.max_queue_depth,
                                          len(self._queue))
        self.report.admission_ms.append(
            1e3 * (self._clock.now() - start))
        return len(batch)

    # -- wave execution ------------------------------------------------
    def _next_wave(self) -> list[Operation]:
        """Dequeue the next cost-sized wave (always >= 1 op if queued)."""
        wave: list[Operation] = []
        budget = self.config.wave_budget_s
        est = 0.0
        while self._queue and len(wave) < self.config.max_wave:
            op_cost = self._cost.estimate(self._queue[0].kind)
            if wave and est + op_cost > budget:
                break
            wave.append(self._queue.popleft())
            est += op_cost
        return wave

    def _mutation_witness(self) -> tuple[int, int]:
        # Tuple ids are never reused, so capacity is monotone in
        # inserts and size is monotone-down in deletes: the pair
        # changes iff at least one operation was applied.
        db = self._session.db
        return (db.capacity, len(db))

    def _apply_with_retry(self, fn: Callable[[Sequence[Operation]], Any],
                          wave: Sequence[Operation]) -> None:
        """Run ``fn(wave)`` under the deterministic retry schedule.

        Retries only transient faults, and only when the mutation
        witness shows the failed attempt did not touch the engine —
        a partially-applied wave must never be re-applied.
        """
        delays = iter(self.config.retry.delays())
        while True:
            witness = self._mutation_witness()
            try:
                fn(wave)
                return
            except Exception as exc:
                if not is_transient(exc):
                    raise
                if self._mutation_witness() != witness:
                    # The engine absorbed part of the wave before the
                    # fault: retrying would double-apply. Surface the
                    # original fault; recovery is the WAL's job.
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise RetryExhaustedError(
                        self.config.retry.max_attempts, exc) from exc
                self.report.retries += 1
                self._clock.sleep(delay)

    def _pump_wave(self) -> int:
        """Apply one wave through the failure policy; returns op count."""
        wave = self._next_wave()
        if not wave:
            return 0
        use_transport = (not self._breaker.is_open
                         or self._breaker.should_probe())
        start = self._clock.now()
        if use_transport:
            try:
                self._apply_with_retry(self._transport, wave)
                self._breaker.record_success()
            except RetryExhaustedError:
                self.report.retry_exhausted += 1
                self._breaker.record_failure()
                # Bit-exact inline path: the transport never mutated
                # (enforced above), so applying directly is the same
                # computation minus the flaky layer.
                self.report.inline_fallbacks += 1
                self._session.apply_batch(wave)
        else:
            self.report.inline_fallbacks += 1
            self._session.apply_batch(wave)
        seconds = self._clock.now() - start
        per_op = seconds / len(wave)
        # reprolint: disable=RPL001 -- sorted() fixes observation order
        for kind in sorted({op.kind for op in wave}):
            self._cost.observe(kind, per_op)
        self.report.waves += 1
        self.report.applied_ops += len(wave)
        self._ops_since_checkpoint += len(wave)
        self._maybe_checkpoint()
        return len(wave)

    def _maybe_checkpoint(self) -> None:
        every = self.config.checkpoint_every_ops
        checkpoint = getattr(self._session, "checkpoint", None)
        if (every <= 0 or self._checkpoint_dir is None
                or not callable(checkpoint)
                or self._ops_since_checkpoint < every):
            return
        # Reset first: a persistently failing checkpoint path must not
        # retry on every subsequent wave.
        self._ops_since_checkpoint = 0

        def write(_ops: Sequence[Operation]) -> None:
            if self._checkpoint_hook is not None:
                self._checkpoint_hook()
            checkpoint(self._checkpoint_dir)

        try:
            self._apply_with_retry(write, ())
            self.report.checkpoints += 1
        except Exception:
            # Non-critical path: a checkpoint that keeps failing is
            # skipped (recovery falls back to the previous one), never
            # fatal to the op stream.
            self.report.checkpoint_failures += 1

    def pump(self, budget_s: float | None = None) -> int:
        """Apply queued waves within a time budget; returns ops applied.

        At least one wave runs whenever work is queued (guaranteed
        progress); leftover operations simply resume in the next pump —
        the time-box bounds latency, not completeness.
        """
        budget = self.config.pump_budget_s if budget_s is None else budget_s
        start = self._clock.now()
        applied = 0
        while self._queue:
            if applied and self._clock.now() - start >= budget:
                self.report.resumed_pumps += 1
                break
            applied += self._pump_wave()
        return applied

    def drain(self) -> int:
        """Apply everything queued (a barrier); returns ops applied."""
        applied = 0
        while self._queue:
            applied += self._pump_wave()
        return applied

    # -- reads ---------------------------------------------------------
    def _materialize(self) -> ReadView:
        start = self._clock.now()
        ids = tuple(self._session.result())
        self._cost.observe(_READ_KIND, self._clock.now() - start)
        self._last_result = ids
        self.report.fresh_serves += 1
        return ReadView(ids=ids, stale=False, lag_ops=0)

    def _serve_stale(self) -> ReadView:
        assert self._last_result is not None
        self.report.stale_serves += 1
        return ReadView(ids=self._last_result, stale=True,
                        lag_ops=len(self._queue))

    def read(self, *, deadline_s: float | None = None) -> ReadView:
        """Serve one read under a deadline (stale beyond it).

        The budget is ``deadline_s`` (or the config default). A fresh
        result is always produced if none was ever materialized (there
        is nothing meaningful to shed to); a read whose estimated cost
        (queued ops plus materialization) exceeds its budget is served
        from the last materialized result with a staleness marker;
        otherwise waves run until the queue drains or the budget runs
        out, and the read is served fresh or stale accordingly.
        """
        budget = (self.config.read_deadline_s if deadline_s is None
                  else deadline_s)
        if self._last_result is None:
            self.report.forced_materializations += 1
            self.drain()
            return self._materialize()
        cost = (self._cost.estimate_ops([op.kind for op in self._queue])
                + self._cost.estimate(_READ_KIND))
        if cost > budget:
            return self._serve_stale()
        start = self._clock.now()
        while self._queue and self._clock.now() - start < budget:
            self._pump_wave()
        return self._serve_stale() if self._queue else self._materialize()
