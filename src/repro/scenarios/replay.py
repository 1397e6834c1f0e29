"""Replay driver: run any trace through any registered algorithm.

:func:`replay_trace` opens a streaming :class:`~repro.api.Session` for
the requested algorithm (FD-RMS natively, static baselines under the
recompute protocol), feeds the trace's operations through
``Session.apply_batch`` slice by slice (per the trace's batch plan,
split at snapshot marks), and collects:

* **per-operation latency percentiles** — each batch's wall time is
  attributed evenly to its operations, so single-op plans yield true
  per-op latencies;
* **regret over time** — estimated ``mrr_k`` on a frozen utility test
  set at every snapshot mark, plus result ids and database size;
* **engine counters** — whatever ``Session.stats()`` reports (inserts,
  deletes, recomputes, index statistics, ...).

Replays are deterministic apart from wall-clock timings:
:meth:`ReplayResult.determinism_digest` hashes everything *except*
timings, so two replays of the same trace with the same seed must agree
digest-for-digest — the invariant the CI scenario matrix enforces.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.api.registry import get_algorithm
from repro.api.session import open_session
from repro.core.regret import RegretEvaluator
from repro.scenarios.spec import Scenario, get_scenario
from repro.scenarios.trace import Trace, jsonable_scalar

# Fixed seed for the replay utility test set: regret numbers from
# different runs, algorithms, and machines are mutually comparable.
EVAL_SEED = 90125


@dataclass(frozen=True)
class ReplaySnapshot:
    """Result quality recorded at one snapshot mark."""

    op_index: int
    db_size: int
    result_size: int
    result_ids: tuple[int, ...]
    mrr: float


@dataclass
class ReplayResult:
    """Metrics from one (trace, algorithm) replay."""

    scenario: str
    algorithm: str
    trace_hash: str
    n_operations: int
    n_batches: int
    update_seconds: float
    #: Engine build time (session construction over the initial
    #: database) — cold-start regressions are visible per scenario.
    init_seconds: float = 0.0
    snapshots: list[ReplaySnapshot] = field(default_factory=list)
    counters: dict[str, Any] = field(default_factory=dict)
    op_latencies_ms: np.ndarray = field(
        default_factory=lambda: np.empty(0))
    #: Service-layer report of a supervised replay (admission latency,
    #: waves, retries, shed reads, chaos tallies, final state digest).
    #: Deliberately OUTSIDE :meth:`determinism_digest`: supervision and
    #: chaos change *when* work happens, never *what* is computed, and
    #: their counters must not perturb the pinned scenario digests.
    service: dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float | None:
        """Per-operation update throughput (None before any update)."""
        if self.update_seconds <= 0:
            return None
        return self.n_operations / self.update_seconds

    @property
    def mean_mrr(self) -> float:
        if not self.snapshots:
            return 0.0
        return float(np.mean([s.mrr for s in self.snapshots]))

    @property
    def max_mrr(self) -> float:
        if not self.snapshots:
            return 0.0
        return float(max(s.mrr for s in self.snapshots))

    def latency_percentiles(self) -> dict[str, float]:
        """Per-operation latency stats in milliseconds."""
        lat = np.asarray(self.op_latencies_ms, dtype=float)
        if lat.size == 0:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0,
                    "mean": 0.0}
        p50, p90, p99 = np.percentile(lat, [50, 90, 99])
        return {"p50": round(float(p50), 5), "p90": round(float(p90), 5),
                "p99": round(float(p99), 5),
                "max": round(float(lat.max()), 5),
                "mean": round(float(lat.mean()), 5)}

    def determinism_digest(self) -> str:
        """``sha256:`` digest over everything except wall-clock timings.

        Covers the trace hash, per-snapshot result ids / database sizes
        / regret values, and the timing-free counters — two replays of
        the same trace with the same algorithm seed must agree.
        """
        counters = {k: _jsonable(v) for k, v in sorted(self.counters.items())
                    if "seconds" not in k}
        payload = {
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "trace_hash": self.trace_hash,
            "snapshots": [
                [s.op_index, s.db_size, list(s.result_ids),
                 round(s.mrr, 12)]
                for s in self.snapshots
            ],
            "counters": counters,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return f"sha256:{hashlib.sha256(blob.encode()).hexdigest()}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (timings rounded, latencies as percentiles)."""
        return {
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "trace_hash": self.trace_hash,
            "n_operations": self.n_operations,
            "n_batches": self.n_batches,
            "init_seconds": round(self.init_seconds, 4),
            "update_seconds": round(self.update_seconds, 4),
            "ops_per_second": round(self.ops_per_second, 1)
            if self.ops_per_second is not None else None,
            "latency_ms": self.latency_percentiles(),
            "mean_mrr": round(self.mean_mrr, 6),
            "max_mrr": round(self.max_mrr, 6),
            "snapshots": [
                {"op_index": s.op_index, "db_size": s.db_size,
                 "result_size": s.result_size, "mrr": round(s.mrr, 6)}
                for s in self.snapshots
            ],
            "counters": {k: _jsonable(v)
                         for k, v in sorted(self.counters.items())},
            "determinism_digest": self.determinism_digest(),
            **({"service": self.service} if self.service else {}),
        }


def _jsonable(value: Any) -> Any:
    return jsonable_scalar(value, round_floats=9)


def floor_r(r: int, d: int) -> int:
    """Floor a requested result size at the dimensionality.

    FD-RMS requires ``r >= d`` (paper Definition 1); flooring lets one
    ``r`` setting drive scenarios of different dimensionality.
    """
    return max(int(r), int(d))


def batch_slices(trace: Trace) -> Iterable[tuple[int, int]]:
    """Yield ``(start, stop)`` op slices honoring plan + snapshot marks.

    The trace's batch plan (default: singletons) is split wherever a
    snapshot mark falls inside a batch, so every mark lands exactly on a
    slice boundary and results can be recorded there.
    """
    marks = set(trace.workload.snapshots)
    plan = trace.batch_plan
    if plan is None:
        plan = (1,) * trace.n_operations
    start = 0
    for size in plan:
        stop = start + size
        cut = start
        for idx in range(start + 1, stop):
            if idx in marks:
                yield cut, idx
                cut = idx
        if cut < stop:
            yield cut, stop
        start = stop


def replay_trace(trace: Trace, algorithm: str = "fd-rms", *, r: int,
                 k: int = 1, seed: int | None = 0,
                 evaluator: RegretEvaluator | None = None,
                 eval_samples: int = 2000,
                 options: Mapping[str, Any] | None = None,
                 service: Any = None) -> ReplayResult:
    """Replay ``trace`` with ``algorithm`` and collect metrics.

    ``options`` is a shared option bag (e.g. ``{"eps": ..., "m_max":
    ...}``); keys the algorithm does not understand are dropped, so one
    bag can drive FD-RMS and every baseline side by side.

    ``service`` (a :class:`repro.service.driver.ServiceOptions`) routes
    every batch through a supervised
    :class:`~repro.service.SessionSupervisor` — with optional chaos
    injection — instead of calling ``apply_batch`` directly. The queue
    is drained before every snapshot mark, so the recorded result ids,
    sizes, and regret values are byte-identical to an unsupervised
    replay of the same trace; the service-layer report (admission
    percentiles, waves, retries, shed reads, chaos tallies, final
    state digest) lands in :attr:`ReplayResult.service`, outside the
    determinism digest.
    """
    spec = get_algorithm(algorithm)
    workload = trace.workload
    routed = {key: value for key, value in sorted(dict(options or {}).items())
              if spec.accepts_var_kwargs or key in spec.option_names}
    t_init = time.perf_counter()
    session = open_session(workload.initial, r, k=k, algo=algorithm,
                           seed=seed, **routed)
    init_seconds = time.perf_counter() - t_init
    if evaluator is None:
        evaluator = RegretEvaluator(workload.d, n_samples=eval_samples,
                                    seed=EVAL_SEED)
    marks = set(workload.snapshots)
    latencies = np.empty(workload.n_operations, dtype=float)
    snapshots: list[ReplaySnapshot] = []
    total = 0.0
    n_batches = 0
    driver = None
    if service is not None:
        from repro.service.driver import SupervisedDriver
        driver = SupervisedDriver(session, service)
    try:
        for start, stop in batch_slices(trace):
            ops = workload.operations[start:stop]
            t0 = time.perf_counter()
            if driver is not None:
                driver.feed(ops)
                if stop in marks:
                    # Snapshots must never depend on wave boundaries:
                    # drain so the recorded results match an
                    # unsupervised replay exactly.
                    driver.barrier()
            else:
                session.apply_batch(ops)
            seconds = time.perf_counter() - t0
            total += seconds
            n_batches += 1
            latencies[start:stop] = 1e3 * seconds / len(ops)
            if stop in marks:
                result_ids = tuple(session.result())
                q = session.result_points()
                points = session.db.points()
                mrr = (evaluator.evaluate(points, q, k)
                       if q.shape[0] and points.shape[0] else 0.0)
                snapshots.append(ReplaySnapshot(
                    op_index=stop, db_size=len(session.db),
                    result_size=len(result_ids), result_ids=result_ids,
                    mrr=float(mrr)))
        service_report: dict[str, Any] = {}
        if driver is not None:
            driver.barrier()
            service_report = driver.service_report()
        return ReplayResult(
            scenario=trace.scenario, algorithm=spec.display_name,
            trace_hash=trace.content_hash,
            n_operations=workload.n_operations, n_batches=n_batches,
            update_seconds=total, init_seconds=init_seconds,
            snapshots=snapshots,
            counters=dict(session.stats()), op_latencies_ms=latencies,
            service=service_report)
    finally:
        # Sessions may own external resources (WAL handles); replay
        # must not leak them.
        closer = getattr(session, "close", None)
        if callable(closer):
            closer()


def run_scenario(name_or_scenario: str | Scenario,
                 algorithms: Iterable[str] = ("fd-rms",), *, r: int,
                 k: int = 1, seed: int = 0, n: int | None = None,
                 eval_samples: int = 2000,
                 options: Mapping[str, Any] | None = None,
                 ) -> tuple[Trace, list[ReplayResult]]:
    """Compile a scenario once and replay it with each algorithm.

    All algorithms see the *same* compiled trace (and the same frozen
    utility test set), so their metrics are directly comparable.
    """
    if isinstance(name_or_scenario, Scenario):
        scenario = name_or_scenario
    else:
        scenario = get_scenario(name_or_scenario)
    trace = scenario.compile(seed=seed, n=n)
    evaluator = RegretEvaluator(trace.d, n_samples=eval_samples,
                                seed=EVAL_SEED)
    results = [replay_trace(trace, algo, r=r, k=k, seed=seed,
                            evaluator=evaluator, options=options)
               for algo in algorithms]
    return trace, results
