"""The built-in scenario catalogue and its arrival patterns.

Ten workload shapes ship with the library, spanning the paper's own
protocol and the dynamic regimes the ROADMAP asks for:

=======================  ===============================================
``paper``                §IV-A: 50% initial, 50% inserted, then 50%
                         deleted
``sliding-window``       fixed-size window, every arrival evicts the
                         oldest
``insert-burst``         insert-only growth arriving in variable bursts
``delete-heavy``         decaying database: deletions dominate
                         insertions
``clustered-drift``      inserts drawn from clusters whose centers
                         drift, FIFO eviction keeps the database moving
                         through space
``skyline-churn``        adversarial: near-corner dominators appear and
                         vanish again, churning the skyline's apex on
                         nearly every operation
``mixed-batch``          50/50 churn applied as a mix of single
                         operations and batches (exercises
                         ``apply_batch`` mid-stream)
``overload-flashcrowd``  singleton trickle punctuated by giant bursts —
                         the supervised runtime's overload/shedding
                         workload
``chaos-churn``          delete-leaning churn in steady mid-size
                         batches — the runtime fault-injection workload
``overload-multitenant`` singleton-heavy churn sized for the network
                         service's admission coalescing — the
                         ``repro serve`` / ``serve-load`` workload
=======================  ===============================================

Each is a :class:`~repro.scenarios.spec.Scenario` instance binding an
arrival pattern to a dataset and parameters; compile any of them with
``get_scenario(name).compile(seed=..., n=...)``.
"""

from __future__ import annotations

import numpy as np

from repro.data.database import DELETE, INSERT, Operation
from repro.data.workload import (
    DynamicWorkload,
    _snapshot_marks,
    make_paper_workload,
    make_skewed_workload,
    make_sliding_window_workload,
)
from repro.scenarios.spec import Scenario, arrival, register_scenario

# ----------------------------------------------------------------------
# Arrival patterns
# ----------------------------------------------------------------------


@arrival("paper")
def paper_arrival(points, *, rng, n_snapshots, initial_fraction=0.5,
                  delete_fraction=0.5):
    """The paper's fully-dynamic protocol (§IV-A)."""
    workload = make_paper_workload(points, seed=rng,
                                   initial_fraction=initial_fraction,
                                   delete_fraction=delete_fraction,
                                   n_snapshots=n_snapshots)
    return workload, None


@arrival("sliding-window")
def sliding_window_arrival(points, *, rng, n_snapshots,
                           window_fraction=0.25):
    """Fixed-size window over the stream: insert + evict-oldest pairs."""
    n = points.shape[0]
    window = max(1, min(n - 1, int(round(n * window_fraction))))
    workload = make_sliding_window_workload(points, window=window,
                                            n_snapshots=n_snapshots)
    return workload, None


@arrival("burst-inserts")
def burst_inserts_arrival(points, *, rng, n_snapshots,
                          initial_fraction=0.1, burst_min=8, burst_max=96):
    """Insert-only growth: the stream arrives in variable-size bursts.

    The batch plan records the burst boundaries, so replay feeds each
    burst to ``Session.apply_batch`` as one slice — the shape that the
    batched insert pipeline (one GEMM per run) is built for.
    """
    n = points.shape[0]
    n0 = max(1, int(round(n * initial_fraction)))
    ops = [Operation(INSERT, points[row].copy(), tuple_id=row)
           for row in range(n0, n)]
    plan: list[int] = []
    remaining = len(ops)
    while remaining > 0:
        size = int(rng.integers(burst_min, burst_max + 1))
        size = min(size, remaining)
        plan.append(size)
        remaining -= size
    workload = DynamicWorkload(initial=points[:n0].copy(), operations=ops,
                               snapshots=_snapshot_marks(len(ops),
                                                         n_snapshots))
    return workload, tuple(plan)


@arrival("skewed")
def skewed_arrival(points, *, rng, n_snapshots, insert_fraction=0.5,
                   ops_per_tuple=1.0, initial_fraction=0.5):
    """Churn with a controlled insert/delete mix (uniform victims)."""
    n_operations = max(1, int(round(points.shape[0] * ops_per_tuple)))
    workload = make_skewed_workload(points,
                                    insert_fraction=insert_fraction,
                                    n_operations=n_operations,
                                    initial_fraction=initial_fraction,
                                    n_snapshots=n_snapshots, seed=rng)
    return workload, None


@arrival("clustered-drift")
def clustered_drift_arrival(points, *, rng, n_snapshots,
                            initial_fraction=0.3, ops_per_tuple=1.2,
                            clusters=4, spread=0.15):
    """Inserts from drifting clusters with FIFO eviction.

    Cluster centers start at random interior positions and move along
    straight lines (reflected at the ``[0.1, 0.9]`` walls) as the stream
    progresses; each inserted point is a dataset row shrunk around the
    current center of a random cluster. Every insert evicts the oldest
    alive tuple, so the database itself migrates through value space —
    the concept-drift regime of IoT/sensor fleets.
    """
    n, d = points.shape
    n0 = max(1, int(round(n * initial_fraction)))
    n_ops = max(2, int(round(n * ops_per_tuple)))
    n_pairs = n_ops // 2
    centers = 0.2 + 0.6 * rng.random((clusters, d))
    velocity = rng.normal(0.0, 1.0, size=(clusters, d))
    velocity /= np.maximum(np.linalg.norm(velocity, axis=1, keepdims=True),
                           1e-12)
    ops: list[Operation] = []
    next_id = n0
    oldest = 0
    for step in range(n_pairs):
        c = int(rng.integers(clusters))
        # Reflect the drifted center back into [0.1, 0.9].
        pos = centers[c] + velocity[c] * (0.8 * step / max(1, n_pairs))
        pos = 0.1 + np.abs((pos - 0.1) % 1.6)
        pos = np.where(pos > 0.9, 1.8 - pos, pos)
        row = points[int(rng.integers(n))]
        point = np.clip(pos + spread * (row - 0.5), 0.0, 1.0)
        ops.append(Operation(INSERT, point, tuple_id=next_id))
        next_id += 1
        if oldest < n0:
            victim_point = points[oldest].copy()
        else:
            victim_point = ops[2 * (oldest - n0)].point
        ops.append(Operation(DELETE, victim_point, tuple_id=oldest))
        oldest += 1
    workload = DynamicWorkload(initial=points[:n0].copy(), operations=ops,
                               snapshots=_snapshot_marks(len(ops),
                                                         n_snapshots))
    return workload, None


@arrival("skyline-churn")
def skyline_churn_arrival(points, *, rng, n_snapshots,
                          initial_fraction=0.5, ops_per_tuple=1.0,
                          lag=8, eps0=0.05):
    """Adversarial churn at the skyline's apex.

    Each round inserts a fresh dominator just below the unit corner —
    within ``eps`` of ``(1, ..., 1)`` with ``eps`` shrinking
    harmonically, so every insert dominates the dataset's top region
    and most earlier dominators (strict pairwise domination of *all*
    predecessors would need ``eps`` to halve each round, which exhausts
    float64 resolution near 1.0 within ~50 rounds). ``lag`` rounds
    later that point is deleted again, forcing the skyline and every
    top-k structure to recover. Nearly every operation touches the
    skyline's apex — the worst case for recompute-style baselines.
    """
    n, d = points.shape
    n0 = max(1, int(round(n * initial_fraction)))
    n_ops = max(2, int(round(n * ops_per_tuple)))
    ops: list[Operation] = []
    pending: list[int] = []
    pending_points: dict[int, np.ndarray] = {}
    next_id = n0
    round_no = 0
    while len(ops) < n_ops:
        if pending and (len(pending) > lag
                        or len(ops) == n_ops - len(pending)):
            victim = pending.pop(0)
            ops.append(Operation(DELETE, pending_points.pop(victim),
                                 tuple_id=victim))
            continue
        eps = eps0 / (1.0 + round_no)
        mix = rng.random(d)
        point = 1.0 - eps * (0.5 + 0.5 * mix)
        ops.append(Operation(INSERT, point, tuple_id=next_id))
        pending.append(next_id)
        pending_points[next_id] = point
        next_id += 1
        round_no += 1
    workload = DynamicWorkload(initial=points[:n0].copy(), operations=ops,
                               snapshots=_snapshot_marks(len(ops),
                                                         n_snapshots))
    return workload, None


@arrival("mixed-batch")
def mixed_batch_arrival(points, *, rng, n_snapshots, insert_fraction=0.5,
                        ops_per_tuple=1.0, initial_fraction=0.5,
                        single_prob=0.5, max_batch=64):
    """50/50 churn delivered as a mix of single ops and batches."""
    workload, _ = skewed_arrival(points, rng=rng, n_snapshots=n_snapshots,
                                 insert_fraction=insert_fraction,
                                 ops_per_tuple=ops_per_tuple,
                                 initial_fraction=initial_fraction)
    plan: list[int] = []
    remaining = workload.n_operations
    while remaining > 0:
        if rng.random() < single_prob:
            size = 1
        else:
            size = int(rng.integers(2, max_batch + 1))
        plan.append(min(size, remaining))
        remaining -= plan[-1]
    return workload, tuple(plan)


@arrival("flash-crowd")
def flash_crowd_arrival(points, *, rng, n_snapshots, insert_fraction=0.6,
                        ops_per_tuple=1.5, initial_fraction=0.4,
                        trickle=32, burst_fraction=0.15):
    """Steady trickle of single ops punctuated by giant arrival bursts.

    The operation stream itself is plain skewed churn; the batch plan
    is the point: long runs of singleton arrivals, then one burst
    carrying ``burst_fraction`` of the whole stream at once. Replayed
    through the supervised runtime this is the overload shape — a
    burst lands faster than any pump budget can drain it, so deadline
    reads right after it *must* shed to stale views instead of
    blocking (the SLO the chaos-smoke CI leg asserts).
    """
    workload, _ = skewed_arrival(points, rng=rng, n_snapshots=n_snapshots,
                                 insert_fraction=insert_fraction,
                                 ops_per_tuple=ops_per_tuple,
                                 initial_fraction=initial_fraction)
    total = workload.n_operations
    burst = max(2, int(round(total * burst_fraction)))
    plan: list[int] = []
    remaining = total
    while remaining > 0:
        take = min(int(trickle), remaining)
        plan.extend([1] * take)
        remaining -= take
        if remaining > 0:
            size = min(burst, remaining)
            plan.append(size)
            remaining -= size
    return workload, tuple(plan)


@arrival("churn-batches")
def churn_batches_arrival(points, *, rng, n_snapshots,
                          insert_fraction=0.45, ops_per_tuple=1.2,
                          initial_fraction=0.5, batch_min=16,
                          batch_max=48):
    """Delete-leaning churn in steady mid-size batches.

    Designed as the chaos-injection workload: every wave mixes inserts
    and deletes (so transient faults and retries hit both engine
    pipelines), and batch sizes stay in the range where the
    supervisor's cost model actually splits and coalesces waves.
    """
    workload, _ = skewed_arrival(points, rng=rng, n_snapshots=n_snapshots,
                                 insert_fraction=insert_fraction,
                                 ops_per_tuple=ops_per_tuple,
                                 initial_fraction=initial_fraction)
    plan: list[int] = []
    remaining = workload.n_operations
    while remaining > 0:
        size = int(rng.integers(batch_min, batch_max + 1))
        plan.append(min(size, remaining))
        remaining -= plan[-1]
    return workload, tuple(plan)


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------

BUILTIN_SCENARIOS = tuple(register_scenario(s) for s in (
    Scenario(
        name="paper",
        summary="the paper's §IV-A protocol: 50% initial, 50% inserted, "
                "then 50% of all tuples deleted",
        dataset="Indep", n=2000, arrival="paper",
    ),
    Scenario(
        name="sliding-window",
        summary="fixed-size window over a sensor stream; every arrival "
                "evicts the oldest tuple (maximal steady churn)",
        dataset="AQ", n=2000, arrival="sliding-window",
        params={"window_fraction": 0.25},
    ),
    Scenario(
        name="insert-burst",
        summary="insert-only onboarding burst: the database grows 10x "
                "in variable-size batched bursts",
        dataset="BB", n=2000, arrival="burst-inserts",
        params={"initial_fraction": 0.1, "burst_min": 8, "burst_max": 96},
    ),
    Scenario(
        name="delete-heavy",
        summary="decaying catalog: 85% deletions shrink the database "
                "toward its skyline",
        dataset="Movie", n=2000, arrival="skewed",
        params={"insert_fraction": 0.15, "ops_per_tuple": 0.8,
                "initial_fraction": 0.7},
    ),
    Scenario(
        name="clustered-drift",
        summary="concept drift: inserts from drifting clusters with "
                "FIFO eviction migrate the database through value space",
        dataset="Indep", n=2000, arrival="clustered-drift",
        params={"initial_fraction": 0.3, "ops_per_tuple": 1.2,
                "clusters": 4, "spread": 0.15},
    ),
    Scenario(
        name="skyline-churn",
        summary="adversarial: near-corner dominators appear and vanish, "
                "churning the skyline's apex on nearly every op",
        dataset="AntiCor", n=2000, arrival="skyline-churn",
        params={"initial_fraction": 0.5, "ops_per_tuple": 1.0, "lag": 8},
    ),
    Scenario(
        name="mixed-batch",
        summary="50/50 churn delivered as a mix of single operations "
                "and batches up to 64 ops (exercises apply_batch)",
        dataset="Indep", n=2000, arrival="mixed-batch",
        params={"single_prob": 0.5, "max_batch": 64},
    ),
    Scenario(
        name="overload-flashcrowd",
        summary="flash-crowd overload: singleton trickle punctuated by "
                "bursts of 15% of the stream; supervised replay must "
                "shed reads to stale views, never block",
        dataset="Indep", n=2000, arrival="flash-crowd",
        params={"insert_fraction": 0.6, "ops_per_tuple": 1.5,
                "initial_fraction": 0.4, "trickle": 32,
                "burst_fraction": 0.15},
        service={"max_wave": 64, "wave_budget_s": 0.002,
                 "pump_budget_s": 0.004, "read_deadline_s": 0.002,
                 "queue_limit": 2048, "read_every": 1},
    ),
    Scenario(
        name="chaos-churn",
        summary="delete-leaning churn in steady 16-48 op batches; the "
                "fault-injection workload (digest parity under chaos)",
        dataset="AntiCor", n=2000, arrival="churn-batches",
        params={"insert_fraction": 0.45, "ops_per_tuple": 1.2,
                "initial_fraction": 0.5, "batch_min": 16,
                "batch_max": 48},
        service={"max_wave": 32, "checkpoint_every_ops": 256,
                 "read_every": 4},
    ),
    Scenario(
        name="overload-multitenant",
        summary="singleton-heavy churn for the network service: mostly "
                "single-op requests the admission layer must coalesce "
                "into waves, with small batches mixed in",
        dataset="AQ", n=2000, arrival="mixed-batch",
        params={"insert_fraction": 0.55, "ops_per_tuple": 1.0,
                "initial_fraction": 0.5, "single_prob": 0.8,
                "max_batch": 16},
        service={"max_wave": 32, "wave_budget_s": 0.002,
                 "pump_budget_s": 0.004, "read_deadline_s": 0.002,
                 "read_every": 2},
    ),
))
