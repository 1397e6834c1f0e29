"""Experiment harness: the paper's measurement protocol (§IV)."""

from repro.bench.adapters import (
    DynamicAdapter,
    FDRMSAdapter,
    StaticAdapter,
    BASELINE_FACTORIES,
    adapter_for,
)
from repro.bench.harness import RunResult, SnapshotRecord, run_workload
from repro.bench.experiments import (
    experiment_epsilon_sweep,
    experiment_vary_r,
    experiment_vary_k,
    experiment_scalability,
    format_series_table,
)

__all__ = [
    "DynamicAdapter",
    "FDRMSAdapter",
    "StaticAdapter",
    "BASELINE_FACTORIES",
    "adapter_for",
    "RunResult",
    "SnapshotRecord",
    "run_workload",
    "experiment_epsilon_sweep",
    "experiment_vary_r",
    "experiment_vary_k",
    "experiment_scalability",
    "format_series_table",
]
