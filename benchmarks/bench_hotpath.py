"""Hot-path benchmark: FD-RMS updates, one op at a time and batched.

Times the FD-RMS update hot path in two configurations on the paper's
workload shapes (§IV-A insert-then-delete, and a maximal-churn mixed
stream):

* ``flat single-op``  — the engine, one operation at a time;
* ``flat batched``    — the engine through ``apply_batch``.

Both must reach the same result. It also times a warm checkpoint
restore against a cold start. The full run adds the paper's §IV-A
workload at half the dataset size. After every timed leg, an untimed
leg reports ``engine_traced_mb``: the ``tracemalloc`` current size of
one engine after the mixed workload's batched drive; beside it,
``result_us`` is the median ``FDRMS.result()`` time on the engine the
mixed batched drive left (figures only, no gate).

Results go to stdout and to a ``BENCH_hotpath.json`` trajectory at the
repo root. The process exits non-zero when a warm restore is slower
than a cold start, or, with ``--baseline``, when the restore speedup
falls below the tolerance band of the committed trajectory — the gate
used by the CI perf-smoke job (``--quick``).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick
    PYTHONPATH=src python benchmarks/bench_hotpath.py          # full
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.fdrms import FDRMS
from repro.data.database import INSERT, Database
from repro.data.workload import (
    make_paper_workload,
    make_skewed_workload,
)
from repro.persist.atomic import write_json_atomic
from repro.persist.checkpoint import load_checkpoint, save_checkpoint

R, K, EPS, M_MAX = 20, 1, 0.1, 1024


def _make_engine(initial) -> FDRMS:
    return FDRMS(Database(initial), K, R, EPS, m_max=M_MAX, seed=0)


def _drive_single(engine: FDRMS, ops) -> float:
    start = time.perf_counter()
    for op in ops:
        if op.kind == INSERT:
            engine.insert(op.point)
        else:
            engine.delete(op.tuple_id)
    return time.perf_counter() - start


def _drive_batched(engine: FDRMS, ops) -> float:
    start = time.perf_counter()
    engine.apply_batch(ops)
    return time.perf_counter() - start


def _bench_workload(name: str, initial, ops) -> tuple[dict, FDRMS]:
    """Returns the report entry and the driven flat-batched engine
    (reused by the checkpoint-restore benchmark)."""
    print(f"\n--- workload {name}: |P0|={initial.shape[0]}, "
          f"{len(ops)} ops ---")
    out: dict = {"n_initial": int(initial.shape[0]), "n_ops": len(ops),
                 "engines": {}}
    results = {}
    kept: FDRMS | None = None
    for label, drive in (("flat_batched", _drive_batched),
                         ("flat_single_op", _drive_single)):
        t0 = time.perf_counter()
        engine = _make_engine(initial)
        init_s = time.perf_counter() - t0
        seconds = drive(engine, ops)
        results[label] = engine.result()
        if label == "flat_batched":
            kept = engine
        ops_per_s = len(ops) / seconds
        out["engines"][label] = {
            "init_seconds": round(init_s, 4),
            "update_seconds": round(seconds, 4),
            "ms_per_op": round(1e3 * seconds / len(ops), 5),
            "ops_per_second": round(ops_per_s, 1),
        }
        if label == "flat_batched":
            out["cold_start_breakdown"] = {
                phase: round(secs, 4)
                for phase, secs in engine.init_profile.items()}
        print(f"{label:15s} init {init_s:6.2f}s  updates {seconds:7.2f}s "
              f"({1e3 * seconds / len(ops):7.3f} ms/op, {ops_per_s:9.0f} op/s)")
    # Both paths maintain the same invariants on the same utility
    # sample; the single-op and batched results must agree exactly.
    assert results["flat_batched"] == results["flat_single_op"], \
        "batched result diverged from single-op result"
    assert kept is not None
    return out, kept


def _bench_restore(engine: FDRMS, cold_init_seconds: float) -> dict:
    """Checkpoint the driven engine and time a warm restore.

    The restore must reproduce the live engine's ``state_digest()``
    exactly; the reported speedup is machine-relative (cold init and
    restore timed in the same process), which is what the CI perf gate
    pins.
    """
    live_digest = engine.state_digest()
    out: dict = {"n_alive": len(engine.database)}
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        t0 = time.perf_counter()
        save_checkpoint(engine, ckpt)
        out["save_seconds"] = round(time.perf_counter() - t0, 4)
        t0 = time.perf_counter()
        restored, _manifest = load_checkpoint(ckpt)
        restore_s = time.perf_counter() - t0
    assert restored.state_digest() == live_digest, \
        "restored engine diverged from the live one"
    out["restore_seconds"] = round(restore_s, 4)
    out["cold_init_seconds"] = round(cold_init_seconds, 4)
    out["restore_speedup_vs_cold"] = round(cold_init_seconds / restore_s, 2)
    print(f"\n--- checkpoint restore (n={out['n_alive']}) ---\n"
          f"save {out['save_seconds']:6.2f}s  "
          f"restore {restore_s:6.3f}s  "
          f"cold init {cold_init_seconds:6.2f}s  "
          f"({out['restore_speedup_vs_cold']:.2f}x faster than cold, "
          "digest verified)")
    return out


def _result_us(engine: FDRMS, reps: int = 201) -> float:
    """Median microseconds of one ``engine.result()`` read."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        engine.result()
        times.append(time.perf_counter() - t0)
    return round(1e6 * float(np.median(times)), 2)


def _engine_traced_mb(initial, ops) -> float:
    """MB that ``tracemalloc`` traces for one engine built on
    ``initial`` and driven batched through ``ops`` (untimed)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine = _make_engine(initial)
        _drive_batched(engine, ops)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return round(held / 2**20, 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI perf-smoke: mixed workload only, floor check")
    ap.add_argument("--n", type=int, default=100_000,
                    help="dataset size (default: the paper-scale 100k)")
    ap.add_argument("--ops", type=int, default=10_000,
                    help="operations in the mixed workload")
    ap.add_argument("--d", type=int, default=6)
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().parents[1]
                    / "BENCH_hotpath.json")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="committed BENCH_hotpath.json to regression-check "
                         "against (machine-relative speedup, not wall "
                         "times)")
    ap.add_argument("--tolerance", type=float, default=0.4,
                    help="allowed relative drop in the warm-restore "
                         "speedup vs the baseline (0.4 = fresh must reach "
                         "60%% of the committed speedup)")
    args = ap.parse_args(argv)

    # Read the committed baseline before the fresh report overwrites it
    # (--out and --baseline typically name the same file in CI).
    baseline = None
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())

    rng = np.random.default_rng(7)
    pts = rng.random((args.n, args.d))

    # Warm up BLAS/numpy kernels so the first timed engine is not
    # charged for one-time initialization.
    warm = make_skewed_workload(rng.random((2000, args.d)),
                                insert_fraction=0.5, n_operations=200,
                                seed=1)
    eng = _make_engine(warm.initial)
    _drive_batched(eng, warm.operations[:100])
    _drive_single(eng, warm.operations[100:])

    report: dict = {
        "benchmark": "hotpath",
        "config": {"n": args.n, "d": args.d, "ops": args.ops, "r": R,
                   "k": K, "eps": EPS, "m_max": M_MAX,
                   "quick": bool(args.quick)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }

    mixed = make_skewed_workload(pts, insert_fraction=0.5,
                                 n_operations=args.ops, seed=3)
    mixed_out, mixed_engine = _bench_workload(
        "mixed 50/50 churn", mixed.initial, mixed.operations)
    report["workloads"]["mixed_50_50"] = mixed_out
    mixed_out["result_us"] = _result_us(mixed_engine)

    report["restore"] = _bench_restore(
        mixed_engine,
        mixed_out["engines"]["flat_batched"]["init_seconds"])
    del mixed_engine

    if not args.quick:
        paper = make_paper_workload(pts[: args.n // 2], seed=4)
        report["workloads"]["paper_iv_a"], _ = _bench_workload(
            "paper §IV-A (insert phase, then delete phase)",
            paper.initial, paper.operations)

    # Untimed, after every timed leg: tracing slows allocation.
    mixed_out["engine_traced_mb"] = _engine_traced_mb(mixed.initial,
                                                      mixed.operations)
    print(f"\nengine traced after the mixed batched drive: "
          f"{mixed_out['engine_traced_mb']:.2f} MB (tracemalloc); "
          f"result() median {mixed_out['result_us']:.2f} us")

    write_json_atomic(args.out, report)
    print(f"\nwrote {args.out}")

    if report["restore"]["restore_speedup_vs_cold"] < 1.0:
        print("FAIL: warm checkpoint restore is slower than a cold "
              "start", file=sys.stderr)
        return 1
    if baseline is not None:
        _print_cold_start(report, baseline)
        if not _check_baseline(report, baseline, args.tolerance):
            return 1
    print("OK: warm restore beats a cold start")
    return 0


def _print_cold_start(report: dict, baseline: dict) -> None:
    """Print each cold-start phase, the engine's traced MB and its
    ``result()`` median, beside the committed ones.

    Informational only (no gate): it shows which phase of a cold
    start moved when the restore-vs-cold ratio does.
    """
    def phases(rep: dict) -> dict:
        mixed = rep.get("workloads", {}).get("mixed_50_50", {})
        out = dict(mixed.get("cold_start_breakdown", {}))
        for key in ("engine_traced_mb", "result_us"):
            if key in mixed:
                out[key] = mixed[key]
        return out

    fresh, committed = phases(report), phases(baseline)
    print(f"  {'cold start phase (s)':24s} {'fresh':>9s}  {'committed':>9s}")
    for phase in [*fresh, *(p for p in committed if p not in fresh)]:
        cells = [f"{d[phase]:9.4f}" if phase in d else f"{'-':>9s}"
                 for d in (fresh, committed)]
        print(f"  {phase:24s} {cells[0]}  {cells[1]}")


def _check_baseline(report: dict, baseline: dict, tolerance: float) -> bool:
    """Regression gate against a committed trajectory.

    Compares the *machine-relative* warm-restore speedup (absolute wall
    times vary wildly across CI runners; the ratio of two measurements
    from the same process does not) and fails when the fresh speedup
    drops below ``(1 - tolerance)`` of the committed one.
    """
    committed = baseline.get("restore", {}).get("restore_speedup_vs_cold")
    if committed is None:
        # A baseline without the gated key means the gate checked
        # nothing — fail loudly instead of rubber-stamping (wrong file,
        # truncated JSON).
        print("FAIL: --baseline has no restore_speedup_vs_cold; the "
              "regression gate compared nothing", file=sys.stderr)
        return False
    got = float(report["restore"]["restore_speedup_vs_cold"])
    floor = float(committed) * (1.0 - tolerance)
    if got < floor:
        print(f"FAIL: warm-restore speedup vs cold init {got:.2f}x fell "
              f"below {floor:.2f}x ({(1 - tolerance):.0%} of the "
              f"committed {float(committed):.2f}x)", file=sys.stderr)
        return False
    print(f"regression gate: warm-restore speedup vs cold init "
          f"{got:.2f}x >= {floor:.2f}x (committed {float(committed):.2f}x, "
          f"tolerance {tolerance:.0%})")
    return True

if __name__ == "__main__":
    raise SystemExit(main())
