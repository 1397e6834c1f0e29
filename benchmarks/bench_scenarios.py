"""Scenario benchmark: replay every built-in scenario, emit a trajectory.

For each scenario in the built-in catalogue this script

1. compiles the scenario twice and checks the trace content hashes
   match (determinism of the compiler itself);
2. replays the trace with each requested algorithm through the
   streaming Session API, collecting per-op latency percentiles,
   regret-over-time at the snapshot marks, and engine counters.

Results go to stdout and to ``BENCH_scenarios.json`` at the repo root
so future PRs can regress-check scenario throughput. The process exits
non-zero when any trace hash is unstable across compiles.

``--write-hashes PATH`` additionally writes the compiled trace hashes
as a ``{"<scenario>:n=<n>:seed=<seed>": "sha256:..."}`` golden file —
used to regenerate ``benchmarks/scenario_hashes.json``, which the CI
scenario-matrix job pins with ``repro replay --expect-hashes``.

``--baseline PATH`` reads a committed ``BENCH_scenarios.json`` before
this run overwrites it and records, per (scenario, algorithm), the
baseline's ops/second and the fresh-vs-baseline throughput ratio.
``--gate-scenarios`` turns that into a hard gate: the named scenarios'
gate algorithm must reach ``--min-speedup × (1 - --tolerance)`` of the
baseline throughput or the process exits non-zero (the perf-smoke CI
job runs this; the tolerance absorbs runner-to-runner wall-clock
noise, same philosophy as ``bench_hotpath.py --baseline``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py --quick
    PYTHONPATH=src python benchmarks/bench_scenarios.py          # full
    PYTHONPATH=src python benchmarks/bench_scenarios.py --n 400 \
        --hashes-only --write-hashes benchmarks/scenario_hashes.json
    PYTHONPATH=src python benchmarks/bench_scenarios.py --quick \
        --baseline BENCH_scenarios.json \
        --gate-scenarios delete-heavy mixed-batch \
        --min-speedup 1.3 --tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.core.regret import RegretEvaluator
from repro.persist.atomic import write_json_atomic
from repro.scenarios import (
    get_scenario,
    hash_key,
    replay_trace,
    scenario_names,
)
from repro.scenarios.replay import EVAL_SEED, floor_r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=800,
                    help="dataset size for every scenario")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--r", type=int, default=10)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--m-max", type=int, default=128, dest="m_max")
    ap.add_argument("--eval-samples", type=int, default=1000,
                    dest="eval_samples")
    ap.add_argument("--algorithms", nargs="+",
                    default=["FD-RMS", "Greedy"])
    ap.add_argument("--quick", action="store_true",
                    help="small sizes for CI (n=300, 400 eval samples)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="replays per (scenario, algorithm); the "
                         "fastest wall time is recorded (one-shot "
                         "throughput numbers are noisy)")
    ap.add_argument("--hashes-only", action="store_true",
                    help="compile and hash only; skip the replays")
    ap.add_argument("--write-hashes", type=Path, default=None,
                    help="write a golden trace-hash JSON file here")
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().parents[1]
                    / "BENCH_scenarios.json")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="committed BENCH_scenarios.json to compare "
                         "throughput against (read before --out "
                         "overwrites it)")
    ap.add_argument("--gate-scenarios", nargs="+", default=None,
                    dest="gate_scenarios", metavar="SCENARIO",
                    help="fail unless these scenarios reach the gated "
                         "speedup vs the baseline")
    ap.add_argument("--gate-algorithm", default="FD-RMS",
                    dest="gate_algorithm",
                    help="algorithm whose throughput the gate checks")
    ap.add_argument("--min-speedup", type=float, default=1.0,
                    dest="min_speedup",
                    help="required fresh/baseline ops-per-second ratio")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed relative shortfall of the required "
                         "ratio (absorbs machine differences)")
    args = ap.parse_args(argv)
    if args.quick:
        args.n = min(args.n, 300)
        args.eval_samples = min(args.eval_samples, 400)

    baseline = None
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        base_cfg = baseline.get("config", {})
        if args.gate_scenarios and base_cfg.get("n") != args.n:
            # Ops/second scale with n; a cross-size comparison would
            # gate nothing meaningful.
            print(f"note: baseline measured at n={base_cfg.get('n')}, "
                  f"this run uses n={args.n}; throughput ratios are "
                  "approximate")

    report: dict = {
        "benchmark": "scenarios",
        "config": {"n": args.n, "seed": args.seed, "r": args.r,
                   "k": args.k, "eps": args.eps, "m_max": args.m_max,
                   "eval_samples": args.eval_samples,
                   "quick": bool(args.quick)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scenarios": {},
    }
    options = {"eps": args.eps, "m_max": args.m_max}
    hashes: dict[str, str] = {}
    stable = True
    deterministic = True
    for name in scenario_names():
        scenario = get_scenario(name)
        trace = scenario.compile(seed=args.seed, n=args.n)
        again = scenario.compile(seed=args.seed, n=args.n)
        if trace.content_hash != again.content_hash:
            stable = False
            print(f"FAIL: {name} compiled to different traces "
                  f"({trace.content_hash} vs {again.content_hash})",
                  file=sys.stderr)
        hashes[hash_key(name, args.n, args.seed)] = trace.content_hash
        entry: dict = {
            "trace_hash": trace.content_hash,
            "n_ops": trace.n_operations,
            "d": trace.d,
            "dataset": scenario.dataset,
            "batched": trace.batch_plan is not None,
            "algorithms": {},
        }
        report["scenarios"][name] = entry
        print(f"\n--- scenario {name}: {trace.n_operations} ops on "
              f"{scenario.dataset} (d={trace.d}), {trace.content_hash[:23]}"
              f"... ---")
        if args.hashes_only:
            continue
        evaluator = RegretEvaluator(trace.d, n_samples=args.eval_samples,
                                    seed=EVAL_SEED)
        r_eff = floor_r(args.r, trace.d)
        if r_eff != args.r:
            print(f"(r raised to {r_eff} = d for this scenario)")
        for algo in args.algorithms:
            res = replay_trace(trace, algo, r=r_eff, k=args.k,
                               seed=args.seed, evaluator=evaluator,
                               options=options)
            for _ in range(max(0, args.repeats - 1)):
                again_res = replay_trace(trace, algo, r=r_eff, k=args.k,
                                         seed=args.seed,
                                         evaluator=evaluator,
                                         options=options)
                if (again_res.determinism_digest()
                        != res.determinism_digest()):
                    deterministic = False
                    print(f"FAIL: {name}/{algo} replays disagree "
                          "digest-for-digest", file=sys.stderr)
                if again_res.update_seconds < res.update_seconds:
                    res = again_res
            summary = res.to_dict()
            lat = res.latency_percentiles()
            ops_s = (res.ops_per_second if res.ops_per_second is not None
                     else float("inf"))
            speedup_note = ""
            if baseline is not None:
                prev = (baseline.get("scenarios", {}).get(name, {})
                        .get("algorithms", {}).get(res.algorithm, {})
                        .get("ops_per_second"))
                if prev:
                    summary["baseline_ops_per_second"] = prev
                    summary["speedup_vs_baseline"] = round(
                        ops_s / float(prev), 2)
                    speedup_note = (f"  ({summary['speedup_vs_baseline']:.2f}x "
                                    "vs baseline)")
            entry["algorithms"][res.algorithm] = summary
            print(f"{res.algorithm:>12}: init {res.init_seconds:6.2f}s  "
                  f"updates {res.update_seconds:7.2f}s "
                  f"({ops_s:9.0f} op/s)  p50 {lat['p50']:7.3f} ms  "
                  f"p99 {lat['p99']:7.3f} ms  mean mrr {res.mean_mrr:.4f}"
                  f"{speedup_note}")
        if scenario.service:
            entry["supervised"] = _supervised_leg(
                trace, scenario, evaluator, r_eff, args, options)

    if args.write_hashes:
        write_json_atomic(args.write_hashes, hashes, sort_keys=True)
        print(f"\ngolden hashes written to {args.write_hashes}")
    if not args.hashes_only:
        write_json_atomic(args.out, report)
        print(f"\nwrote {args.out}")
    if not stable:
        print("FAIL: scenario compilation is not deterministic",
              file=sys.stderr)
        return 1
    if not deterministic:
        print("FAIL: replays of the same trace disagree "
              "digest-for-digest", file=sys.stderr)
        return 1
    if args.gate_scenarios and not args.hashes_only:
        if not _check_gate(report, args):
            return 1
    print("OK: every scenario compiled to a stable trace hash")
    return 0


def _supervised_leg(trace, scenario, evaluator, r_eff, args,
                    options) -> dict:
    """Replay through the session supervisor; record SLO fields.

    Runs only for scenarios carrying service hints (the overload /
    chaos builtins). The recorded p99 admission latency is what the CI
    chaos-smoke job gates; the final state digest lets any consumer
    cross-check the supervised run against an unsupervised one.
    """
    from repro.service.driver import ServiceOptions
    from repro.service.policy import SupervisorConfig

    hints = dict(scenario.service)
    read_every = int(hints.pop("read_every", 0))
    service = ServiceOptions(config=SupervisorConfig(**hints),
                             read_every=read_every)
    res = replay_trace(trace, "fd-rms", r=r_eff, k=args.k,
                       seed=args.seed, evaluator=evaluator,
                       options=options, service=service)
    srep = res.service
    adm = srep.get("admission_latency_ms", {})
    out = {
        "admission_latency_ms": adm,
        "waves": srep.get("waves", 0),
        "resumed_pumps": srep.get("resumed_pumps", 0),
        "stale_serves": srep.get("stale_serves", 0),
        "fresh_serves": srep.get("fresh_serves", 0),
        "backpressure_events": srep.get("backpressure_events", 0),
        "max_queue_depth": srep.get("max_queue_depth", 0),
        "final_state_digest": srep.get("final_state_digest"),
        "result_digest": srep.get("result_digest"),
    }
    print(f"{'supervised':>12}: admission p50 {adm.get('p50', 0.0):7.3f} "
          f"ms  p99 {adm.get('p99', 0.0):7.3f} ms  "
          f"waves {out['waves']}  stale {out['stale_serves']}  "
          f"fresh {out['fresh_serves']}")
    return out


def _check_gate(report: dict, args) -> bool:
    """Throughput gate against the committed scenario baseline.

    Every gated scenario's gate algorithm must reach ``min_speedup ×
    (1 - tolerance)`` of the baseline's recorded ops/second. A gated
    scenario without a comparable baseline entry fails loudly — a
    silently skipped gate reads as a pass.
    """
    ok = True
    for name in args.gate_scenarios:
        entry = (report.get("scenarios", {}).get(name, {})
                 .get("algorithms", {}).get(args.gate_algorithm))
        if not entry or "speedup_vs_baseline" not in entry:
            print(f"FAIL: perf gate for {name!r}/{args.gate_algorithm} "
                  "has no baseline to compare against (missing "
                  "--baseline entry?)", file=sys.stderr)
            ok = False
            continue
        got = float(entry["speedup_vs_baseline"])
        floor = args.min_speedup * (1.0 - args.tolerance)
        if got < floor:
            print(f"FAIL: {name}: {args.gate_algorithm} throughput "
                  f"{got:.2f}x of baseline fell below {floor:.2f}x "
                  f"(required {args.min_speedup:.2f}x, tolerance "
                  f"{args.tolerance:.0%})", file=sys.stderr)
            ok = False
        else:
            print(f"perf gate: {name}: {args.gate_algorithm} "
                  f"{got:.2f}x of baseline >= {floor:.2f}x "
                  f"(required {args.min_speedup:.2f}x, tolerance "
                  f"{args.tolerance:.0%})")
    if ok:
        print("OK: scenario throughput gate passed")
    return ok


if __name__ == "__main__":
    raise SystemExit(main())
