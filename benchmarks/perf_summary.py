"""Render BENCH_*.json trajectories as a GitHub-flavored markdown summary.

The CI perf-smoke job appends this script's stdout to
``$GITHUB_STEP_SUMMARY`` after the benchmark steps regenerate the
trajectory files in the workspace, so every run's numbers — engine init
seconds, batched update throughput, per-scenario latency percentiles,
and throughput relative to the committed baseline — are readable from
the Actions summary page without downloading artifacts.

Usage::

    PYTHONPATH=src python benchmarks/perf_summary.py \
        [--hotpath BENCH_hotpath.json] [--scenarios BENCH_scenarios.json]

Missing files are skipped with a note, so the summary degrades
gracefully if a bench step was skipped or failed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def _fmt(value, pattern="{:.2f}") -> str:
    if value is None:
        return "–"
    return pattern.format(value)


def hotpath_summary(path: Path) -> list[str]:
    if not path.is_file():
        return [f"_no hotpath trajectory at `{path}`_", ""]
    data = json.loads(path.read_text())
    cfg = data.get("config", {})
    lines = [
        f"### Hot path (n={cfg.get('n')}, d={cfg.get('d')}, "
        f"ops={cfg.get('ops')}, m_max={cfg.get('m_max')})",
        "",
        "| workload | engine | init s | op/s | ms/op |",
        "|---|---|---:|---:|---:|",
    ]
    for wname, wl in data.get("workloads", {}).items():
        for ename, eng in wl.get("engines", {}).items():
            lines.append(
                f"| {wname} | {ename} | "
                f"{_fmt(eng.get('init_seconds'))} | "
                f"{_fmt(eng.get('ops_per_second'), '{:.0f}')} | "
                f"{_fmt(eng.get('ms_per_op'), '{:.3f}')} |")
    breakdown = (data.get("workloads", {})
                 .get("mixed_50_50", {}).get("cold_start_breakdown"))
    if breakdown:
        phases = ", ".join(f"{k} {v:.2f}s" for k, v in breakdown.items())
        lines += ["", f"Cold start breakdown: {phases}"]
    lines.append("")
    return lines


def scenarios_summary(path: Path) -> list[str]:
    if not path.is_file():
        return [f"_no scenario trajectory at `{path}`_", ""]
    data = json.loads(path.read_text())
    cfg = data.get("config", {})
    lines = [
        f"### Scenarios (n={cfg.get('n')}, r={cfg.get('r')}, "
        f"eps={cfg.get('eps')}, m_max={cfg.get('m_max')})",
        "",
        "| scenario | algorithm | init s | op/s | p50 ms | p99 ms | "
        "mean mrr | vs baseline |",
        "|---|---|---:|---:|---:|---:|---:|---:|",
    ]
    for sname, entry in data.get("scenarios", {}).items():
        for aname, algo in entry.get("algorithms", {}).items():
            lat = algo.get("latency_ms", {})
            speed = algo.get("speedup_vs_baseline")
            lines.append(
                f"| {sname} | {aname} | "
                f"{_fmt(algo.get('init_seconds'))} | "
                f"{_fmt(algo.get('ops_per_second'), '{:.0f}')} | "
                f"{_fmt(lat.get('p50'), '{:.3f}')} | "
                f"{_fmt(lat.get('p99'), '{:.3f}')} | "
                f"{_fmt(algo.get('mean_mrr'), '{:.4f}')} | "
                f"{_fmt(speed) + 'x' if speed is not None else '–'} |")
    lines.append("")
    return lines


def main(argv=None) -> int:
    root = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hotpath", type=Path,
                    default=root / "BENCH_hotpath.json")
    ap.add_argument("--scenarios", type=Path,
                    default=root / "BENCH_scenarios.json")
    args = ap.parse_args(argv)
    lines = ["## Perf smoke summary", ""]
    lines += hotpath_summary(args.hotpath)
    lines += scenarios_summary(args.scenarios)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
