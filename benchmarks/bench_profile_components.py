"""Extension — where does an FD-RMS update spend its time?

§III-B's complexity analysis splits the update cost into top-k
maintenance (``O(u(Δ_t)·n_t)``) and set-cover maintenance
(``O(m² log m)``). This bench measures the split empirically with the
component profiler, at two values of m (the cover share should grow
with m).

It also breaks down the **cold start** (engine build) into its phases —
bootstrap GEMM + top-k selection, membership fill, set-cover greedy,
and the dynamic-skyline build the recompute wrapper pays — the
same numbers ``bench_hotpath`` publishes to ``BENCH_hotpath.json``.
"""

import time

from repro.api.session import FDRMSSession, RecomputeSession
from repro.bench.profile import ProfiledFDRMS
from repro.data import Database, make_paper_workload
from repro.data.database import INSERT
from repro.data.synthetic import independent_points

from _common import CFG, emit


def _drive(points, workload, r, eps, m_max, seed):
    db = Database(workload.initial)
    algo = ProfiledFDRMS(db, 1, r, eps, m_max=m_max, seed=seed)
    t0 = time.perf_counter()
    for _, op, _ in workload.replay():
        if op.kind == INSERT:
            algo.insert(op.point)
        else:
            algo.delete(op.tuple_id)
    total = time.perf_counter() - t0
    return algo, total


def test_profile_component_split(benchmark):
    n = min(CFG["n"], 1500)
    points = independent_points(n, 4, seed=95)
    workload = make_paper_workload(points, seed=96)

    def run():
        small = _drive(points, workload, 10, 0.02, 128, seed=97)
        large = _drive(points, workload, 10, 0.08, CFG["m_max"], seed=97)
        return small, large

    (algo_s, t_s), (algo_l, t_l) = benchmark.pedantic(run, rounds=1,
                                                      iterations=1)
    lines = [f"{'config':>22} {'topk ms':>9} {'cover ms':>9} "
             f"{'total s':>8} {'m':>6}"]
    for label, algo, total in [("m_max=128, eps=0.02", algo_s, t_s),
                               (f"m_max={CFG['m_max']}, eps=0.08", algo_l, t_l)]:
        parts = algo.breakdown()
        lines.append(f"{label:>22} {1000 * parts.get('topk', 0):>9.1f} "
                     f"{1000 * parts.get('cover', 0):>9.1f} "
                     f"{total:>8.2f} {algo.m:>6}")
    emit("profile_components", "\n".join(lines))
    # Both components must be visible, and raising m/eps must raise the
    # cover-side share (the m² log m term of §III-B).
    ps, pl = algo_s.breakdown(), algo_l.breakdown()
    assert ps.get("topk", 0) > 0 and ps.get("cover", 0) > 0
    share_s = ps["cover"] / (ps["cover"] + ps["topk"])
    share_l = pl["cover"] / (pl["cover"] + pl["topk"])
    assert share_l >= share_s * 0.5  # never collapses when m grows


def test_profile_cold_start(benchmark):
    """Phase breakdown of the engine build (and the skyline init)."""
    n = min(CFG["n"], 4000)
    points = independent_points(n, 5, seed=98)

    def run():
        fd = FDRMSSession(points, r=10, k=1, eps=0.05,
                          m_max=CFG["m_max"], seed=99)
        static = RecomputeSession(points, lambda pool: [0],
                                  name="probe", use_skyline=True)
        return fd, static

    fd, static = benchmark.pedantic(run, rounds=1, iterations=1)
    phases = dict(fd.init_profile)
    phases["skyline_init"] = static.init_profile["skyline_init"]
    width = max(len(k) for k in phases)
    lines = [f"cold start at n={n} (FD-RMS build {fd.init_seconds:.3f}s, "
             f"skyline {static.init_seconds:.3f}s)"]
    lines += [f"  {k:<{width}} {1e3 * v:8.1f} ms"
              for k, v in phases.items()]
    emit("profile_cold_start", "\n".join(lines))
    # Every phase must be present and account for most of the build.
    for key in ("bootstrap_gemm", "membership_fill", "cover_greedy",
                "skyline_init"):
        assert key in phases and phases[key] >= 0.0
    covered = sum(fd.init_profile.values())
    assert covered <= fd.init_seconds * 1.05
    assert covered >= fd.init_seconds * 0.5
