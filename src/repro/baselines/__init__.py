"""Static k-RMS baselines from the paper's evaluation (§IV-A).

Every algorithm takes an ``(n, d)`` point matrix (typically the current
skyline — k-RMS results are skyline subsets) and a size constraint ``r``
and returns row indices of the selected tuples. None of them supports
updates: the experiment harness re-runs them whenever the skyline
changes, exactly as the paper's protocol does.

One submodule per algorithm:

================================  ==========================================
:func:`.greedy.greedy`            GREEDY, 1-RMS greedy heuristic [22]
:func:`.greedy_star.greedy_star`  GREEDY*, randomized greedy for k > 1 [11]
:func:`.geogreedy.geo_greedy`     GEOGREEDY, hull-restricted greedy [23]
:func:`.dmm.dmm_rrms`             DMM-RRMS, discretized matrix min-max [4]
:func:`.dmm.dmm_greedy`           DMM-GREEDY, greedy on the DMM matrix [4]
:func:`.eps_kernel.eps_kernel`    ε-KERNEL coreset selection [2, 3, 10]
:func:`.hitting_set.hitting_set`  HS, hitting-set based min-size k-RMS [3]
:func:`.sphere.sphere`            SPHERE, ε-kernel + greedy hybrid [32]
:func:`.cube.cube`                CUBE, the original bounded heuristic [22]
:func:`.dp2d.dp2d`                interval DP for d = 2 (optimality oracle)
:func:`.arm.arm_greedy`           ARM, average-regret greedy
:func:`.rrr.rrr_greedy`           RRR, rank-regret greedy
:func:`brute_force_rms`           exhaustive search (tests only)
================================  ==========================================

The canonical entry points are :func:`repro.solve` /
:func:`repro.api.get_algorithm` (registry dispatch with capability
metadata); for the raw function, import it from its submodule, e.g.
``from repro.baselines.greedy import greedy``. This package re-exports
only the helpers that are not registered algorithms.
"""

from repro.baselines.arm import average_regret
from repro.baselines.dp2d import brute_force_rms
from repro.baselines.rrr import rank_regret

__all__ = [
    "average_regret",
    "brute_force_rms",
    "rank_regret",
]
