"""repro — reproduction of "A Fully Dynamic Algorithm for k-Regret
Minimizing Sets" (Wang, Li, Wong, Tan; ICDE 2021).

Public API tour
---------------
* :func:`repro.solve` — one-shot facade: run any registered algorithm
  on a point matrix and get back a uniform :class:`repro.RMSResult`.
* :func:`repro.open_session` — streaming :class:`repro.Session`
  (``insert`` / ``delete`` / ``result`` / ``stats``) unifying FD-RMS
  and skyline-recompute wrappers for the static baselines.
* :func:`repro.list_algorithms` / :func:`repro.get_algorithm` /
  :func:`repro.register` — the algorithm registry with capability
  metadata (k > 1 support, dynamic updates, min-size mode, d = 2 only);
  the CLI and benchmark harness dispatch through it too.
* :class:`repro.Database` — the fully-dynamic database ``P_t``.
* :class:`repro.FDRMS` — the paper's contribution: maintain a
  ``RMS(k, r)`` result under arbitrary insertions and deletions.
* :class:`repro.RegretEvaluator` / :func:`repro.max_k_regret_ratio_sampled`
  — measure solution quality (``mrr_k``).
* :mod:`repro.baselines` — every static algorithm the paper compares
  against (GREEDY, GEOGREEDY, DMM, ε-KERNEL, HS, SPHERE, CUBE, ...);
  prefer registry dispatch over direct imports.
* :mod:`repro.data` — synthetic generators (Indep/AntiCor), simulated
  real-world datasets, and the paper's dynamic workload protocol.
* :mod:`repro.bench` — the experiment harness regenerating the paper's
  tables and figures, driven by the same registry.
* :mod:`repro.scenarios` — declarative dynamic-workload scenarios
  compiled to replayable, content-hashed operation traces
  (:func:`repro.get_scenario`, :func:`repro.run_scenario`), with a
  built-in catalogue from the paper's protocol to adversarial skyline
  churn (``python -m repro scenarios``).

Quickstart
----------
>>> import numpy as np
>>> import repro
>>> points = np.random.default_rng(0).random((500, 4))
>>> res = repro.solve(points, r=10, algo="fd-rms", seed=0)
>>> len(res) <= 10
True
>>> session = repro.open_session(points, r=10, algo="fd-rms", seed=0)
>>> pid = session.insert([0.99, 0.99, 0.99, 0.99])
>>> pid in session.result()
True
"""

from repro.api import (
    AlgorithmSpec,
    Capabilities,
    CapabilityError,
    FDRMSSession,
    RecomputeSession,
    RMSResult,
    Session,
    UnknownAlgorithmError,
    get_algorithm,
    list_algorithms,
    open_session,
    register,
    solve,
)
from repro.core import (
    FDRMS,
    ApproxTopKIndex,
    RegretEvaluator,
    StableSetCover,
    k_regret_ratio,
    max_k_regret_ratio_sampled,
    max_regret_ratio_lp,
)
from repro.data import Database, DynamicWorkload, Operation, make_paper_workload
from repro.scenarios import (
    Scenario,
    Trace,
    get_scenario,
    list_scenarios,
    load_trace,
    replay_trace,
    run_scenario,
    save_trace,
)

__version__ = "4.1.0"

__all__ = [
    # unified solver API
    "solve",
    "RMSResult",
    "open_session",
    "Session",
    "FDRMSSession",
    "RecomputeSession",
    "register",
    "get_algorithm",
    "list_algorithms",
    "AlgorithmSpec",
    "Capabilities",
    "CapabilityError",
    "UnknownAlgorithmError",
    # core engine
    "FDRMS",
    "ApproxTopKIndex",
    "StableSetCover",
    "RegretEvaluator",
    "k_regret_ratio",
    "max_k_regret_ratio_sampled",
    "max_regret_ratio_lp",
    # data model
    "Database",
    "Operation",
    "DynamicWorkload",
    "make_paper_workload",
    # scenario engine
    "Scenario",
    "Trace",
    "get_scenario",
    "list_scenarios",
    "load_trace",
    "save_trace",
    "replay_trace",
    "run_scenario",
    "__version__",
]
