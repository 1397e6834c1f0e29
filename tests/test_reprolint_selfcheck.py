"""Self-check: the repo's own sources stay reprolint-clean.

The flat-array core must carry **zero** undisabled diagnostics, and any
suppression pragma anywhere in the linted tree must carry a
justification (a bare pragma is itself a diagnostic, RPL009). This is
the in-process twin of the CI gate
``python -m tools.reprolint src tests benchmarks``.
"""

from __future__ import annotations

from pathlib import Path

from tools.reprolint.engine import run_paths

REPO_ROOT = Path(__file__).parent.parent


def _active_renders(paths: list[str]) -> list[str]:
    results = run_paths([REPO_ROOT / p for p in paths], root=REPO_ROOT)
    return [d.render(with_hint=False)
            for res in results for d in res.active]


def test_core_has_zero_undisabled_diagnostics() -> None:
    assert _active_renders(["src/repro/core"]) == []


def test_scenarios_are_clean() -> None:
    assert _active_renders(["src/repro/scenarios"]) == []


def test_full_lint_surface_is_clean() -> None:
    """Same surface as CI: src, tests, benchmarks (fixtures excluded)."""
    assert _active_renders(["src", "tests", "benchmarks"]) == []


def test_core_suppressions_are_all_justified() -> None:
    """Every pragma parses with a justification; RPL009 would leak out
    through ``active`` otherwise, but assert the stronger property that
    suppressed diagnostics exist (the pragmas do cover something)."""
    results = run_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    suppressed = [d for res in results for d in res.diagnostics
                  if d.suppressed]
    assert suppressed, "expected justified suppressions in src/"
    assert all(d.code != "RPL009" for res in results
               for d in res.diagnostics)
