"""Micro-benchmark: cold ``repro lint`` runtime over the whole repo.

CI runs ``repro lint`` on every push, so the analyzer's cost is a direct
tax on iteration speed.  A cold run (parse + extract + propagate for the
whole repo, then every rule) must stay under the CI timing budget.

The budget is deliberately loose (CI machines are slow and shared); the
reported number, not the threshold, is the regression signal to watch in
the bench summary.
"""

import time
from pathlib import Path

from repro.lint.engine import LintEngine

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The CI timing budget for a cold whole-repo lint run, in seconds.
COLD_BUDGET_S = 60.0


def test_analyzer_cold_runtime():
    start = time.perf_counter()
    engine = LintEngine(root=REPO_ROOT)
    report = engine.run([REPO_ROOT / "src" / "repro"])
    cold_s = time.perf_counter() - start
    model = engine.last_program_model

    assert report.parse_errors == []
    assert model is not None
    assert cold_s < COLD_BUDGET_S, (
        f"cold lint took {cold_s:.1f}s "
        f"(budget {COLD_BUDGET_S:.0f}s) — a rule or the extractor regressed"
    )
    print(
        f"\nrepro lint: cold {cold_s:.2f}s "
        f"({len(model.table.modules)} files, "
        f"{len(model.table.functions)} functions, "
        f"{len(model.graph.edges)} call edges)"
    )
