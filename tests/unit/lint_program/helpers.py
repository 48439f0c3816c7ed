"""Shared fixture plumbing for the lint rule tests.

Each test builds a synthetic multi-module mini-project in ``tmp_path``
(package dirs like ``sim/`` so the package-scoping heuristics apply),
then lints it and asserts on the findings and the model.
``write_project`` returns the root; ``lint_project`` runs the engine the
same way ``repro lint`` does, optionally restricted to *rules*.
"""

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.engine import Finding, LintEngine, LintReport, Rule


def write_project(root: Path, files: Dict[str, str]) -> Path:
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def lint_project(
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[LintReport, LintEngine]:
    engine = LintEngine(rules=rules, root=root)
    report = engine.run([root])
    return report, engine


def findings_for(report: LintReport, rule: str) -> List[Finding]:
    return [finding for finding in report.findings if finding.rule == rule]
