"""``repro.lint`` — the simulator correctness linter.

The runtime sanitizer (``repro.check``) catches invariant violations that a
particular run happens to exercise; this package catches whole classes of
reproducibility bugs statically, across *all* code paths, at zero simulation
cost.  One run applies two kinds of rule: per-file AST rules and
whole-program rules over a resolved symbol table and call graph
(:mod:`repro.lint.program`).

* **RL001 determinism** — unseeded randomness and wall-clock reads inside
  the simulation core (use :class:`repro.common.rng.DeterministicRng`),
  ``id()``-keyed dictionaries, and unordered ``set`` iteration.
* **RL003 config liveness** — dead configuration knobs (dataclass fields
  nobody reads) and reads of fields no config class declares.
* **RL004 unit hygiene** — arithmetic mixing ``Cycles``-annotated
  quantities with byte quantities or bare float literals in timing code.
* **RL005 hot-path hygiene** — per-call dataclass construction and
  dynamically-built stats keys inside functions marked ``# repro-hot``
  (the per-operation path inventoried in ``docs/PERFORMANCE.md``).
* **RL101 stats keys** — keys read but recorded nowhere, near-duplicate
  (typo'd) keys, unauditable record keys in the simulation packages, and
  (informational) keys recorded but never read.
* **RL102 determinism taint** — nondeterminism sources that reach
  simulator state or a stats record, across calls and modules.
* **RL103 checkpoint reachability** — snapshot-unsafe state (closures,
  files, locks, sockets) on any class reachable from ``System``.
* **RL104 SoA contracts** — dtype and per-element hazards in
  ``# repro-hot`` struct-of-arrays kernels.
* **RL105 persist discipline** — raw state-file writes in the
  persistence packages, directly or laundered through helpers.

Use it as ``python -m repro lint [--format text|json]``; see
``docs/LINTING.md`` for the rule catalogue, the ``# repro-lint:
disable=RULE`` suppression syntax, and the baseline workflow.
"""

from repro.lint.baseline import Baseline, DEFAULT_BASELINE_PATH
from repro.lint.engine import (
    Finding,
    LintEngine,
    LintReport,
    Rule,
    Severity,
    all_rules,
    lint_paths,
)

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE_PATH",
    "Finding",
    "LintEngine",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "lint_paths",
]
