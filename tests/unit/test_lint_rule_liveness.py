"""Every registered lint rule fires on a seeded violation.

A rule that never fires passes every gate while checking nothing, so the
single registry is held to a liveness contract: each rule id has a seeded
fixture here, and linting that fixture with the rule alone must produce
at least one finding under that id.  Registering a rule without adding a
fixture fails :func:`test_every_registered_rule_has_a_seeded_fixture`.
"""

import pytest

from repro.lint.engine import all_rules

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project

#: rule id -> a minimal mini-project containing one violation of it.
SEEDED = {
    "RL001": {"sim/core.py": "import random\n"},
    "RL003": {
        "common/config.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class PageSeerConfig:\n"
            "    unused_knob: int = 5\n"
        ),
    },
    "RL004": {
        "mem/device.py": "def f(now: Cycles, size: Bytes):\n    return now + size\n",
    },
    "RL005": {
        "sim/core.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Record:\n"
            "    value: int\n"
            "# repro-hot\n"
            "def step(value):\n"
            "    return Record(value)\n"
        ),
    },
    "RL101": {
        "sim/model.py": "def tick(stats):\n    stats.add('sim/requests', 1)\n",
        "report/figs.py": "def table(stats):\n    return stats.get('sim/reqests')\n",
    },
    "RL102": {
        "sim/model.py": (
            "import time\n"
            "class Engine:\n"
            "    def tick(self, stats):\n"
            "        stats.add('sim/tick_time', time.time())\n"
        ),
    },
    "RL103": {
        "sim/system.py": (
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.flush = lambda: None\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.pipeline = Pipeline()\n"
        ),
    },
    "RL104": {
        "mem/pool.py": (
            "import numpy as np\n"
            "class Pool:\n"
            "    def __init__(self, n):\n"
            "        self.ticks = np.zeros(n, dtype=np.int64)\n"
            "    def grow(self, n):\n"
            "        self.ticks = np.zeros(n)\n"
        ),
    },
    "RL105": {"snapshot/writer.py": "def save(path):\n    open(path, 'w')\n"},
}

#: rule id -> rule class, from the single registry.
RULES = {rule.rule_id: type(rule) for rule in all_rules()}


def test_every_registered_rule_has_a_seeded_fixture():
    assert sorted(RULES) == sorted(SEEDED), (
        "every registered rule needs exactly one seeded fixture in SEEDED"
    )


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_registered_rule_fires_on_its_seeded_fixture(tmp_path, rule_id):
    write_project(tmp_path, SEEDED[rule_id])
    report, _ = lint_project(tmp_path, rules=[RULES[rule_id]()])
    assert findings_for(report, rule_id), f"{rule_id} did not fire"
