"""RL105: raw state writes in, or reached from, the persistence packages.

A raw ``open(path, "w")`` inside the persistence packages is flagged at
the write; RL105 also follows call edges out of those packages and flags
the boundary call site when any transitively-reached helper performs the
write.
"""

from pathlib import Path

import pytest

from repro.lint.engine import LintEngine
from repro.lint.program.rules.persist_reach import PersistReachRule

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def _findings(tmp_path, files):
    write_project(tmp_path, files)
    report, _ = lint_project(tmp_path)
    return findings_for(report, "RL105")


def test_direct_laundering_is_flagged_at_the_call_site(tmp_path):
    findings = _findings(tmp_path, {
        "snapshot/saver.py": (
            "from util.io import dump_state\n"
            "def save(path, payload):\n"
            "    dump_state(path, payload)\n"
        ),
        "util/io.py": (
            "def dump_state(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(repr(payload))\n"
        ),
    })
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "snapshot/saver.py"
    assert finding.line == 3
    assert "util.io:dump_state" in finding.message
    assert 'open(..., "w")' in finding.message
    assert "util/io.py:2" in finding.message


def test_two_hop_laundering_is_caught(tmp_path):
    findings = _findings(tmp_path, {
        "sweepd/store.py": (
            "from util.outer import record\n"
            "def persist(path, payload):\n"
            "    record(path, payload)\n"
        ),
        "util/outer.py": (
            "from util.inner import spill\n"
            "def record(path, payload):\n"
            "    spill(path, payload)\n"
        ),
        "util/inner.py": (
            "def spill(path, payload):\n"
            "    path.write_text(repr(payload))\n"
        ),
    })
    assert len(findings) == 1
    assert findings[0].path == "sweepd/store.py"
    assert "util.outer:record" in findings[0].message
    assert ".write_text(...)" in findings[0].message


def test_clean_helper_is_not_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "snapshot/saver.py": (
            "from util.fmt import render\n"
            "def save(payload):\n"
            "    return render(payload)\n"
        ),
        "util/fmt.py": (
            "def render(payload):\n"
            "    return repr(payload)\n"
        ),
    })
    assert findings == []


def test_persist_layer_itself_is_exempt(tmp_path):
    """Calling repro.persist from scoped code is the POINT, not a bypass."""
    findings = _findings(tmp_path, {
        "snapshot/saver.py": (
            "from repro.persist import atomic_write\n"
            "def save(path, data):\n"
            "    atomic_write(path, data)\n"
        ),
        "repro/persist.py": (
            "import os\n"
            "def atomic_write(path, data):\n"
            "    with open(path, 'wb') as handle:\n"
            "        handle.write(data)\n"
            "    os.replace(path, path)\n"
        ),
    })
    assert findings == []


def test_in_scope_callee_is_flagged_once_at_the_write(tmp_path):
    """A raw write inside the scope is flagged at the write, not the call."""
    write_project(tmp_path, {
        "snapshot/saver.py": (
            "from snapshot.raw import spill\n"
            "def save(path, payload):\n"
            "    spill(path, payload)\n"
        ),
        "snapshot/raw.py": (
            "def spill(path, payload):\n"
            "    open(path, 'w').write(repr(payload))\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL105")
    assert len(findings) == 1
    assert findings[0].path == "snapshot/raw.py"
    assert findings[0].line == 2


def test_out_of_scope_caller_is_not_flagged(tmp_path):
    """Laundering only matters when the *caller* owns durable state."""
    findings = _findings(tmp_path, {
        "sim/engine.py": (
            "from util.io import dump_state\n"
            "def trace(path, payload):\n"
            "    dump_state(path, payload)\n"
        ),
        "util/io.py": (
            "def dump_state(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(repr(payload))\n"
        ),
    })
    assert findings == []


def test_each_boundary_call_site_reported_once(tmp_path):
    findings = _findings(tmp_path, {
        "experiments/cache.py": (
            "from util.io import dump_state\n"
            "def store(path, payload):\n"
            "    dump_state(path, payload)\n"
            "def store_again(path, payload):\n"
            "    dump_state(path, payload)\n"
        ),
        "util/io.py": (
            "def dump_state(path, payload):\n"
            "    path.write_bytes(payload)\n"
        ),
    })
    assert len(findings) == 2
    assert sorted(f.line for f in findings) == [3, 5]


def test_pragma_at_the_call_site_suppresses(tmp_path):
    write_project(tmp_path, {
        "snapshot/saver.py": (
            "from util.io import dump_state\n"
            "def save(path, payload):\n"
            "    dump_state(path, payload)"
            "  # repro-lint: disable=RL105\n"
        ),
        "util/io.py": (
            "def dump_state(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(repr(payload))\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL105") == []
    assert report.suppressed >= 1


def test_raw_write_facts_are_extracted(tmp_path):
    write_project(tmp_path, {
        "util/io.py": (
            "import json\n"
            "def dump(path, payload, handle):\n"
            "    json.dump(payload, handle)\n"
            "def read(path):\n"
            "    return path.read_text()\n"
            "class Log:\n"
            "    def flush(self, path):\n"
            "        path.write_text('x')\n"
            "    HEADER = open('log.txt', 'w')\n"
            "json.dump({}, open('state.json', 'w'))\n"
        ),
    })
    _, engine = lint_project(tmp_path)
    facts = engine.last_program_model.table.modules["util.io"]
    assert [w.detail for w in facts.functions["dump"].raw_writes] == [
        "json.dump(...)"
    ]
    assert facts.functions["read"].raw_writes == []
    assert len(facts.functions["Log.flush"].raw_writes) == 1
    # Each write is recorded once: the module level keeps only the writes
    # outside every recorded function.
    assert [w.line for w in facts.raw_writes] == [9, 10, 10]


# -- direct raw writes in the persistence scope -------------------------------


def _direct(tmp_path, files):
    write_project(tmp_path, files)
    report, _ = lint_project(tmp_path, rules=[PersistReachRule()])
    return findings_for(report, "RL105")


@pytest.mark.parametrize("statement,shape", [
    ("open(path, 'w')", 'open(..., "w")'),
    ("open(path, 'wb')", 'open(..., "wb")'),
    ("open(path, 'a')", 'open(..., "a")'),
    ("open(path, 'r+')", 'open(..., "r+")'),
    ("open(path, mode='w')", 'open(..., "w")'),
    ("json.dump(payload, handle)", "json.dump(...)"),
    ("pickle.dump(payload, handle)", "pickle.dump(...)"),
    ("path.write_text('x')", ".write_text(...)"),
    ("path.write_bytes(b'x')", ".write_bytes(...)"),
    ("path.open('w')", '.open("w")'),
    ("path.open(mode='ab')", '.open("ab")'),
])
def test_raw_write_shapes_are_flagged(tmp_path, statement, shape):
    findings = _direct(tmp_path, {
        "snapshot/writer.py": (
            "import json\n"
            "import pickle\n"
            "def save(path, payload, handle):\n"
            f"    {statement}\n"
        ),
    })
    assert len(findings) == 1
    assert shape in findings[0].message
    assert "repro.persist" in findings[0].message


@pytest.mark.parametrize("statement", [
    "open(path)",                 # default mode is read
    "open(path, 'r')",
    "open(path, 'rb')",
    "path.open('r')",
    "path.open()",
    "path.read_text()",
    "json.dumps(payload)",        # string dump: no file handle involved
    "json.load(handle)",
    "pickle.loads(handle)",
    "open(path, mode)",           # non-literal mode: no evidence of writing
])
def test_read_shapes_are_not_flagged(tmp_path, statement):
    findings = _direct(tmp_path, {
        "sweepd/reader.py": (
            "import json\n"
            "import pickle\n"
            "def load(path, payload, handle, mode):\n"
            f"    return {statement}\n"
        ),
    })
    assert findings == []


@pytest.mark.parametrize("relpath", [
    "snapshot/checkpoint.py",
    "sweepd/manifest.py",
    "experiments/runner.py",
    "experiments/nested/deep.py",
    "bench.py",
])
def test_scope_covers_every_persistence_package(tmp_path, relpath):
    findings = _direct(tmp_path, {
        relpath: "def save(path):\n    open(path, 'w')\n",
    })
    assert len(findings) == 1
    assert findings[0].path == relpath


@pytest.mark.parametrize("relpath", [
    "sim/core.py",
    "util/io_helpers.py",
    "figures.py",
])
def test_out_of_scope_files_are_ignored(tmp_path, relpath):
    findings = _direct(tmp_path, {
        relpath: "def save(path):\n    open(path, 'w')\n",
    })
    assert findings == []


def test_pragma_suppresses_a_justified_site(tmp_path):
    write_project(tmp_path, {
        "snapshot/rotate.py": (
            "def rotate(path, target):\n"
            "    target.write_bytes(path.read_bytes())"
            "  # repro-lint: disable=RL105\n"
        ),
    })
    report, _ = lint_project(tmp_path, rules=[PersistReachRule()])
    assert findings_for(report, "RL105") == []
    assert report.suppressed >= 1


def test_multiple_sites_each_get_a_finding(tmp_path):
    findings = _direct(tmp_path, {
        "experiments/dumper.py": (
            "import json\n"
            "def save(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
            "    path.write_text('done')\n"
        ),
    })
    assert len(findings) == 3


def test_module_level_write_is_flagged(tmp_path):
    findings = _direct(tmp_path, {
        "sweepd/boot.py": "open('state.json', 'w')\n",
    })
    assert len(findings) == 1
    assert findings[0].line == 1


def test_repo_tip_is_clean():
    """The repo's own persistence packages honour their discipline."""
    repo = Path(__file__).resolve().parents[3]
    report = LintEngine(rules=[PersistReachRule()], root=repo).run(["src/repro"])
    assert findings_for(report, "RL105") == []
