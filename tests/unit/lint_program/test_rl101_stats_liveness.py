"""RL101: stats-key discipline — liveness, typos, dynamic keys."""

from pathlib import Path

from repro.lint.engine import Severity, lint_paths
from repro.lint.program.rules.stats_liveness import StatsLivenessRule

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def test_positive_typo_between_sim_and_report_layers(tmp_path):
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/requests', 1)\n"
        ),
        "report/figs.py": (
            "def table(stats):\n"
            "    return stats.get('sim/reqests')\n"  # typo'd key
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL101")
    warning = [f for f in findings if f.severity.label == "warning"]
    assert len(warning) == 1
    assert warning[0].path == "report/figs.py"
    assert 'sim/reqests' in warning[0].message
    assert 'did you mean "sim/requests"?' in warning[0].message
    assert report.exit_code == 1


def test_negative_matching_keys_pass(tmp_path):
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/requests', 1)\n"
        ),
        "report/figs.py": (
            "def table(stats):\n"
            "    return stats.get('sim/requests')\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL101") == []
    assert report.exit_code == 0


def test_reads_through_snapshot_copies_count(tmp_path):
    # Besides `stats`-named receivers, RL101 also credits slash-literal
    # reads through snapshot/metric objects.
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/requests', 1)\n"
        ),
        "report/figs.py": (
            "def table(snapshot):\n"
            "    return snapshot.get('sim/requests')\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL101") == []


def test_fstring_pattern_prefix_satisfies_reads(tmp_path):
    write_project(tmp_path, {
        "report/model.py": (  # outside sim packages: f-string keys allowed
            "def tick(stats, kind):\n"
            "    stats.add(f'sim/req_{kind}', 1)\n"
        ),
        "report/figs.py": (
            "def table(stats):\n"
            "    return stats.get('sim/req_load')\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    warning = [f for f in findings_for(report, "RL101") if f.severity.label == "warning"]
    assert warning == []


def test_recorded_never_read_is_informational(tmp_path):
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/orphan', 1)\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL101")
    assert len(findings) == 1
    assert findings[0].severity.label == "info"
    assert "sim/orphan" in findings[0].message
    assert report.exit_code == 0


def run(tmp_path: Path, files: dict):
    write_project(tmp_path, files)
    return lint_paths(["."], root=tmp_path, rules=[StatsLivenessRule()])


def messages(report):
    return [f.message for f in report.findings]


RECORD_AND_READ = {
    "sim/model.py": "def tick(stats):\n    stats.add('hmc/requests')\n",
    "analysis/metrics.py": "def load(stats):\n    return stats.get('hmc/requests')\n",
}


class TestDynamicKeys:
    def test_fstring_key_in_sim_package_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {"sim/model.py": "def tick(stats, kind):\n    stats.add(f'hmc/req_{kind}')\n"},
        )
        assert any("f-string stats key" in m for m in messages(report))

    def test_fstring_key_outside_sim_package_tolerated(self, tmp_path):
        report = run(
            tmp_path,
            {"analysis/dump.py": "def tick(stats, kind):\n    stats.add(f'hmc/req_{kind}')\n"},
        )
        assert not any("f-string" in m for m in messages(report))

    def test_arbitrary_expression_key_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {"sim/model.py": "def tick(stats, key):\n    stats.add(key)\n"},
        )
        assert any("non-literal stats key" in m for m in messages(report))

    def test_literal_key_table_accepted_and_recorded(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "_KEYS = {'demand': 'hmc/req_demand', 'pte': 'hmc/req_pte'}\n"
                    "def tick(stats, kind):\n"
                    "    stats.add(_KEYS[kind])\n"
                ),
                "analysis/metrics.py": (
                    "def load(stats):\n"
                    "    return stats.get('hmc/req_demand') + stats.get('hmc/req_pte')\n"
                ),
            },
        )
        assert report.failing == []

    def test_tuple_key_table_accepted(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "_KEYS = ('walk/l0', 'walk/l1')\n"
                    "def tick(stats, level):\n"
                    "    stats.add(_KEYS[level])\n"
                )
            },
        )
        assert report.failing == []

    def test_precomputed_self_key_attribute_accepted(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "class Pool:\n"
                    "    def __init__(self, stats, prefix):\n"
                    "        self.stats = stats\n"
                    "        self._key_hits = prefix + '/hits'\n"
                    "    def tick(self):\n"
                    "        self.stats.add(self._key_hits)\n"
                )
            },
        )
        assert report.failing == []


class TestLiveness:
    def test_read_never_recorded_flagged_with_suggestion(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": "def tick(stats):\n    stats.add('hmc/requests')\n",
                "analysis/metrics.py": (
                    "def load(stats):\n    return stats.get('hmc/request')\n"
                ),
            },
        )
        flagged = [m for m in messages(report) if "recorded nowhere" in m]
        assert flagged and 'did you mean "hmc/requests"' in flagged[0]

    def test_matching_read_and_record_clean(self, tmp_path):
        report = run(tmp_path, dict(RECORD_AND_READ))
        assert not any("recorded nowhere" in m for m in messages(report))

    def test_fstring_prefix_covers_pattern_reads(self, tmp_path):
        report = run(
            tmp_path,
            {
                "analysis/dump.py": (
                    "def tick(stats, kind):\n"
                    "    stats.add(f'hmc/req_{kind}')\n"
                    "def load(stats):\n"
                    "    return stats.get('hmc/req_demand')\n"
                )
            },
        )
        assert not any("recorded nowhere" in m for m in messages(report))

    def test_recorded_never_read_is_informational_only(self, tmp_path):
        report = run(
            tmp_path,
            {"sim/model.py": "def tick(stats):\n    stats.add('hmc/orphan')\n"},
        )
        unread = [
            f for f in report.findings if "recorded but never read" in f.message
        ]
        assert unread and all(f.severity == Severity.INFO for f in unread)
        assert report.exit_code == 0


class TestNearDuplicates:
    def test_one_character_typo_pair_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "def tick(stats):\n"
                    "    stats.add('swap/declined')\n"
                    "    stats.add('swap/declinee')\n"
                )
            },
        )
        assert any("differ by one" in m for m in messages(report))

    def test_digit_variants_are_exempt(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "def tick(stats):\n"
                    "    stats.add('tlb/l1_hits')\n"
                    "    stats.add('tlb/l2_hits')\n"
                )
            },
        )
        assert not any("differ by one" in m for m in messages(report))

    def test_distant_keys_clean(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "def tick(stats):\n"
                    "    stats.add('swap/requests')\n"
                    "    stats.add('hmc/positive_accesses')\n"
                )
            },
        )
        assert not any("differ by one" in m for m in messages(report))
