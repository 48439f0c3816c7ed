"""Unit tests for the throughput bench harness (repro.bench)."""

import json

import pytest

from repro.bench import compare_documents, measure_config
from repro.cli import main

#: A tiny grid so the whole module runs in seconds.
FAST = [
    "--schemes", "noswap",
    "--ops", "200",
    "--warmup-ops", "100",
    "--repeats", "1",
]


def run_bench_cli(tmp_path, *extra):
    argv = ["bench", *FAST, "--out-dir", str(tmp_path), *extra]
    return main(argv)


class TestBenchJson:
    def test_writes_valid_document(self, tmp_path):
        assert run_bench_cli(tmp_path, "--label", "unit") == 0
        document = json.loads((tmp_path / "BENCH_unit.json").read_text())
        assert document["label"] == "unit"
        assert set(document["params"]) == {
            "scale", "warmup_ops", "measure_ops", "seed", "repeats"
        }
        entry = document["results"]["noswap/milcx4"]
        assert entry["ops_per_sec"] > 0
        assert entry["ops"] == 200 * 4  # milcx4 runs four cores
        assert entry["wall_seconds_best"] <= entry["wall_seconds_total"]
        assert len(entry["stats_digest"]) == 16
        assert isinstance(document["git_rev"], str)

    def test_results_keep_bare_scheme_workload_keys(self, tmp_path):
        """One row per grid cell under the bare ``scheme/workload`` key,
        so new documents compare against the committed baselines."""
        assert run_bench_cli(tmp_path, "--label", "solo") == 0
        document = json.loads((tmp_path / "BENCH_solo.json").read_text())
        assert list(document["results"]) == ["noswap/milcx4"]

    def test_quick_flag_recorded(self, tmp_path):
        assert run_bench_cli(tmp_path, "--quick", "--label", "q") == 0
        document = json.loads((tmp_path / "BENCH_q.json").read_text())
        assert document["quick"] is True

    def test_unknown_scheme_rejected(self, tmp_path):
        assert main(["bench", "--schemes", "bogus",
                     "--out-dir", str(tmp_path)]) == 2

    def test_stats_digest_is_deterministic(self):
        kwargs = dict(scale=1024, warmup_ops=100, measure_ops=200,
                      seed=0, repeats=1)
        a = measure_config("noswap", "milcx4", **kwargs)
        b = measure_config("noswap", "milcx4", **kwargs)
        assert a["stats_digest"] == b["stats_digest"]


class TestCompareGate:
    @staticmethod
    def doc(rate):
        return {"results": {"noswap/milcx4": {"ops_per_sec": rate}}}

    def test_within_tolerance_passes(self):
        problems = compare_documents(self.doc(80.0), self.doc(100.0), 0.30)
        assert problems == []

    def test_beyond_tolerance_fails(self):
        problems = compare_documents(self.doc(60.0), self.doc(100.0), 0.30)
        assert len(problems) == 1
        assert "noswap/milcx4" in problems[0]

    def test_improvement_passes(self):
        assert compare_documents(self.doc(250.0), self.doc(100.0), 0.30) == []

    def test_configs_missing_from_current_are_ignored(self):
        current = {"results": {}}
        assert compare_documents(current, self.doc(100.0), 0.30) == []

    @staticmethod
    def sized(rate, digest="d", **params):
        sizing = {"scale": 1024, "warmup_ops": 500, "measure_ops": 6000,
                  "seed": 0, "repeats": 3}
        sizing.update(params)
        return {
            "params": sizing,
            "results": {"noswap/milcx4": {"ops_per_sec": rate,
                                          "stats_digest": digest}},
        }

    @pytest.mark.parametrize("name,value", [
        ("scale", 512), ("warmup_ops", 100), ("measure_ops", 2000), ("seed", 1),
    ])
    def test_refuses_a_baseline_at_another_sizing(self, name, value):
        """A quick run is no evidence against a full-size baseline, even
        when it looks faster."""
        problems = compare_documents(
            self.sized(500.0, **{name: value}), self.sized(100.0), 0.30
        )
        assert len(problems) == 1
        assert "sizing differs" in problems[0] and name in problems[0]

    def test_repeats_and_retired_params_do_not_matter(self):
        baseline = self.sized(100.0, engines=["batched", "scalar"])
        assert compare_documents(self.sized(100.0, repeats=1), baseline, 0.30) == []

    def test_changed_stats_digest_fails(self):
        """A speedup that changed behaviour is a bug, not a win."""
        problems = compare_documents(
            self.sized(500.0, digest="other"), self.sized(100.0), 0.30
        )
        assert len(problems) == 1
        assert "noswap/milcx4" in problems[0] and "digest" in problems[0]

    def test_cli_gate_fails_on_regression(self, tmp_path, capsys):
        assert run_bench_cli(tmp_path, "--label", "base") == 0
        baseline_path = tmp_path / "BENCH_base.json"
        baseline = json.loads(baseline_path.read_text())
        baseline["results"]["noswap/milcx4"]["ops_per_sec"] *= 1000
        # Hand-edited documents must drop the integrity stamp (the
        # checksummed reader would otherwise — correctly — reject them).
        baseline.pop("__persist__", None)
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps(baseline))
        assert run_bench_cli(
            tmp_path, "--label", "gate", "--compare", str(inflated)
        ) == 1
        assert "regression" in capsys.readouterr().out

    def test_cli_gate_passes_against_own_output(self, tmp_path):
        assert run_bench_cli(tmp_path, "--label", "base") == 0
        assert run_bench_cli(
            tmp_path, "--label", "again",
            "--compare", str(tmp_path / "BENCH_base.json"),
            "--max-regression", "0.95",
        ) == 0
