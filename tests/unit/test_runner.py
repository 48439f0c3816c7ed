"""Unit tests for the experiment runner (repro.experiments.runner)."""

import pytest

from repro.experiments.jobcore import execute_job
from repro.experiments.runner import (
    CACHE_VERSION,
    ExperimentRunner,
    VARIANTS,
)
from repro.sim.system import SCHEMES, effective_config, system_config
from repro.workloads import workload_by_name


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("scale", 1024)
    kwargs.setdefault("measure_ops", 400)
    kwargs.setdefault("warmup_ops", 500)
    kwargs.setdefault("workloads", ["lbmx4"])
    return ExperimentRunner(cache_dir=tmp_path / "cache", **kwargs)


BASE_VARIANTS = ("default", "nocorr", "nobw", "nohints")


class TestCacheKeys:
    """Keys are equal exactly when the effective configurations are."""

    def test_keys_follow_the_effective_configuration(self, tmp_path):
        runner = make_runner(tmp_path)
        workload = workload_by_name("lbmx4")
        requests = [
            (scheme, "lbmx4", variant)
            for scheme in sorted(SCHEMES) for variant in BASE_VARIANTS
        ]
        effective = {
            request: effective_config(request[0], system_config(
                workload, scale=1024, config_mutator=VARIANTS[request[2]],
            ))
            for request in requests
        }
        for a in requests:
            for b in requests:
                same = a[0] == b[0] and effective[a] == effective[b]
                assert (runner._key(*a) == runner._key(*b)) == same, (a, b)

    def test_baselines_share_one_key_across_pageseer_variants(self, tmp_path):
        runner = make_runner(tmp_path)
        for scheme in ("pom", "mempod", "cameo", "noswap"):
            keys = {runner._key(scheme, "lbmx4", v) for v in BASE_VARIANTS}
            assert len(keys) == 1, scheme
        pageseer = {runner._key("pageseer", "lbmx4", v) for v in BASE_VARIANTS}
        assert len(pageseer) == len(BASE_VARIANTS)

    def test_key_names_version_scheme_workload_and_sizing(self, tmp_path):
        key = make_runner(tmp_path)._key("pageseer", "lbmx4", "nocorr")
        for fragment in (
            f"v{CACHE_VERSION}", "pageseer", "lbmx4",
            "s1024", "m400", "w500", "seed0",
        ):
            assert fragment in key

    def test_different_sizing_different_keys(self, tmp_path):
        a = make_runner(tmp_path)
        b = make_runner(tmp_path, measure_ops=401)
        assert a._key("pom", "lbmx4", "default") != b._key("pom", "lbmx4", "default")

    def test_different_workloads_different_keys(self, tmp_path):
        runner = make_runner(tmp_path)
        assert runner._key("pom", "lbmx4", "default") != \
            runner._key("pom", "milcx4", "default")

    def test_unknown_names_key_apart_from_known_ones(self, tmp_path):
        """An unknown variant must not alias default: its job has to run
        (and fail), not return the default's result."""
        runner = make_runner(tmp_path)
        known = runner._key("pom", "lbmx4", "default")
        assert runner._key("pom", "lbmx4", "no-such-variant") != known
        assert runner._key("pom", "no-such-workload", "default") != known

    def test_corrupt_cache_entry_ignored(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.cache_dir.mkdir(parents=True, exist_ok=True)
        path = runner._cache_path(runner._key("noswap", "lbmx4", "default"))
        path.write_text("{not json")
        metrics = runner.run("noswap", "lbmx4")  # recomputes cleanly
        assert metrics.scheme == "noswap"


class TestRunMany:
    def test_dedup_and_results(self, tmp_path):
        runner = make_runner(tmp_path)
        requests = [("noswap", "lbmx4", "default")] * 3
        results = runner.run_many(requests, jobs=1)
        assert len(results) == 1

    def test_serial_path_matches_run(self, tmp_path):
        runner = make_runner(tmp_path)
        results = runner.run_many([("noswap", "lbmx4", "default")], jobs=1)
        direct = runner.run("noswap", "lbmx4")
        assert results[("noswap", "lbmx4", "default")].ipc == direct.ipc

    def test_cached_requests_skip_simulation(self, tmp_path, monkeypatch):
        runner = make_runner(tmp_path)
        runner.run("noswap", "lbmx4")  # populate

        import repro.experiments.runner as runner_module

        def boom(*args, **kwargs):
            raise AssertionError("simulation should not run")

        monkeypatch.setattr(runner_module, "build_system", boom)
        results = runner.run_many([("noswap", "lbmx4", "default")], jobs=1)
        assert ("noswap", "lbmx4", "default") in results

    def test_serial_path_is_unchecked_and_writes_no_checkpoints(
        self, tmp_path, monkeypatch
    ):
        """run_many(jobs=1) costs what run() costs: its scratch root is
        gone on return, so nothing could resume from a checkpoint, and
        like run() it leaves the sanitizer off."""
        import repro.sim.system as system_module
        from repro.snapshot.hooks import Checkpointer

        checks = []
        build_system = system_module.build_system

        def spy(*args, **kwargs):
            checks.append(kwargs.get("check"))
            return build_system(*args, **kwargs)

        def no_write(checkpointer, system, path):
            raise AssertionError(f"checkpoint written to {path}")

        monkeypatch.setattr(system_module, "build_system", spy)
        monkeypatch.setattr(Checkpointer, "_write", no_write)
        runner = make_runner(tmp_path, worker_check_level="full")
        results = runner.run_many([("pageseer", "lbmx4", "default")], jobs=1)
        assert checks == [None]
        assert results[("pageseer", "lbmx4", "default")].ipc == make_runner(
            tmp_path / "direct"
        ).run("pageseer", "lbmx4").ipc

    @staticmethod
    def run_job(request, sizing, directory):
        """One sweep job, as a worker's job process runs it."""
        return execute_job(
            request, sizing, None, 0, directory,
            checkpoint_every=0, heartbeat_seconds=0.0,
        )

    def test_job_standalone(self, tmp_path):
        payload = self.run_job(
            ("noswap", "lbmx4", "default"), (1024, 200, 200, 0, "off"), tmp_path
        )
        assert payload["scheme"] == "noswap"
        assert payload["instructions"] > 0

    def test_job_applies_variant(self, tmp_path):
        payload = self.run_job(
            ("pageseer", "lbmx4", "nohints"), (1024, 400, 1500, 0, "off"), tmp_path
        )
        assert payload["swaps_mmu"] == 0

    def test_job_runs_sanitizer(self, tmp_path, monkeypatch):
        """Sweep jobs check at level full by default, and checking must
        not change the metrics they return."""
        from repro.check.manager import CheckManager

        plain = self.run_job(
            ("pageseer", "lbmx4", "default"), (1024, 300, 300, 0, "off"),
            tmp_path / "plain",
        )
        attached = []
        attach = CheckManager.attach

        def spy(manager, system):
            attached.append(manager.config.level)
            return attach(manager, system)

        monkeypatch.setattr(CheckManager, "attach", spy)
        checked = self.run_job(
            ("pageseer", "lbmx4", "default"), (1024, 300, 300, 0, "full"),
            tmp_path / "checked",
        )
        assert attached == ["full"], "the sanitizer never attached"
        assert ExperimentRunner().worker_check_level == "full"
        from repro.experiments.runner import _METRIC_FIELDS

        for name in _METRIC_FIELDS:
            assert plain[name] == checked[name]


class TestSweepFailures:
    def inject_failing_variant(self, monkeypatch):
        import repro.experiments.runner as runner_module

        def explode(config):
            raise RuntimeError("injected variant failure")

        monkeypatch.setitem(runner_module.VARIANTS, "explode", explode)

    def test_serial_sweep_collects_and_names_failures(self, tmp_path, monkeypatch):
        from repro.common.errors import SweepError

        self.inject_failing_variant(monkeypatch)
        runner = make_runner(tmp_path)
        requests = [
            ("noswap", "lbmx4", "default"),
            ("noswap", "lbmx4", "explode"),
        ]
        with pytest.raises(SweepError) as excinfo:
            runner.run_many(requests, jobs=1)
        error = excinfo.value
        assert [request for request, _ in error.failures] == [
            ("noswap", "lbmx4", "explode")
        ]
        assert "noswap/lbmx4/explode" in str(error)
        assert "injected variant failure" in str(error)
        # the healthy request still completed and was cached
        assert runner._load(runner._key("noswap", "lbmx4", "default")) is not None

    def test_parallel_sweep_collects_and_names_failures(self, tmp_path, monkeypatch):
        from repro.common.errors import SweepError

        self.inject_failing_variant(monkeypatch)
        runner = make_runner(tmp_path, measure_ops=200, warmup_ops=200)
        requests = [
            ("noswap", "lbmx4", "default"),
            ("noswap", "lbmx4", "explode"),
        ]
        with pytest.raises(SweepError) as excinfo:
            runner.run_many(requests, jobs=2)
        assert [request for request, _ in excinfo.value.failures] == [
            ("noswap", "lbmx4", "explode")
        ]
        assert "injected variant failure" in str(excinfo.value)
        # the healthy request was harvested and cached despite the failure
        assert runner._load(runner._key("noswap", "lbmx4", "default")) is not None


class TestPrewarm:
    def test_prewarm_covers_standard_matrix(self, tmp_path, monkeypatch):
        runner = make_runner(tmp_path)
        seen = []

        def fake_run_many(requests, jobs=None):
            seen.extend(requests)
            return {}

        monkeypatch.setattr(runner, "run_many", fake_run_many)
        runner.prewarm()
        variants = {request[2] for request in seen}
        assert variants == {"default", "nobw", "nocorr", "nohints"}
        schemes = {request[0] for request in seen}
        assert schemes == {"pageseer", "pom", "mempod"}


class TestVariantRegistry:
    def test_builtin_variants_present(self):
        for name in ("default", "nocorr", "nobw", "nohints"):
            assert name in VARIANTS

    def test_variants_are_pure(self):
        from repro.common.config import default_system_config

        config = default_system_config(scale=1024)
        mutated = VARIANTS["nocorr"](config)
        assert config.pageseer.correlation_enabled
        assert not mutated.pageseer.correlation_enabled
