"""``sweep --resume`` manifest validation and job-directory dedup.

An incompatible manifest must fail with one clear, versioned error
(distinct exit code + remediation hint) instead of an unpickling
traceback, a manifest torn past its backup must be quarantined rather
than lost, and two sweeps that differ only in seed/sizing must never
share per-job checkpoint directories.
"""

import json
import pickle

import pytest

from repro.cli import EXIT_MANIFEST_VERSION, main
from repro.common.errors import CheckpointError, ManifestVersionError, SweepdError
from repro.experiments.runner import ExperimentRunner
from repro.fsck import QUARANTINE_DIRNAME
from repro.persist import backup_path
from repro.snapshot.checkpoint import LATEST_NAME
from repro.sweepd.fleet import JOBS_DIRNAME, load_sweep, run_sweep
from repro.sweepd.jobs import DONE, build_job, job_id_for
from repro.sweepd.manifest import (
    MANIFEST_NAME,
    SWEEPD_MANIFEST_VERSION as MANIFEST_VERSION,
    JobManifest,
)
from repro.sweepd.server import JobService


def _runner(tmp_path, seed=0):
    return ExperimentRunner(
        scale=1024, measure_ops=400, warmup_ops=400, seed=seed,
        worker_check_level="off", cache_dir=tmp_path / f"cache{seed}",
    )


def _resume(tmp_path):
    return load_sweep(_runner(tmp_path), tmp_path / "sweep")


def _job_entry(**overrides):
    entry = build_job(
        ("pageseer", "lbmx4", "default"), (1024, 400, 400, 0, "off"), None
    ).to_json()
    entry.update(overrides)
    return entry


def _write_manifest(tmp_path, data, binary=False):
    root = tmp_path / "sweep"
    root.mkdir(parents=True, exist_ok=True)
    path = root / MANIFEST_NAME
    if binary:
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    return root


class TestManifestValidation:
    def test_pickled_manifest_raises_versioned_error(self, tmp_path):
        _write_manifest(
            tmp_path, pickle.dumps({"requests": []}), binary=True
        )
        with pytest.raises(ManifestVersionError, match="pickled") as excinfo:
            _resume(tmp_path)
        assert excinfo.value.hint is not None
        assert "checkpoint-root" in excinfo.value.hint

    def test_version_skew_raises_versioned_error(self, tmp_path):
        _write_manifest(tmp_path, {
            "sweepd_manifest_version": MANIFEST_VERSION + 1, "jobs": [],
        })
        with pytest.raises(ManifestVersionError, match="unsupported"):
            _resume(tmp_path)

    def test_missing_job_fields_raise_versioned_error(self, tmp_path):
        entry = _job_entry()
        del entry["sizing"]
        _write_manifest(tmp_path, {
            "sweepd_manifest_version": MANIFEST_VERSION, "jobs": [entry],
        })
        with pytest.raises(ManifestVersionError, match="schema"):
            _resume(tmp_path)

    def test_foreign_fault_fields_raise_versioned_error(self, tmp_path):
        _write_manifest(tmp_path, {
            "sweepd_manifest_version": MANIFEST_VERSION,
            "jobs": [_job_entry(faults={"no_such_knob": 1})],
        })
        with pytest.raises(ManifestVersionError, match="fault configuration"):
            _resume(tmp_path)

    def test_missing_job_list_raises_versioned_error(self, tmp_path):
        _write_manifest(tmp_path, {"sweepd_manifest_version": MANIFEST_VERSION})
        with pytest.raises(ManifestVersionError, match="job list"):
            _resume(tmp_path)

    def test_absent_manifest_is_a_plain_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            _resume(tmp_path)

    def test_cli_resume_of_absent_manifest_exits_1(self, tmp_path, capsys):
        code = main([
            "sweep", "--resume", "--checkpoint-root", str(tmp_path / "none"),
            "--quiet",
        ])
        assert code == 1
        assert "nothing to resume" in capsys.readouterr().err

    def test_cli_resume_exits_with_distinct_code_and_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        root = _write_manifest(
            tmp_path, pickle.dumps({"requests": []}), binary=True
        )
        code = main([
            "sweep", "--resume", "--checkpoint-root", str(root), "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_MANIFEST_VERSION
        assert "pickled" in captured.err
        assert "hint:" in captured.err
        assert "Traceback" not in captured.err


class TestJobDirectoryDedup:
    def test_job_id_distinguishes_seed_and_sizing(self):
        request = ("pageseer", "lbmx4", "default")
        base = (1024, 400, 400, 0, "off")
        other_seed = (1024, 400, 400, 1, "off")
        other_scale = (512, 400, 400, 0, "off")
        assert job_id_for(request, base, None) != job_id_for(request, other_seed, None)
        assert job_id_for(request, base, None) != job_id_for(request, other_scale, None)
        assert job_id_for(request, base, None) == job_id_for(request, base, None)

    def test_same_config_different_seeds_use_disjoint_directories(self, tmp_path):
        """Two sweeps differing only in seed share a root but must
        checkpoint into different job directories."""
        request = ("pageseer", "lbmx4", "default")
        root = tmp_path / "sweep"
        for seed in (0, 1):
            run_sweep(
                _runner(tmp_path, seed=seed), [request], root, jobs=1,
                checkpoint_every=300,
            )
        dirs = sorted(p.name for p in (root / JOBS_DIRNAME).iterdir())
        assert len(dirs) == 2, dirs
        assert all((root / JOBS_DIRNAME / name / LATEST_NAME).exists()
                   for name in dirs)
        assert dirs[0] != dirs[1]


class TestTornManifest:
    """A manifest torn past its ``.bak``: ``repro sweep`` quarantines it
    and starts over (it resubmits every request, and the result cache
    decides what is done); a bare service refuses to start on it."""

    REQUESTS = [("pageseer", "lbmx4", "default"), ("pom", "lbmx4", "default")]

    def _tear(self, root):
        path = root / MANIFEST_NAME
        torn = path.read_bytes()[: path.stat().st_size // 2]
        path.write_bytes(torn)
        backup_path(path).write_bytes(torn)
        return torn

    def test_sweep_quarantines_it_and_completes(self, tmp_path):
        root = tmp_path / "sweep"
        first, _ = run_sweep(_runner(tmp_path), self.REQUESTS[:1], root, jobs=1)
        torn = self._tear(root)

        with pytest.raises(SweepdError, match="no usable backup"):
            JobService(root, tmp_path / "cache0")

        with pytest.warns(RuntimeWarning, match="quarantine"):
            results, report = run_sweep(
                _runner(tmp_path), self.REQUESTS, root, jobs=1
            )
        assert set(results) == set(self.REQUESTS)
        assert results[self.REQUESTS[0]] == first[self.REQUESTS[0]]
        assert report.jobs_already_done == 1
        quarantined = root / QUARANTINE_DIRNAME
        assert (quarantined / MANIFEST_NAME).read_bytes() == torn
        assert (quarantined / f"{MANIFEST_NAME}.bak").read_bytes() == torn
        manifest = JobManifest(root)
        assert manifest.load()
        assert {record.state for record in manifest.jobs.values()} == {DONE}
        assert len(manifest.jobs) == len(self.REQUESTS)

    def test_fully_cached_sweep_quarantines_it_too(self, tmp_path):
        root = tmp_path / "sweep"
        run_sweep(_runner(tmp_path), self.REQUESTS, root, jobs=1)
        torn = self._tear(root)
        with pytest.warns(RuntimeWarning, match="quarantine"):
            results, report = run_sweep(
                _runner(tmp_path), self.REQUESTS, root, jobs=1
            )
        assert report.jobs_already_done == len(results) == len(self.REQUESTS)
        assert (root / QUARANTINE_DIRNAME / MANIFEST_NAME).read_bytes() == torn
        assert len(load_sweep(_runner(tmp_path), root)) == len(self.REQUESTS)
