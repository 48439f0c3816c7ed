"""End-to-end checkpoint/restore determinism and supervision tests.

The contract under test (docs/CHECKPOINTS.md): a run interrupted at any
point and restored — even in a *fresh process* — finishes with metrics
bit-identical to the uninterrupted run.  The 12 pinned goldens provide
the uninterrupted references; each is re-run with two interior cut
points (one during warm-up, one mid-measurement) and both cuts are
restored in a subprocess and driven to completion.

Also covered here: the CLI signal protocol (SIGINT/SIGTERM write one
final checkpoint and exit 75; a second signal force-quits), the fault
matrix's "worker SIGKILLed mid-run, resumed, digest identical" row, and
the sweep executor's watchdog + resume behaviour.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.check.golden import (
    GOLDEN_SIZING,
    golden_matrix,
    load_golden,
    metrics_payload,
    payload_digest,
)
from repro.common.config import CheckConfig, FaultConfig
from repro.experiments.jobcore import load_result
from repro.experiments.runner import _METRIC_FIELDS, VARIANTS, ExperimentRunner
from repro.snapshot import Checkpointer, load_checkpoint
from repro.sweepd.fleet import JOBS_DIRNAME, load_sweep, run_sweep
from repro.sweepd.jobs import DONE, job_id_for
from repro.sweepd.manifest import MANIFEST_NAME, JobManifest
from repro.workloads import workload_by_name

from tests.oracles.scalar_engine import scalar_engine

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: Interior cut points, in scheduler steps.  At GOLDEN_SIZING (400+400
#: ops/core, 4 cores) a full run is 3200 steps and warm-up ends at 1600:
#: the first cut lands mid-warm-up, the second mid-measurement.
WARMUP_CUT = 500
MEASURE_CUT = 2000

_RESTORE_SCRIPT = """\
import sys
from repro.check.golden import metrics_payload, payload_digest
from repro.snapshot import load_checkpoint

for path in sys.argv[1:]:
    system = load_checkpoint(path)
    metrics = system.resume_run()
    print(payload_digest(metrics_payload(metrics)))
"""


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _golden_system(scheme, workload, variant):
    """The exact system run_golden_entry builds (sanitizer at full)."""
    from repro.sim.system import build_system

    def mutate(config):
        config = VARIANTS[variant](config)
        return dataclasses.replace(config, check=CheckConfig(level="full"))

    return build_system(
        scheme,
        workload_by_name(workload),
        scale=GOLDEN_SIZING["scale"],
        seed=GOLDEN_SIZING["seed"],
        config_mutator=mutate,
    )


def _metric_dict(metrics):
    return {name: getattr(metrics, name) for name in _METRIC_FIELDS}


def _wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise AssertionError(f"{path} did not appear within {timeout}s")
        time.sleep(0.01)


# -- the cut-point matrix -----------------------------------------------------


@pytest.mark.parametrize("scheme,workload,variant", golden_matrix())
def test_fresh_process_restore_matches_golden(scheme, workload, variant, tmp_path):
    """Every golden, interrupted at two interior cuts and restored in a
    fresh interpreter, must reproduce its pinned digest bit-for-bit."""
    document = load_golden(GOLDEN_DIR, scheme, workload, variant)
    assert document is not None, "golden files missing; run `repro golden --update`"

    system = _golden_system(scheme, workload, variant)
    Checkpointer(tmp_path, cut_points=[WARMUP_CUT, MEASURE_CUT]).arm(system)
    metrics = system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])

    # Checkpointing itself must not perturb the simulation.
    assert payload_digest(metrics_payload(metrics)) == document["digest"]

    cuts = [tmp_path / f"cut_{WARMUP_CUT}.ckpt", tmp_path / f"cut_{MEASURE_CUT}.ckpt"]
    for cut in cuts:
        assert cut.exists()
    completed = subprocess.run(
        [sys.executable, "-c", _RESTORE_SCRIPT, *map(str, cuts)],
        capture_output=True, text=True, timeout=300,
        env=_subprocess_env(), cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    digests = completed.stdout.split()
    assert digests == [document["digest"]] * len(cuts), (
        f"restored run diverged from uninterrupted reference "
        f"({scheme}/{workload}/{variant}): {digests} "
        f"vs pinned {document['digest']}"
    )


# -- CLI signal protocol ------------------------------------------------------


def _launch_cli_run(checkpoint_dir: Path, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run",
            "--scheme", "pageseer", "--workload", "lbmx4",
            "--scale", "1024", "--warmup-ops", "1000",
            "--measure-ops", "50000", "--checkpoint-every", "400",
            "--checkpoint-dir", str(checkpoint_dir), *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_subprocess_env(), cwd=REPO_ROOT,
    )


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_writes_final_checkpoint_and_exit_75(tmp_path, signum):
    checkpoint_dir = tmp_path / "ck"
    process = _launch_cli_run(checkpoint_dir)
    _wait_for(checkpoint_dir / "latest.ckpt")
    process.send_signal(signum)
    _, stderr = process.communicate(timeout=60)
    assert process.returncode == 75, stderr
    assert f"interrupted by signal {int(signum)}" in stderr
    assert "resume with: python -m repro run --resume" in stderr
    assert (checkpoint_dir / "latest.ckpt").exists()

    # The advertised resume command completes the run cleanly.
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "run",
         "--resume", str(checkpoint_dir / "latest.ckpt")],
        capture_output=True, text=True, timeout=300,
        env=_subprocess_env(), cwd=REPO_ROOT,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resuming pageseer on lbmx4" in resumed.stdout


def test_second_signal_force_quits(tmp_path):
    checkpoint_dir = tmp_path / "ck"
    process = _launch_cli_run(checkpoint_dir)
    _wait_for(checkpoint_dir / "latest.ckpt")
    # Two signals back-to-back: both are pending before the run loop can
    # finalize, so the second handler invocation must force-exit with the
    # conventional 128+signum status.
    process.send_signal(signal.SIGINT)
    process.send_signal(signal.SIGTERM)
    process.communicate(timeout=60)
    assert process.returncode == 128 + signal.SIGTERM


def test_resume_scheme_mismatch_is_rejected(tmp_path):
    system = _golden_system("pom", "lbmx4", "default")
    system.run_ops(50)
    from repro.snapshot import save_checkpoint

    path = save_checkpoint(system, tmp_path / "pom.ckpt")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run",
         "--scheme", "pageseer", "--resume", str(path)],
        capture_output=True, text=True, timeout=120,
        env=_subprocess_env(), cwd=REPO_ROOT,
    )
    assert completed.returncode == 2
    assert "contradicts" in completed.stderr


# -- fault matrix: SIGKILL mid-run --------------------------------------------


_KILLABLE_SCRIPT = """\
import dataclasses, sys
from pathlib import Path
from repro.check.golden import GOLDEN_SIZING
from repro.common.config import CheckConfig
from repro.experiments.runner import VARIANTS
from repro.sim.system import build_system
from repro.snapshot import Checkpointer
from repro.workloads import workload_by_name

def mutate(config):
    config = VARIANTS["default"](config)
    return dataclasses.replace(config, check=CheckConfig(level="full"))

system = build_system(
    "pageseer", workload_by_name("lbmx4"),
    scale=GOLDEN_SIZING["scale"], seed=GOLDEN_SIZING["seed"],
    config_mutator=mutate,
)
Checkpointer(Path(sys.argv[1]), every_ops=200).arm(system)
system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
"""


def test_sigkill_mid_run_resume_digest_identical(tmp_path):
    """The fault-matrix row: worker SIGKILLed mid-run, resumed from its
    last checkpoint, final digest identical to the uninterrupted run."""
    document = load_golden(GOLDEN_DIR, "pageseer", "lbmx4", "default")
    assert document is not None
    process = subprocess.Popen(
        [sys.executable, "-c", _KILLABLE_SCRIPT, str(tmp_path)],
        env=_subprocess_env(), cwd=REPO_ROOT,
    )
    _wait_for(tmp_path / "latest.ckpt")
    process.kill()  # SIGKILL: no handler, no final checkpoint, no cleanup
    process.wait(timeout=60)
    assert process.returncode == -signal.SIGKILL

    system = load_checkpoint(tmp_path / "latest.ckpt")
    metrics = system.resume_run()
    assert payload_digest(metrics_payload(metrics)) == document["digest"]


# -- sweeps: watchdog and resume ---------------------------------------------


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("scale", GOLDEN_SIZING["scale"])
    kwargs.setdefault("measure_ops", GOLDEN_SIZING["measure_ops"])
    kwargs.setdefault("warmup_ops", GOLDEN_SIZING["warmup_ops"])
    kwargs.setdefault("seed", GOLDEN_SIZING["seed"])
    kwargs.setdefault("worker_check_level", "off")
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    return ExperimentRunner(**kwargs)


def _manifest(root):
    manifest = JobManifest(root)
    assert manifest.load(), "the sweep left no manifest"
    return manifest


def test_watchdog_recovers_stalled_worker(tmp_path):
    """A job wedged mid-run (no heartbeat) is killed by its worker and its
    relaunch resumes from the checkpoint — and the result is unaffected."""
    request = ("pageseer", "lbmx4", "default")
    faults = FaultConfig(
        enabled=True, worker_stall_rate=1.0, worker_stall_seconds=60.0
    )
    runner = _runner(tmp_path, faults=faults)
    root = tmp_path / "sweep"
    start = time.monotonic()
    results, _ = run_sweep(
        runner, [request], root, jobs=2,
        checkpoint_every=300, heartbeat_seconds=0.1, lease_seconds=2.0,
    )
    elapsed = time.monotonic() - start

    job_id = job_id_for(request, runner._sizing(), faults)
    record = _manifest(root).jobs[job_id]
    assert any("hung" in error and "killed" in error for error in record.errors), (
        f"watchdog never fired: {record.errors}"
    )
    payload = load_result(root / JOBS_DIRNAME / job_id)
    assert payload is not None and payload["attempt"] >= 1
    assert payload["resumed_at_ops"] > 0, "retry did not resume"
    assert elapsed < 40.0, "watchdog waited out the stall instead of killing"

    # Stalls affect liveness only: metrics equal a plain unsupervised run.
    reference = _runner(
        tmp_path, cache_dir=tmp_path / "cache_ref"
    ).run(*request)
    assert _metric_dict(results[request]) == _metric_dict(reference)


def test_sweep_resume_skips_completed_requests(tmp_path, monkeypatch):
    requests = [("pageseer", "lbmx4", "default"), ("mempod", "streamx4", "default")]
    root = tmp_path / "sweep"
    first, _ = run_sweep(
        _runner(tmp_path), requests, root, jobs=2, heartbeat_seconds=0.1,
    )
    assert set(first) == set(requests)

    manifest = json.loads((root / MANIFEST_NAME).read_text())
    assert manifest["sweepd_manifest_version"] == 1
    assert sorted(
        "/".join((job["scheme"], job["workload"], job["variant"]))
        for job in manifest["jobs"] if job["state"] == DONE
    ) == sorted("/".join(request) for request in requests)

    # A fresh runner at other sizing, same cache + manifest: the resume
    # recovers the sweep from the manifest and re-runs nothing.
    import repro.sweepd.fleet as fleet

    def no_jobs(*args, **kwargs):
        raise AssertionError("completed requests were re-run")

    monkeypatch.setattr(fleet, "_run_in_process", no_jobs)
    monkeypatch.setattr(fleet, "_run_fleet", no_jobs)
    resumer = _runner(tmp_path, seed=99, measure_ops=1)
    second, _ = run_sweep(resumer, load_sweep(resumer, root), root, jobs=2)
    assert {
        request: _metric_dict(metrics) for request, metrics in second.items()
    } == {
        request: _metric_dict(metrics) for request, metrics in first.items()
    }


def _done_jobs(root: Path) -> int:
    try:
        manifest = json.loads((root / MANIFEST_NAME).read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return 0
    return sum(job["state"] == DONE for job in manifest["jobs"])


def _results_digest(output: str) -> str:
    lines = [line for line in output.splitlines() if line.startswith("results digest: ")]
    assert len(lines) == 1, output
    return lines[0].split(": ", 1)[1]


def test_sweep_resume_after_kill_returns_every_aliased_request(
    tmp_path, monkeypatch, capsys
):
    """A grid whose baselines share a configuration across variants runs
    one job per configuration; SIGKILLed mid-sweep, ``--resume`` still
    returns every request, with the uninterrupted sweep's digest."""
    from repro.cli import main

    sweep = [
        "sweep", "--quiet", "--jobs", "1",
        "--schemes", "pageseer", "pom", "noswap", "--workloads", "lbmx4",
        "--variants", "default", "nocorr",
        "--scale", "1024", "--warmup-ops", "1000", "--measure-ops", "1000",
    ]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "reference_cache"))
    assert main(sweep + ["--checkpoint-root", str(tmp_path / "reference")]) == 0
    reference = capsys.readouterr().out
    assert "sweep complete: 6 result(s) (0 cached, 4 simulation(s) run, " \
        "2 shared a configuration" in reference

    root = tmp_path / "victim"
    env = _subprocess_env()
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *sweep, "--checkpoint-root", str(root)],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    while _done_jobs(root) == 0 and process.poll() is None:
        assert time.monotonic() < deadline, "the sweep finished no job in 60s"
        time.sleep(0.01)
    process.kill()
    process.wait(timeout=60)
    assert process.returncode == -signal.SIGKILL, "the sweep ended before the kill"
    assert 0 < _done_jobs(root) < 4

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["sweep", "--quiet", "--resume", "--checkpoint-root", str(root)]) == 0
    resumed = capsys.readouterr().out
    assert "sweep complete: 6 result(s)" in resumed
    assert _results_digest(resumed) == _results_digest(reference)
    manifest = JobManifest(root)
    assert manifest.load()
    assert len(manifest.jobs) == 4
    assert sorted(map(tuple, (
        request for record in manifest.jobs.values() for request in record.requests
    ))) == sorted(
        (scheme, "lbmx4", variant)
        for scheme in ("pageseer", "pom", "noswap")
        for variant in ("default", "nocorr")
    )


# -- the batched engine under the cut-point protocol ---------------------------


def _golden_lbmx4():
    from repro.sim.system import build_system

    return build_system(
        "pageseer",
        workload_by_name("lbmx4"),
        scale=GOLDEN_SIZING["scale"],
        seed=GOLDEN_SIZING["seed"],
    )


def _scalar_reference_digest():
    """The uninterrupted golden lbmx4 run on the scalar oracle."""
    from repro.bench import stats_digest

    reference = _golden_lbmx4()
    with scalar_engine():
        reference.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
    return stats_digest(reference)


def test_batched_mid_batch_cuts_resume_bit_identical(tmp_path):
    """A checkpoint cut mid-batch must resume bit-identical — against the
    *scalar* oracle's uninterrupted run.

    The cut points (500/2000 scheduler steps) land inside the batched
    engine's free-running drain windows, so this pins the engine's
    checkpoint contract: the poll boundary where the cut is taken is a
    real quiescent point (pending ops re-stashed, per-core state flushed),
    and the resumed half reproduces the scalar reference exactly.
    """
    from repro.bench import stats_digest

    reference_digest = _scalar_reference_digest()

    victim = _golden_lbmx4()
    Checkpointer(tmp_path, cut_points=[WARMUP_CUT, MEASURE_CUT]).arm(victim)
    victim.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
    assert stats_digest(victim) == reference_digest

    for cut in (WARMUP_CUT, MEASURE_CUT):
        path = tmp_path / f"cut_{cut}.ckpt"
        assert path.exists(), f"cut at step {cut} was not written"
        restored = load_checkpoint(path)
        restored.resume_run()
        assert stats_digest(restored) == reference_digest, (
            f"batched resume from step {cut} diverged from scalar reference"
        )


def test_chunked_stream_two_interior_cuts_resume_bit_identical(tmp_path):
    """Two interior cuts of a chunked-stream run resume bit-identical —
    against the scalar oracle's uninterrupted run.

    The stream buffers :class:`~repro.workloads.chunks.OpChunk` batches,
    so both cut points land mid-chunk: the resumed stream must
    fast-forward through whole chunks and re-enter the final one at the
    recorded interior offset (REPRO-CKPT consumption accounting).  The
    test asserts the cut really is mid-chunk for some core, so it cannot
    pass on whole-chunk boundaries alone.
    """
    from repro.bench import stats_digest

    reference_digest = _scalar_reference_digest()

    victim = _golden_lbmx4()
    Checkpointer(tmp_path, cut_points=[WARMUP_CUT, MEASURE_CUT]).arm(victim)
    victim.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
    assert stats_digest(victim) == reference_digest, (
        "chunked-stream run diverged from the scalar reference"
    )

    for cut in (WARMUP_CUT, MEASURE_CUT):
        path = tmp_path / f"cut_{cut}.ckpt"
        assert path.exists(), f"interior cut at step {cut} was not written"
        restored = load_checkpoint(path)
        assert any(core.ops._pos > 0 for core in restored.cores), (
            f"cut {cut} landed on chunk boundaries for every core"
        )
        restored.resume_run()
        assert stats_digest(restored) == reference_digest, (
            f"chunked-stream resume from interior cut {cut} diverged"
        )


def test_numpy_array_state_round_trips_checkpoint(tmp_path):
    """RL103 snapshot safety for numpy-backed state (REPRO-CKPT v1).

    The system graph now carries numpy struct-of-arrays members (each
    process's :class:`repro.vm.mmu.DenseVpnCache`); the checkpoint store
    must round-trip them exactly — same dtype, same values, still
    *usable* (the resumed run keeps translating through the array)."""
    import numpy as np

    from repro.bench import stats_digest
    from repro.sim.system import build_system
    from repro.snapshot import save_checkpoint
    from repro.vm.mmu import DenseVpnCache

    system = build_system(
        "pageseer", workload_by_name("lbmx4"), scale=1024, seed=0
    )
    system.run_ops(300)
    table = system.cores[0].process.page_table
    cache = table._vpn_cache
    assert isinstance(cache, DenseVpnCache), (
        "the OS model should install the numpy-backed VPN cache"
    )
    assert len(cache) > 0, "warm-up must have populated the dense window"

    path = save_checkpoint(system, tmp_path / "numpy.ckpt")
    restored = load_checkpoint(path)
    restored_cache = restored.cores[0].process.page_table._vpn_cache
    assert isinstance(restored_cache, DenseVpnCache)
    assert restored_cache._ppns.dtype == np.int64
    assert np.array_equal(restored_cache._ppns, cache._ppns)
    assert restored_cache._overflow == cache._overflow
    assert restored_cache.base_vpn == cache.base_vpn

    # The restored array is live state, not a display copy: both halves
    # must keep running and agree bit-for-bit.
    system.run_ops(300)
    restored.run_ops(300)
    assert stats_digest(restored) == stats_digest(system)


def test_dense_vpn_cache_round_trips_codec():
    """DenseVpnCache state survives the snapshot codec layer."""
    import numpy as np

    from repro.snapshot import codec
    from repro.vm.mmu import DenseVpnCache

    cache = DenseVpnCache(1000, capacity=64)
    cache[cache.base_vpn + 3] = 17
    cache[cache.base_vpn - 5] = 9  # outside the dense window: overflow
    restored = codec.loads(codec.dumps(cache))
    assert np.array_equal(restored._ppns, cache._ppns)
    assert restored._ppns.dtype == np.int64
    assert restored._overflow == cache._overflow
    assert restored.get(cache.base_vpn + 3) == 17
