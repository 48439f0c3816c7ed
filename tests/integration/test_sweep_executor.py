"""The sweep executor's cost model (docs/SWEEP_SERVICE.md).

Two properties the sweep's end-to-end cost rests on:

* a sweep whose every request is cached answers in-process and launches
  nothing — no job service, server, worker or child process — so a warm
  sweep costs cache reads (and, on a new root, one manifest write) only;
* a fleet worker runs each job in a fresh child process, and the worker
  itself never builds a simulation, so a sweep's peak memory is one
  job's, however many jobs a worker serves.
"""

import multiprocessing.process
import os

from repro.check.golden import GOLDEN_SIZING
from repro.cli import main
from repro.experiments.runner import ExperimentRunner
from repro.sweepd.fleet import _run_fleet
from repro.sweepd.manifest import MANIFEST_NAME

REQUESTS = [
    ("pageseer", "lbmx4", "default"),
    ("pom", "lbmx4", "default"),
    ("noswap", "lbmx4", "default"),
]


def _runner(cache_dir):
    return ExperimentRunner(
        scale=GOLDEN_SIZING["scale"],
        measure_ops=GOLDEN_SIZING["measure_ops"],
        warmup_ops=GOLDEN_SIZING["warmup_ops"],
        seed=GOLDEN_SIZING["seed"],
        worker_check_level="off",
        cache_dir=cache_dir,
    )


def test_fully_cached_sweep_launches_nothing(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    cold = _runner(cache).run_many(REQUESTS, jobs=1)

    import repro.sweepd.server as server_module

    def forbidden(*args, **kwargs):
        raise AssertionError("a fully cached sweep launched work")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", forbidden)
    monkeypatch.setattr(server_module.JobService, "__init__", forbidden)

    assert _runner(cache).run_many(REQUESTS, jobs=2) == cold

    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    root = tmp_path / "root"
    code = main([
        "sweep", "--quiet", "--jobs", "2",
        "--schemes", "pageseer", "pom", "noswap", "--workloads", "lbmx4",
        "--scale", str(GOLDEN_SIZING["scale"]),
        "--measure-ops", str(GOLDEN_SIZING["measure_ops"]),
        "--warmup-ops", str(GOLDEN_SIZING["warmup_ops"]),
        "--seed", str(GOLDEN_SIZING["seed"]),
        "--checkpoint-root", str(root),
    ])
    assert code == 0
    assert "sweep complete: 3 result(s) (3 cached" in capsys.readouterr().out
    # It only records the sweep, so --resume still finds it.
    assert [path.name for path in root.iterdir()] == [MANIFEST_NAME]
    assert main(["sweep", "--quiet", "--resume", "--checkpoint-root", str(root)]) == 0
    assert "sweep complete: 3 result(s) (3 cached" in capsys.readouterr().out


def test_worker_forks_a_fresh_process_per_job(tmp_path, monkeypatch):
    import repro.sim.system as system_module

    builds = tmp_path / "builds.log"
    build_system = system_module.build_system

    def logged_build_system(*args, **kwargs):
        with open(builds, "a") as log:
            log.write(f"{os.getpid()} {os.getppid()}\n")
        return build_system(*args, **kwargs)

    # Fleet processes are forked from this one and inherit the patch.
    monkeypatch.setattr(system_module, "build_system", logged_build_system)
    results, _ = _run_fleet(
        _runner(tmp_path / "cache"), list(REQUESTS), tmp_path / "svc",
        workers=1, chaos=None, fleet_chaos=None, lease_seconds=5.0,
        checkpoint_every=300, heartbeat_seconds=0.1, timeout=120.0,
    )
    assert set(results) == set(REQUESTS)

    pairs = [line.split() for line in builds.read_text().splitlines()]
    builders = {pid for pid, _ in pairs}
    parents = {parent for _, parent in pairs}
    assert len(pairs) == len(REQUESTS)
    assert len(builders) == len(REQUESTS), "jobs shared a process"
    assert len(parents) == 1, "one worker served every job"
    assert parents.isdisjoint(builders), "the worker built a System itself"
    assert str(os.getpid()) not in builders | parents
