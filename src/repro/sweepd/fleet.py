"""The sweep executor: :func:`run_sweep`, and the local fleet behind it.

Every sweep lands in :func:`run_sweep` — ``ExperimentRunner.run_many``
and ``prewarm``, and ``repro sweep`` at any ``--jobs``.  It answers
cached requests in-process first and launches nothing when that covers
them all.  Otherwise the requests become jobs on one
:class:`repro.sweepd.manifest.JobManifest`: one job runs them in this
process against an in-process :class:`repro.sweepd.server.JobService`
(no server, socket or fork); N jobs start the local fleet of
:func:`_run_fleet`.

The fleet driver owns the operating-system half of the fault-tolerance
story: it launches the server and worker *processes*, watches them,
relaunches whatever dies, and executes the scripted
:class:`repro.faults.chaos.FleetChaos` schedule (SIGKILL a worker
provably mid-job, SIGKILL + relaunch the server mid-sweep) that the
chaos test matrix drives.  The protocol half (leases, retries, dedupe)
is the service's job; the driver deliberately knows nothing about it
beyond the ``submit`` / ``status`` / ``shutdown`` RPCs.  Results are
collected from the shared result cache, so every path returns the same
keys, the same payloads and bit-identical metrics.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union, cast

from repro import persist
from repro.common.errors import (
    CheckpointError,
    ManifestVersionError,
    SweepdError,
    SweepError,
)
from repro.experiments.jobcore import Request, faults_from_wire
from repro.faults.chaos import ChaosConfig, FleetChaos
from repro.sweepd.aggregator import ResultAggregator
from repro.sweepd.jobs import DONE, QUARANTINED, build_job, job_id_for
from repro.sweepd.manifest import MANIFEST_HINT, JobManifest
from repro.sweepd.protocol import ADDRESS_FILE, RpcClient, read_address_file
from repro.sweepd.server import JobService
from repro.sweepd.worker import run_leased_job, worker_main

#: Directory (under the service root) holding per-job checkpoint dirs.
JOBS_DIRNAME = "jobs"

#: Worker name of the in-process one-job sweep.
LOCAL_WORKER = "local"

#: Seconds before a local-socket RPC is resent (same seq: idempotent).
#: Short, so one lost frame costs the sweep a blink, not a job's worth.
_RPC_TIMEOUT = 0.25

#: Seconds between the fleet driver's status polls (and the server's
#: lease-expiry sweeps).
_POLL_SECONDS = 0.05


@dataclasses.dataclass
class FleetReport:
    """What happened while the sweep ran (observability, test assertions)."""

    #: Requests in the sweep, and how many the cache already answered.
    jobs_total: int = 0
    jobs_already_done: int = 0
    #: Distinct configurations the sweep simulated (one job each), and
    #: requests that shared a configuration with an earlier request.
    simulations: int = 0
    shared: int = 0
    worker_relaunches: int = 0
    chaos_worker_kills: int = 0
    chaos_server_restarts: int = 0
    reclaims: int = 0
    quarantined: List[Tuple[str, ...]] = dataclasses.field(default_factory=list)


def _server_main(
    root: str,
    cache_dir: str,
    address: Optional[str],
    max_attempts: int,
    lease_seconds: float,
    chaos: Optional[ChaosConfig],
) -> None:
    from repro.sweepd.server import SweepdServer

    server = SweepdServer(
        root, cache_dir,
        address=address,
        max_attempts=max_attempts,
        lease_seconds=lease_seconds,
        chaos=chaos,
    )
    server.serve_forever(poll_seconds=_POLL_SECONDS)


class _Fleet:
    """Process bookkeeping for one distributed sweep."""

    def __init__(
        self,
        root: Path,
        cache_dir: Path,
        *,
        max_attempts: int,
        lease_seconds: float,
        checkpoint_every: int,
        heartbeat_seconds: float,
        chaos: Optional[ChaosConfig],
    ) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.max_attempts = max_attempts
        self.lease_seconds = lease_seconds
        self.checkpoint_every = checkpoint_every
        self.heartbeat_seconds = heartbeat_seconds
        self.chaos = chaos
        self.context = multiprocessing.get_context()
        self.server: Optional[multiprocessing.process.BaseProcess] = None
        self.address: Optional[str] = None
        #: slot -> (current process, current worker name, relaunch count)
        self.slots: Dict[int, Tuple[multiprocessing.process.BaseProcess, str, int]] = {}
        self.report = FleetReport()

    # -- processes ---------------------------------------------------------
    def start_server(self, address: Optional[str] = None) -> None:
        # An address file left by an earlier sweep on this root must not
        # be mistaken for the new server's.
        (self.root / ADDRESS_FILE).unlink(missing_ok=True)
        proc = self.context.Process(
            target=_server_main,
            args=(
                str(self.root), str(self.cache_dir), address,
                self.max_attempts, self.lease_seconds, self.chaos,
            ),
            daemon=True,
        )
        proc.start()
        self.server = proc
        self.address = self._await_address(proc)

    def _await_address(
        self, proc: "multiprocessing.process.BaseProcess", timeout: float = 10.0
    ) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                return read_address_file(self.root)
            except SweepdError:
                if proc.exitcode is not None:
                    raise SweepdError(
                        f"sweepd server died during startup "
                        f"(exit code {proc.exitcode})"
                    )
                time.sleep(0.02)
        raise SweepdError(f"sweepd server never published an address in {self.root}")

    def start_worker(self, slot: int, generation: int = 0) -> None:
        name = f"w{slot}" if generation == 0 else f"w{slot}r{generation}"
        proc = self.context.Process(
            target=worker_main,
            args=(
                name, self.address, str(self.root / JOBS_DIRNAME),
                self.checkpoint_every, self.heartbeat_seconds,
            ),
            # Not daemonic: a worker forks one child process per job.
            daemon=False,
        )
        proc.start()
        self.slots[slot] = (proc, name, generation)

    def kill_worker(self, slot: int) -> None:
        proc, _, _ = self.slots[slot]
        proc.kill()
        proc.join()

    def kill_server(self) -> None:
        assert self.server is not None
        self.server.kill()
        self.server.join()

    def shutdown(self) -> None:
        for proc, _, _ in self.slots.values():
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        if self.server is not None and self.server.is_alive():
            try:
                with RpcClient(self.address, timeout=1.0, retry_window=2.0) as rpc:
                    rpc.call({"type": "shutdown"})
            except SweepdError:
                pass
            self.server.join(timeout=5.0)
            if self.server.is_alive():
                self.server.terminate()
                self.server.join(timeout=5.0)


def _run_fleet(
    runner,
    requests: List[Request],
    root: Path,
    *,
    workers: int,
    chaos: Optional[ChaosConfig],
    fleet_chaos: Optional[FleetChaos],
    lease_seconds: float,
    checkpoint_every: int,
    heartbeat_seconds: float,
    timeout: Optional[float],
) -> Tuple[Dict[Request, object], FleetReport]:
    """Run *requests* on a local server + worker fleet; collect from cache.

    The fleet half of :func:`run_sweep`, which holds every default and
    answers fully cached sweeps without calling this.  Each worker forks
    one child per leased job.  Returns ``(results, report)`` where
    results maps each request to its :class:`repro.sim.metrics
    .RunMetrics`.  Raises :class:`repro.common.errors.SweepError` naming
    every quarantined request once the sweep drains; completed results
    are cached even when some jobs are poison.  *timeout* bounds the
    whole sweep (None: no bound; a paper-sized sweep takes hours).
    """
    requests = list(dict.fromkeys(requests))
    fleet = _Fleet(
        root, runner.cache_dir,
        max_attempts=runner.max_attempts,
        lease_seconds=lease_seconds,
        checkpoint_every=checkpoint_every,
        heartbeat_seconds=heartbeat_seconds,
        chaos=chaos,
    )
    script = fleet_chaos or FleetChaos()
    pending_kills = dict(script.kill_worker_mid_job)
    server_restart_at = script.restart_server_after_results

    fleet.start_server()
    try:
        with RpcClient(fleet.address, timeout=_RPC_TIMEOUT, retry_window=30.0) as rpc:
            reply = rpc.call(submission(runner, requests))
            if reply.get("type") == "error":
                raise SweepdError(f"submit rejected: {reply.get('error')}")
            fleet.report.jobs_total = len(requests)
            fleet.report.jobs_already_done = len(cast(list, reply.get("already_done", [])))

        for slot in range(workers):
            fleet.start_worker(slot)

        deadline = None if timeout is None else time.monotonic() + timeout
        with RpcClient(fleet.address, timeout=_RPC_TIMEOUT, retry_window=30.0) as rpc:
            while True:
                if deadline is not None and time.monotonic() > deadline:
                    raise SweepdError(
                        f"distributed sweep did not drain within {timeout:.0f}s"
                    )
                status = rpc.call({"type": "status"})
                fleet.report.reclaims = int(status.get("reclaims", 0))
                jobs = status.get("jobs", [])

                # Scripted chaos: SIGKILL a worker the moment it is
                # observed heartbeating past its step threshold —
                # provably mid-job, with a checkpoint likely behind it.
                for slot, threshold in list(pending_kills.items()):
                    proc, name, generation = fleet.slots.get(
                        slot, (None, None, 0)
                    )
                    if proc is None:
                        continue
                    busy = any(
                        job.get("worker") == name
                        and int(job.get("steps", 0)) >= threshold
                        for job in jobs
                    )
                    if busy and proc.is_alive():
                        fleet.kill_worker(slot)
                        fleet.report.chaos_worker_kills += 1
                        del pending_kills[slot]

                # Scripted chaos: SIGKILL + relaunch the server itself.
                done = int(status.get("counts", {}).get("done", 0))
                if server_restart_at is not None and done >= server_restart_at:
                    fleet.kill_server()
                    fleet.start_server(address=fleet.address)
                    fleet.report.chaos_server_restarts += 1
                    server_restart_at = None

                # Graceful degradation: relaunch any dead worker (killed
                # by chaos or by the OS); the sweep redistributes.
                if not status.get("drained"):
                    for slot, (proc, _, generation) in list(fleet.slots.items()):
                        if proc.exitcode is not None:
                            fleet.start_worker(slot, generation + 1)
                            fleet.report.worker_relaunches += 1

                if status.get("drained"):
                    break
                time.sleep(_POLL_SECONDS)
    finally:
        fleet.shutdown()
    return _collect(runner, requests, status["jobs"], fleet.report), fleet.report


def submission(runner, requests: List[Request], priority: str = "bulk") -> Dict[str, object]:
    """The ``submit`` message that puts *requests* on a manifest."""
    return {
        "type": "submit",
        "priority": priority,
        "jobs": [
            build_job(request, runner._sizing(), runner.faults).to_json()
            for request in requests
        ],
    }


def _collect(runner, requests: List[Request], jobs, report: FleetReport):
    """Map *requests* to cached metrics; SweepError for quarantined jobs.

    *jobs* are the status-reply descriptions of a drained manifest, which
    may also hold other sweeps' jobs: only this sweep's job ids count.
    """
    by_id = {job.get("job_id"): job for job in jobs}
    results: Dict[Request, object] = {}
    failures = []
    attempts: Dict[Request, int] = {}
    for request in requests:
        job = by_id.get(job_id_for(request, runner._sizing(), runner.faults))
        if job is not None and job.get("state") == QUARANTINED:
            attempts[request] = int(job.get("attempts", 0))
            errors = job.get("errors") or ["quarantined"]
            failures.append((request, SweepdError(str(errors[-1]))))
            report.quarantined.append(request)
            continue
        metrics = runner._load(runner._key(*request))
        if metrics is None:
            raise SweepdError(
                f"sweep drained but no cached result for {'/'.join(request)} "
                f"(manifest/cache disagree — service bug)"
            )
        results[request] = metrics
    if failures:
        raise SweepError(failures, attempts=attempts)
    return results


def _run_in_process(
    runner, requests: List[Request], root: Path, *,
    lease_seconds: float, checkpoint_every: int, sanitize: bool,
) -> List[dict]:
    """Drain *requests* through an in-process JobService, one at a time.

    The same messages a fleet worker sends, handed straight to the
    service: no server, socket or fork — and no heartbeat, since nothing
    here watches one.  Returns the drained jobs' status descriptions.
    """
    service = JobService(
        root, runner.cache_dir,
        max_attempts=runner.max_attempts, lease_seconds=lease_seconds,
    )
    service.handle(submission(runner, requests))
    while True:
        lease = service.handle({"type": "lease", "worker": LOCAL_WORKER})
        service.sync()
        assert lease is not None
        if lease["kind"] == "drain":
            break
        if lease["kind"] != "job":
            time.sleep(cast(float, lease["retry_after"]))
            continue
        if runner.verbose:
            print(f"[sweep] simulating {'/'.join(cast(list, lease['request']))} "
                  f"(attempt {cast(int, lease['attempt']) + 1})")
        service.handle(run_leased_job(
            lease, LOCAL_WORKER, root / JOBS_DIRNAME,
            checkpoint_every=checkpoint_every, heartbeat_seconds=0.0,
            sanitize=sanitize,
        ))
        service.sync()
    status = service.handle({"type": "status"})
    assert status is not None
    return cast(List[dict], status["jobs"])


def _open_manifest(root: Path, max_attempts: int) -> JobManifest:
    """Load *root*'s manifest, quarantining one torn past its backup.

    Only :func:`run_sweep` may start over from an empty manifest: it
    submits every request straight after, and the result cache, not the
    manifest, is the authority on finished work.  The unreadable files
    move to ``quarantine/`` as ``repro fsck --repair`` would move them,
    never deleted; a file that cannot be moved leaves the error standing.
    A version-skewed manifest always raises.
    """
    manifest = JobManifest(root, max_attempts=max_attempts)
    try:
        manifest.load()
    except SweepdError as exc:
        from repro.fsck import quarantine

        for path in (manifest.path, persist.backup_path(manifest.path)):
            if path.exists() and quarantine(path) is None:
                raise
        warnings.warn(
            f"{exc}; moved it to {root / 'quarantine'} and started the "
            f"sweep from an empty manifest",
            RuntimeWarning, stacklevel=3,
        )
        manifest = JobManifest(root, max_attempts=max_attempts)
    return manifest


def _served(manifest: JobManifest) -> int:
    """How many requests *manifest*'s jobs serve."""
    return sum(len(record.requests) for record in manifest.jobs.values())


def _record_cached(runner, manifest: JobManifest, requests: List[Request]) -> None:
    """Record a sweep answered from the cache, so ``--resume`` finds it.

    Jobs whose result the cache holds are done on arrival, as the
    service admits them; the manifest is written only when it changed.
    """
    aggregator = ResultAggregator(manifest.root, runner.cache_dir)
    records = [
        build_job(request, runner._sizing(), runner.faults) for request in requests
    ]
    served = _served(manifest)
    manifest.submit(records)
    changed = _served(manifest) != served
    for record in records:
        job = manifest.jobs[record.job_id]
        if job.state != DONE:
            digest = aggregator.cached_digest(job.cache_key)
            if digest is not None:
                manifest.mark_done(job.job_id, digest)
            changed = True
    if changed:
        manifest.root.mkdir(parents=True, exist_ok=True)
        manifest.persist()


def run_sweep(
    runner,
    requests: List[Request],
    root: Union[str, Path, None],
    *,
    jobs: Optional[int] = None,
    lease_seconds: float = 15.0,
    checkpoint_every: int = 20_000,
    heartbeat_seconds: float = 0.5,
    sanitize: bool = True,
    chaos: Optional[ChaosConfig] = None,
    fleet_chaos: Optional[FleetChaos] = None,
) -> Tuple[Dict[Request, object], FleetReport]:
    """Run *requests* (deduplicated) through the one sweep executor.

    Cached requests are answered in-process, and a sweep they cover
    entirely launches nothing: it is only recorded in *root*'s manifest,
    so ``--resume`` finds it.  Otherwise every request becomes a job on
    that manifest — cached ones are done on admission — and ``jobs=1``
    drains it in this process, while ``jobs>1`` (default: the CPU count)
    starts the local fleet with that many workers.  Message or fleet
    chaos always takes the fleet.  ``root=None`` runs in a scratch root
    removed on return.  ``sanitize=False`` runs the in-process drain
    unchecked; fleet jobs always check at the runner's
    ``worker_check_level``.  Returns ``(results, report)``; raises
    :class:`repro.common.errors.SweepError` naming every request that
    exhausted its attempts, after every other result is cached.
    """
    requests = list(dict.fromkeys(requests))
    keys = {request: runner._key(*request) for request in requests}
    cached = {request: runner._load(keys[request]) for request in requests}
    report = FleetReport(
        jobs_total=len(requests),
        jobs_already_done=sum(metrics is not None for metrics in cached.values()),
        simulations=len({
            keys[request] for request, metrics in cached.items() if metrics is None
        }),
        shared=len(requests) - len(set(keys.values())),
    )
    if root is None:
        if report.simulations == 0:
            return cached, report
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
            return run_sweep(
                runner, requests, scratch,
                jobs=jobs, lease_seconds=lease_seconds,
                checkpoint_every=checkpoint_every,
                heartbeat_seconds=heartbeat_seconds, sanitize=sanitize,
                chaos=chaos, fleet_chaos=fleet_chaos,
            )
    root = Path(root)
    manifest = _open_manifest(root, runner.max_attempts)
    if report.simulations == 0:
        _record_cached(runner, manifest, requests)
        return cached, report
    jobs = jobs or os.cpu_count() or 1
    if jobs == 1 and chaos is None and fleet_chaos is None:
        described = _run_in_process(
            runner, requests, root,
            lease_seconds=lease_seconds,
            checkpoint_every=checkpoint_every,
            sanitize=sanitize,
        )
        return _collect(runner, requests, described, report), report
    results, fleet_report = _run_fleet(
        runner, requests, root,
        workers=jobs,
        chaos=chaos,
        fleet_chaos=fleet_chaos,
        lease_seconds=lease_seconds,
        checkpoint_every=checkpoint_every,
        heartbeat_seconds=heartbeat_seconds,
        timeout=None,
    )
    return results, dataclasses.replace(
        fleet_report,
        jobs_already_done=report.jobs_already_done,
        simulations=report.simulations,
        shared=report.shared,
    )


def load_sweep(runner, root) -> List[Request]:
    """Point *runner* at the sweep recorded in *root*; return its requests.

    The manifest's most recently submitted job fixes the sizing and fault
    configuration; the requests are every request a job submitted with
    them serves.
    """
    manifest = JobManifest(root)
    if not manifest.load():
        raise CheckpointError(
            f"no sweep manifest at {manifest.path}: nothing to resume "
            f"(start a sweep with a --checkpoint-root first)"
        )
    records = sorted(manifest.jobs.values(), key=lambda record: record.submit_seq)
    if not records:
        return []
    last = records[-1]
    (runner.scale, runner.measure_ops, runner.warmup_ops, runner.seed,
     runner.worker_check_level) = last.sizing_tuple()
    try:
        runner.faults = faults_from_wire(last.faults)
    except TypeError as exc:
        raise ManifestVersionError(
            f"{manifest.path}: fault configuration does not match this "
            f"build's schema ({exc})",
            hint=MANIFEST_HINT,
        )
    return [
        cast(Request, tuple(request))
        for record in records
        if record.sizing == last.sizing and record.faults == last.faults
        for request in record.requests
    ]
