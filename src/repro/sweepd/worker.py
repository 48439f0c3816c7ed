"""The sweep service's worker: lease, fork, watch, report.

A worker is a plain blocking loop around one :class:`repro.sweepd
.protocol.RpcClient` that runs every leased job in a child process
forked for that job alone.  The child runs :func:`run_leased_job` and
pipes the report back; the parent never builds a simulation, so each
job's memory dies with its child.  The parent renews the lease while the
child's heartbeat file is younger than the lease; an older heartbeat
means the job hung, so the parent SIGKILLs the child and reports a
retryable failure, and the relaunch resumes from ``latest.ckpt``.  The
lease itself expires only when the parent goes silent too — a dead
worker.  One duration, the lease, bounds both silences.

Everything else that makes it fault-tolerant lives in what it *doesn't*
assume:

* It never assumes its lease reply arrived exactly once — leases
  re-grant idempotently, so a retried ``lease`` RPC gets the same job.
* It never assumes it is the first to run a job: before simulating it
  salvages ``result.json`` (a predecessor finished but died before
  reporting) and otherwise resumes from ``latest.ckpt`` (a predecessor
  was SIGKILLed mid-run) — both inherited through the shared job
  directory keyed by the deterministic job id.
* It never assumes the server is up: heartbeats are fire-and-forget, and
  RPCs retry with the same ``seq`` across reconnects, riding out a
  server restart without losing its place.

Simulated infrastructure faults (``FaultConfig.worker_crash_rate``) are
reported as *retryable* failures — the service requeues with backoff and
eventually quarantines poison jobs; genuine simulator exceptions are
reported non-retryable and quarantine immediately.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time
from pathlib import Path
from typing import Optional, Union, cast

from repro import persist
from repro.common.errors import FaultError, PersistError, SweepdError
from repro.experiments.jobcore import (
    RESULT_NAME,
    Request,
    execute_job,
    faults_from_wire,
    load_result,
)
from repro.snapshot.hooks import HEARTBEAT_NAME
from repro.sweepd.jobs import sizing_from_wire
from repro.sweepd.protocol import Message, RpcClient

#: ``prctl`` option: signal delivered to this process when its parent dies.
_PR_SET_PDEATHSIG = 1

#: Seconds before an RPC to the server is resent, and how long resends
#: ride out an unreachable server (a restart) before the worker gives up.
_RPC_TIMEOUT = 0.5
_RETRY_WINDOW = 60.0

#: Longest sleep between lease polls while no job is leasable.
_IDLE_SLEEP_CAP = 0.5


def run_leased_job(
    lease: Message,
    worker: str,
    jobs_root: Union[str, Path],
    *,
    checkpoint_every: int,
    heartbeat_seconds: float,
    sanitize: bool,
) -> Message:
    """Run one leased job in this process; return its report message.

    The report is a ``result`` message (salvaged from ``result.json``
    or freshly simulated) or a ``fail`` message, retryable for injected
    infrastructure faults and not for genuine simulator errors.
    ``sanitize=False`` runs the job unchecked whatever its sizing's
    check level; the sanitizer is metrics-neutral, so the result is the
    same.
    """
    job_id = str(lease["job_id"])
    directory = Path(jobs_root) / job_id
    payload = load_result(directory)
    if payload is None:
        sizing = sizing_from_wire(cast(dict, lease["sizing"]))
        if not sanitize:
            sizing = sizing[:4] + ("off",)
        try:
            payload = execute_job(
                cast(Request, tuple(cast(list, lease["request"]))),
                sizing,
                faults_from_wire(cast(Optional[dict], lease.get("faults"))),
                int(cast(int, lease.get("attempt", 0))),
                directory,
                checkpoint_every=checkpoint_every,
                heartbeat_seconds=heartbeat_seconds,
            )
        except Exception as exc:
            return {
                "type": "fail", "worker": worker, "job_id": job_id,
                "error": f"{type(exc).__name__}: {exc}",
                "retryable": isinstance(exc, FaultError),
            }
        # Land the result on disk before reporting it: if the report (or
        # the reporting process) dies, the next lease holder salvages the
        # file instead of re-simulating.  Best-effort: the payload is in
        # hand, so a refused write only loses the salvage copy — the
        # report is what actually delivers the result.
        try:
            persist.write_json(directory / RESULT_NAME, payload, site="result")
        except PersistError:
            pass
    return {"type": "result", "worker": worker, "job_id": job_id, "payload": payload}


def _job_main(writer, lease: Message, worker: str, jobs_root: str,
              checkpoint_every: int, heartbeat_seconds: float) -> None:
    """Entry point of the one child process a worker forks per job."""
    # A worker SIGKILLed mid-job must not leave its job running as an
    # orphan beside the job's next lease holder: have the kernel kill
    # this child with its parent (Linux; elsewhere a no-op).
    try:
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    parent = multiprocessing.parent_process()
    if parent is not None and os.getppid() != parent.pid:
        os._exit(1)  # the parent died before the prctl took effect
    writer.send(run_leased_job(
        lease, worker, jobs_root,
        checkpoint_every=checkpoint_every, heartbeat_seconds=heartbeat_seconds,
        sanitize=True,
    ))


class SweepdWorker:
    """One worker process's lease/fork/watch/report loop."""

    def __init__(
        self,
        name: str,
        address: str,
        jobs_root: Union[str, Path],
        *,
        checkpoint_every: int,
        heartbeat_seconds: float,
    ) -> None:
        self.name = name
        self.jobs_root = Path(jobs_root)
        self.checkpoint_every = checkpoint_every
        self.heartbeat_seconds = heartbeat_seconds
        self.client = RpcClient(
            address, timeout=_RPC_TIMEOUT, retry_window=_RETRY_WINDOW
        )
        self.completed = 0
        self._context = multiprocessing.get_context()

    # -- loop --------------------------------------------------------------
    def run(self) -> int:
        """Work until the server drains; returns jobs completed."""
        with self.client:
            self.client.call({"type": "hello", "worker": self.name})
            while True:
                reply = self.client.call({"type": "lease", "worker": self.name})
                kind = reply.get("kind")
                if kind == "drain":
                    return self.completed
                if kind != "job":
                    retry_after = float(cast(float, reply.get("retry_after", 0.0)))
                    time.sleep(min(max(retry_after, 0.01), _IDLE_SLEEP_CAP))
                    continue
                self._work_one(reply)

    def _work_one(self, lease: Message) -> None:
        reader, writer = self._context.Pipe(duplex=False)
        child = self._context.Process(
            target=_job_main,
            args=(writer, lease, self.name, str(self.jobs_root),
                  self.checkpoint_every, self.heartbeat_seconds),
            daemon=True,
        )
        child.start()
        writer.close()
        try:
            report = self._watch(child, reader, lease)
        finally:
            reader.close()
        reply = self.client.call(report)
        if report["type"] != "result":
            return
        if reply.get("type") == "error":
            raise SweepdError(
                f"server rejected result for {lease['job_id']}: {reply.get('error')}"
            )
        self.completed += 1

    def _watch(self, child, reader, lease: Message) -> Message:
        """Wait for *child*'s report, heartbeating for it meanwhile.

        Each fresh job heartbeat is forwarded, and the lease is renewed
        at least every half lease while the job's heartbeat is younger
        than the lease; past that the job is declared hung.  The
        renewals stop only with the kill, so this failure report, not a
        lease expiry, always records the hang.
        """
        job_id = str(lease["job_id"])
        timeout = float(cast(float, lease["lease_seconds"]))
        beat = self.jobs_root / job_id / HEARTBEAT_NAME
        # A heartbeat file left by an earlier attempt is no sign of life
        # from this one.
        started = last_beat = last_sent = time.time()
        while not reader.poll(self.heartbeat_seconds):
            try:
                beat_time = beat.stat().st_mtime
                steps = int(beat.read_text() or 0)
            except (OSError, ValueError):
                beat_time, steps = started, 0
            now = time.time()
            if now - max(beat_time, started) > timeout:
                child.kill()
                child.join()
                return self._failure(
                    lease, f"job hung (no heartbeat for {timeout:.1f}s) and was killed"
                )
            if beat_time > last_beat or now - last_sent >= timeout / 2:
                last_beat, last_sent = max(beat_time, last_beat), now
                self.client.send_oneway({
                    "type": "heartbeat", "worker": self.name,
                    "job_id": job_id, "steps": steps,
                })
        try:
            report = reader.recv()
        except EOFError:
            report = None
        child.join()
        if report is None:
            return self._failure(
                lease, f"job process exited with code {child.exitcode} and no result"
            )
        return report

    def _failure(self, lease: Message, error: str) -> Message:
        return {
            "type": "fail", "worker": self.name, "job_id": lease["job_id"],
            "error": f"{error} (attempt {int(cast(int, lease['attempt'])) + 1})",
            "retryable": True,
        }


def worker_main(
    name: str,
    address: str,
    jobs_root: str,
    checkpoint_every: int,
    heartbeat_seconds: float,
) -> int:
    """Process entry point for fleet-spawned workers."""
    return SweepdWorker(
        name, address, jobs_root,
        checkpoint_every=checkpoint_every,
        heartbeat_seconds=heartbeat_seconds,
    ).run()
