"""The sweep executor: a fault-tolerant, checkpointing job service.

Every sweep runs here (:func:`repro.sweepd.fleet.run_sweep`): a work
queue owning a versioned, atomically persisted job manifest, drained
in-process for one job at a time or by N worker processes that lease
jobs over a length-prefixed JSON protocol, run each in a fresh child
that checkpoints through the ``REPRO-CKPT v1`` machinery, forward its
heartbeats, and report results into the same atomic result cache the
serial runner reads.

Module map (docs/SWEEP_SERVICE.md has the full architecture):

* :mod:`repro.sweepd.protocol` — framing, addressing, the retrying
  :class:`~repro.sweepd.protocol.RpcClient`, deterministic message chaos;
* :mod:`repro.sweepd.jobs` — job records and deterministic job ids;
* :mod:`repro.sweepd.manifest` — the server's persisted queue: leases,
  expiry reclaim, retry backoff, poison-job quarantine, priority lanes;
* :mod:`repro.sweepd.aggregator` — exactly-once, digest-checked result
  aggregation into the runner's cache;
* :mod:`repro.sweepd.server` — the queue's message handlers
  (:class:`~repro.sweepd.server.JobService`) and the selectors event
  loop that serves them;
* :mod:`repro.sweepd.worker` — the lease/fork/watch/report worker loop;
* :mod:`repro.sweepd.fleet` — :func:`~repro.sweepd.fleet.run_sweep` and
  the local fleet driver behind it (process supervision + scripted
  chaos).
"""

from repro.sweepd.aggregator import ResultAggregator
from repro.sweepd.fleet import FleetReport, run_sweep
from repro.sweepd.jobs import JobRecord, build_job, job_id_for
from repro.sweepd.manifest import JobManifest
from repro.sweepd.protocol import RpcClient
from repro.sweepd.server import JobService, SweepdServer
from repro.sweepd.worker import SweepdWorker

__all__ = [
    "FleetReport",
    "JobManifest",
    "JobService",
    "JobRecord",
    "ResultAggregator",
    "RpcClient",
    "SweepdServer",
    "SweepdWorker",
    "build_job",
    "job_id_for",
    "run_sweep",
]
