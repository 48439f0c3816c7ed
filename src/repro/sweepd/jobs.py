"""Job records: the unit of work the sweep service schedules.

A job is one simulation at a fixed sizing and fault configuration —
exactly one result-cache entry.  Job identity is *deterministic*: the id
is a digest of the cache key, which digests the configuration the job
simulates.  Resubmitting the same sweep (same command, a retried
``submit`` RPC, a client that never saw its ack) converges on the same
job set instead of duplicating work, a restarted server re-derives the
same ids from its manifest, and every (scheme, workload, variant)
request that simulates the same configuration — a baseline under each
PageSeer ablation, say — is served by one job, which records them all.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional

from repro.common.config import FaultConfig
from repro.experiments.jobcore import Request, Sizing, cache_key

#: Lifecycle states.  ``leased`` is transient (never survives a server
#: restart: a reloaded manifest demotes it to ``pending``).
PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"

JOB_STATES = (PENDING, LEASED, DONE, QUARANTINED)

#: Priority lanes: lower value wins the lease.  Interactive requests
#: preempt bulk sweeps at every scheduling decision.
PRIORITIES = {"interactive": 0, "bulk": 1}
PRIORITY_BULK = PRIORITIES["bulk"]


def sizing_from_wire(sizing: dict) -> Sizing:
    """The sizing tuple of a job's (or lease's) sizing dict."""
    return (
        int(sizing["scale"]), int(sizing["measure_ops"]),
        int(sizing["warmup_ops"]), int(sizing["seed"]),
        str(sizing["check_level"]),
    )


def job_id_for(request: Request, sizing: Sizing, faults: Optional[FaultConfig]) -> str:
    """Deterministic job id: a digest of the result-cache key."""
    return hashlib.sha256(cache_key(request, sizing, faults).encode()).hexdigest()[:16]


@dataclasses.dataclass
class JobRecord:
    """One schedulable simulation and its scheduling state."""

    job_id: str
    #: The request the job simulates (the first one submitted).
    scheme: str
    workload: str
    variant: str
    #: Sizing dict: scale, measure_ops, warmup_ops, seed, check_level.
    sizing: Dict[str, object]
    #: Serialized FaultConfig (or None) — workers rebuild it.
    faults: Optional[Dict[str, object]]
    cache_key: str
    priority: int = PRIORITY_BULK
    state: str = PENDING
    #: Number of leases ever granted (attempt counter for quarantine).
    attempts: int = 0
    #: FIFO tie-break within a priority lane.
    submit_seq: int = 0
    #: Error strings from failed attempts, oldest first.
    errors: List[str] = dataclasses.field(default_factory=list)
    #: sha256 digest of the aggregated metric payload, once done.
    result_digest: Optional[str] = None
    #: Times a lease expired and the job was reclaimed from a dead or
    #: hung worker (observability; also counts toward ``attempts``).
    reclaims: int = 0
    #: Every request the job serves, ``[scheme, workload, variant]``
    #: lists in submission order; the simulated request comes first.
    requests: List[List[str]] = dataclasses.field(default_factory=list)

    # -- live lease state: in-memory only, never persisted ----------------
    lease_worker: Optional[str] = dataclasses.field(default=None, compare=False)
    lease_deadline: float = dataclasses.field(default=0.0, compare=False)
    #: Earliest monotonic time the job may be leased again (retry backoff).
    not_before: float = dataclasses.field(default=0.0, compare=False)
    #: Last heartbeat's simulated-step count (ETA/observability).
    last_steps: int = dataclasses.field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not self.requests:
            self.requests = [list(self.request)]

    @property
    def request(self) -> Request:
        return (self.scheme, self.workload, self.variant)

    def sizing_tuple(self) -> Sizing:
        return sizing_from_wire(self.sizing)

    # -- persistence -------------------------------------------------------
    _PERSISTED = (
        "job_id", "scheme", "workload", "variant", "sizing", "faults",
        "cache_key", "priority", "state", "attempts", "submit_seq",
        "errors", "result_digest", "reclaims", "requests",
    )

    def to_json(self) -> Dict[str, object]:
        payload = {name: getattr(self, name) for name in self._PERSISTED}
        if self.state == LEASED:
            # Leases are process-local promises; a manifest reader (a
            # restarted server) must treat the job as claimable again.
            payload["state"] = PENDING
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "JobRecord":
        known = {name: payload[name] for name in cls._PERSISTED if name in payload}
        return cls(**known)  # type: ignore[arg-type]

    def describe(self) -> Dict[str, object]:
        """Status-reply summary (wire-friendly, no live handles)."""
        return {
            "job_id": self.job_id,
            "request": list(self.request),
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "reclaims": self.reclaims,
            "worker": self.lease_worker,
            "steps": self.last_steps,
            "errors": list(self.errors),
        }


def build_job(
    request: Request,
    sizing: Sizing,
    faults: Optional[FaultConfig],
    *,
    priority: int = PRIORITY_BULK,
    submit_seq: int = 0,
) -> JobRecord:
    """Construct the canonical JobRecord for one request."""
    scale, measure_ops, warmup_ops, seed, check_level = sizing
    return JobRecord(
        job_id=job_id_for(request, sizing, faults),
        scheme=request[0],
        workload=request[1],
        variant=request[2],
        sizing={
            "scale": scale,
            "measure_ops": measure_ops,
            "warmup_ops": warmup_ops,
            "seed": seed,
            "check_level": check_level,
        },
        faults=None if faults is None else dataclasses.asdict(faults),
        cache_key=cache_key(request, sizing, faults),
        priority=priority,
        submit_seq=submit_seq,
    )
