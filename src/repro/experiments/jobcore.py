"""The unit of work every sweep runs: one checkpointed, resumable job.

Every sweep — ``ExperimentRunner.run_many``/``prewarm``, ``repro sweep``
at any ``--jobs``, and a ``repro sweepd`` service — schedules jobs
through :mod:`repro.sweepd`.  Each job is one simulation, serving every
(scheme, workload, variant) request with its configuration; it
checkpoints into a private directory, resumes from ``latest.ckpt``
after a crash or SIGKILL, and lands its metrics as an atomically-written
JSON payload.  This module is that unit:

* :func:`execute_job` — resume-or-build, arm a checkpointer, run to
  completion, return the metrics payload;
* :func:`load_result` — the salvage read of a job's crash-safe
  ``result.json`` that lets a relaunched worker ship a finished result
  without re-simulating;
* :func:`cache_key` / :func:`fault_signature` — the canonical result
  cache key, a digest of the configuration a request simulates (shared
  with :class:`repro.experiments.runner.ExperimentRunner`), which also
  seeds deterministic ``sweepd`` job ids (and so the per-job checkpoint
  directory names);
* :func:`inject_worker_crash` and the stalling checkpointer — the
  deterministic infrastructure faults (``FaultConfig.worker_crash_rate``
  / ``worker_stall_rate``) every job honours.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.common.config import CheckConfig, FaultConfig, SystemConfig
from repro.common.errors import WorkerFaultError
from repro.common.rng import DeterministicRng
from repro.snapshot.hooks import Checkpointer

#: ``(scheme, workload, variant)`` — the unit every sweep is made of.
Request = Tuple[str, str, str]

#: ``(scale, measure_ops, warmup_ops, seed, check_level)`` as threaded
#: through worker processes.
Sizing = Tuple[int, int, int, int, str]

#: Conventional name for a job's completed-metrics file.
RESULT_NAME = "result.json"


def fault_signature(faults: Optional[FaultConfig]) -> str:
    """Cache-key suffix for the fault fields that change simulation output.

    The worker crash/stall knobs steer *which attempt* produces a result,
    never the result itself (simulations are deterministic in their
    inputs), so they are deliberately left out of the signature.
    """
    if faults is None or not faults.enabled:
        return ""
    material = repr((
        faults.fault_seed,
        faults.nvm_uncorrectable_rate,
        faults.transient_rate,
        faults.transfer_fault_rate,
        faults.max_retries,
        faults.retry_backoff_cycles,
        faults.recovery_read_cycles,
    ))
    digest = hashlib.sha256(material.encode()).hexdigest()[:12]
    return f"_faults{digest}"


#: Keys computed by this process: a sweep looks each request's key up
#: several times, and building its configuration is the expensive part.
_KEYS: Dict[tuple, str] = {}


def _variant_mutator(variant: str) -> Optional[Callable[[SystemConfig], SystemConfig]]:
    """The registered mutator of *variant*, or None for an unknown name."""
    from repro.experiments.runner import VARIANTS

    if variant not in VARIANTS:
        # The report's modules register their variants on import.
        from repro.experiments import ablation_partial, dram_capacity, sensitivity  # noqa: F401
    return VARIANTS.get(variant)


def _config_digest(
    request: Request,
    mutator: Optional[Callable[[SystemConfig], SystemConfig]],
    scale: int,
    seed: int,
) -> str:
    """Digest of the configuration *request* simulates under its scheme."""
    from repro.sim.system import effective_config, system_config
    from repro.workloads import workload_by_name

    scheme, workload, variant = request
    material = repr((scheme, workload, variant))
    if mutator is not None:
        try:
            config = system_config(
                workload_by_name(workload), scale=scale, seed=seed,
                config_mutator=mutator,
            )
            material = repr(effective_config(scheme, config))
        except Exception:
            # An unknown scheme or workload, or a variant that raises,
            # keys by name: its job runs, and fails on its first attempt.
            pass
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def cache_key(request: Request, sizing: Sizing, faults: Optional[FaultConfig]) -> str:
    """The canonical result-cache key for one sweep request.

    It digests the configuration the request simulates, after its
    variant's mutator ran and with the scheme sections its controller
    does not read at their defaults, so every request that simulates
    the same run shares one key, one cache entry and one sweep job.
    Identical to :meth:`repro.experiments.runner.ExperimentRunner._key`
    (which delegates here), so results computed by sweep jobs and by
    :meth:`~repro.experiments.runner.ExperimentRunner.run` all land in —
    and are found in — the same cache entries.
    """
    from repro.experiments.runner import CACHE_VERSION

    scheme, workload, variant = request
    scale, measure_ops, warmup_ops, seed, _check_level = sizing
    mutator = _variant_mutator(variant)
    memo = (scheme, workload, variant, mutator, scale, measure_ops, warmup_ops,
            seed, faults)
    key = _KEYS.get(memo)
    if key is None:
        key = _KEYS[memo] = (
            f"v{CACHE_VERSION}_{scheme}_{workload}"
            f"_c{_config_digest(request, mutator, scale, seed)}"
            f"_s{scale}_m{measure_ops}_w{warmup_ops}"
            f"_seed{seed}{fault_signature(faults)}"
        )
    return key


def inject_worker_crash(
    faults: Optional[FaultConfig], request: Request, attempt: int
) -> None:
    """Model a worker that dies before doing any work on this attempt.

    Deterministic per (request, attempt): the RNG stream name includes
    the attempt number, so a crashed request's retry draws fresh numbers
    and can succeed, while re-running the whole sweep reproduces the
    exact same crash schedule.  Stalls are NOT injected here but mid-run
    by the stalling checkpointer (a pre-run sleep would wedge the job
    before it armed its heartbeat, which no real hang does).  The stream
    still draws a stall number first when a stall rate is set, so the
    crash schedule of a given ``fault_seed`` stays the one every
    published fault run was made with.
    """
    if faults is None or not faults.enabled:
        return
    if faults.worker_crash_rate <= 0.0:
        return
    stream = f"fault/worker/{'/'.join(request)}/attempt{attempt}"
    rng = DeterministicRng(stream, faults.fault_seed)
    if faults.worker_stall_rate > 0.0:
        rng.random()
    if rng.random() < faults.worker_crash_rate:
        raise WorkerFaultError(
            f"simulated worker crash (attempt {attempt + 1})", device="worker"
        )


def load_result(directory: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Salvage a completed result payload from a job directory.

    Returns None for a missing, torn, or schema-stale file — the caller
    re-simulates.  This is what lets a worker that finished a job but
    died before (or while) reporting it hand the result over on its next
    lease instead of redoing minutes of simulation.
    """
    from repro import persist
    from repro.experiments.runner import _METRIC_FIELDS

    path = Path(directory) / RESULT_NAME
    payload = persist.read_json_or_none(path, site="result")
    if payload is None:
        return None
    if any(name not in payload for name in _METRIC_FIELDS):
        return None
    return payload


def _stall_seconds(faults: Optional[FaultConfig], request: Request, attempt: int) -> float:
    """How long attempt *attempt* of *request* wedges mid-run (0: never).

    Only a first attempt stalls, so the relaunch after the watchdog's
    kill finishes; the draw is deterministic per request.
    """
    if attempt != 0 or faults is None or not faults.enabled:
        return 0.0
    if faults.worker_stall_rate <= 0.0:
        return 0.0
    # The stream name predates the worker watchdog; it is kept so that a
    # fault seed keeps stalling the same requests.
    stream = f"fault/supervised/{'/'.join(request)}/stall"
    if DeterministicRng(stream, faults.fault_seed).random() < faults.worker_stall_rate:
        return faults.worker_stall_seconds
    return 0.0


class _StallingCheckpointer(Checkpointer):
    """A checkpointer that wedges the job once, at a fixed op count.

    Models an infrastructure hang (NFS stall, runaway GC): the job stops
    making progress *and* stops heartbeating, which is the condition the
    sweep worker's watchdog must detect and break.  The sleep happens
    outside simulated time, so the eventual metrics are unaffected —
    only liveness is.
    """

    def __init__(self, *args, stall_at_ops: int, stall_seconds: float, **kwargs):
        super().__init__(*args, **kwargs)
        self._stall_at_ops = stall_at_ops
        self._stall_seconds = stall_seconds
        self._stalled = False

    def on_step(self, system) -> None:
        super().on_step(system)
        if not self._stalled and system.steps_total >= self._stall_at_ops:
            self._stalled = True
            time.sleep(self._stall_seconds)


def execute_job(
    request: Request,
    sizing: Sizing,
    faults: Optional[FaultConfig],
    attempt: int,
    directory: Union[str, Path],
    *,
    checkpoint_every: int,
    heartbeat_seconds: float,
) -> Dict[str, object]:
    """Run one sweep job to completion and return its metrics payload.

    Resume-aware: if ``<directory>/latest.ckpt`` (or, when that file is
    missing or corrupt, the newest good ``gen-*.ckpt`` generation) loads,
    the simulation continues from it (bit-identical to an uninterrupted
    run, per docs/CHECKPOINTS.md); otherwise a fresh system is built —
    after :func:`inject_worker_crash` gets its deterministic chance to
    model a worker that dies before doing any work.  The checkpointer
    touches ``<directory>/heartbeat`` for the watchdog and, when the
    fault config draws a stall for this attempt, wedges the job once
    two periodic checkpoints past its starting point, so the relaunch
    genuinely *resumes*.  The returned payload carries every cached
    metric field plus ``resumed_at_ops`` and ``attempt``.
    """
    # Import inside the job so forked/spawned processes initialise their
    # own module state (notably dynamically-registered variants).
    from repro.experiments import ablation_partial, dram_capacity, sensitivity  # noqa: F401
    from repro.experiments.runner import VARIANTS, _METRIC_FIELDS
    from repro.sim.system import build_system
    from repro.snapshot import load_checkpoint_with_fallback
    from repro.workloads import workload_by_name

    scheme, workload_name, variant = request
    scale, measure_ops, warmup_ops, seed, check_level = sizing
    directory = Path(directory)

    # A torn or bit-rotted latest.ckpt must not poison the job: fall back
    # through the generation chain, and past it to a fresh build.
    resumed_from_ops = 0
    system, _, _skipped = load_checkpoint_with_fallback(directory)
    if system is not None:
        resumed_from_ops = system.steps_total
    else:
        inject_worker_crash(faults, request, attempt)
        check = CheckConfig(level=check_level) if check_level != "off" else None
        system = build_system(
            scheme,
            workload_by_name(workload_name),
            scale=scale,
            seed=seed,
            config_mutator=VARIANTS[variant],
            check=check,
            faults=faults,
        )
    stall = _stall_seconds(faults, request, attempt)
    if stall > 0.0:
        checkpointer: Checkpointer = _StallingCheckpointer(
            directory, every_ops=checkpoint_every,
            heartbeat_seconds=heartbeat_seconds,
            stall_at_ops=resumed_from_ops + 2 * checkpoint_every,
            stall_seconds=stall,
        )
    else:
        checkpointer = Checkpointer(
            directory, every_ops=checkpoint_every,
            heartbeat_seconds=heartbeat_seconds,
        )
    checkpointer.arm(system)
    if resumed_from_ops:
        metrics = system.resume_run()
    else:
        metrics = system.run(measure_ops, warmup_ops)

    payload: Dict[str, object] = {
        name: getattr(metrics, name) for name in _METRIC_FIELDS
    }
    payload["resumed_at_ops"] = resumed_from_ops
    payload["attempt"] = attempt
    return payload


def faults_from_wire(payload: Optional[Dict[str, object]]) -> Optional[FaultConfig]:
    """Rebuild a FaultConfig from a job's wire form; tolerant of None."""
    if payload is None:
        return None
    return FaultConfig(**payload)
