"""The simulation workloads (hotcold, stream, walk): build_system / System.run in-process."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from perfbench import layers
from perfbench.measure import DigestBook, stats_digest
from perfbench.outcome import Outcome
from perfbench.spec import Workload
from perfbench.tracer import Tracer


@dataclass
class Rep:
    """One pass over the workload's schemes."""

    elapsed_s: float = 0.0  # build, warm-up, measure and collect, all schemes
    wall_s: float = 0.0  # warm-up, measure and collect_metrics, all schemes
    window_s: float = 0.0  # measured windows only
    ops: int = 0  # simulated ops in the measured windows, all cores
    digests: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)


def run_rep(workload: Workload, seed: int, on_system: Optional[Callable] = None) -> Rep:
    from repro import build_system, workload_by_name

    program = workload_by_name(workload.programs[0])
    rep = Rep()
    start = time.perf_counter()
    for scheme in workload.schemes:
        system = build_system(scheme, program, scale=workload.scale, seed=seed)
        t0 = time.perf_counter()
        system.run_ops(workload.warmup_ops)
        t1 = time.perf_counter()
        # System.run with no warm-up resets the stats and runs the measured
        # window on the now-warm caches and TLBs: the same op sequence and
        # stats as System.run(measure_ops, warmup_ops).
        metrics = system.run(workload.measure_ops)
        t2 = time.perf_counter()
        rep.wall_s += t2 - t0
        rep.window_s += t2 - t1
        rep.ops += workload.measure_ops * len(system.cores)
        rep.digests[scheme] = stats_digest(system.stats.as_dict())
        rep.metrics[scheme] = metrics
        if on_system is not None:
            on_system(system)
        # A System holds reference cycles: free it now, so peak memory is
        # one simulation's and not a matter of when the collector runs.
        del system
        gc.collect()
    rep.elapsed_s = time.perf_counter() - start
    return rep


def _check(outcome: Outcome, book: DigestBook, rep: Rep) -> None:
    for scheme, digest in rep.digests.items():
        outcome.attempted += 1
        if not book.record(scheme, digest):
            outcome.failed += 1


#: Set-up samples taken after each rep.
SETUP_SAMPLES_PER_REP = 4


def measure(workload: Workload, seed: int, seconds: float, outcome: Outcome,
            probe_setup: Callable[[int], None]) -> None:
    """Untraced reps for *seconds* (at least two), probing set-up after each."""
    book = DigestBook()
    start = time.perf_counter()
    reps = []
    while True:
        rep = run_rep(workload, seed)
        _check(outcome, book, rep)
        reps.append(rep)
        probe_setup(SETUP_SAMPLES_PER_REP)
        elapsed = time.perf_counter() - start
        if len(reps) >= 2 and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    outcome.problems += book.mismatches
    outcome.samples["sim_ops_per_s"] = [r.ops / r.window_s for r in reps]
    outcome.samples["wall_s"] = [r.wall_s for r in reps]
    outcome.samples["cached_s"] = [r.wall_s for r in reps[1:]]
    outcome.simulated = reps[0].metrics
    outcome.digests = reps[0].digests


def trace(workload: Workload, seed: int, outcome: Outcome) -> None:
    """One untraced rep, then one traced rep; their digests must agree."""
    book = DigestBook()
    plain = run_rep(workload, seed)
    _check(outcome, book, plain)

    tracer = Tracer()
    layers.install(tracer)
    try:
        total_ops = workload.warmup_ops + workload.measure_ops
        tracer.begin_region()
        traced = run_rep(
            workload, seed,
            on_system=lambda system: layers.record_system(
                tracer, system, workload.measure_ops, total_ops),
        )
        wall_ns, _ = tracer.end_region()
    finally:
        tracer.restore()
    _check(outcome, book, traced)
    outcome.problems += book.mismatches
    outcome.warnings += [f"entry point not found: {t}" for t in tracer.missing]
    traced_s = wall_ns * layers.NS
    data = tracer.snapshot()
    outcome.per_layer = layers.derive(data, traced_s / plain.elapsed_s, executor=False)
    outcome.layer_table = layers.self_time_table(data, traced_s)
    outcome.simulated = plain.metrics
    outcome.digests = plain.digests
