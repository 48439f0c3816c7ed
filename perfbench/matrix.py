"""The matrix workload: ``python -m repro sweep`` from a cold cache, then warm."""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from perfbench import layers
from perfbench.measure import DigestBook
from perfbench.outcome import Outcome
from perfbench.spec import Workload
from perfbench.tracer import merge

HERE = Path(__file__).resolve().parent
RESULTS_LINE = re.compile(r"^sweep complete: (\d+) result\(s\)", re.MULTILINE)
DIGEST_LINE = re.compile(r"^results digest: ([0-9a-f]+)$", re.MULTILINE)
SWEEP_TIMEOUT_S = 150
#: Warm sweeps after each cold one (cached_s is their median), each
#: followed by one set-up sample.
WARM_REPEATS = 12


@dataclass
class Sweep:
    elapsed_s: float
    problem: str  # "" when the sweep returned every result with a digest
    digest: str = ""


def run_sweep(command: List[str], env: Dict[str, str], expected: int) -> Sweep:
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=HERE.parent, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Sweep(time.perf_counter() - start, f"timed out after {SWEEP_TIMEOUT_S}s")
    elapsed = time.perf_counter() - start
    results = RESULTS_LINE.search(output)
    digest = DIGEST_LINE.search(output)
    if proc.returncode != 0 or results is None or digest is None:
        tail = output.strip().splitlines()[-3:]
        return Sweep(elapsed, f"exit {proc.returncode}: {' | '.join(tail)}")
    if int(results.group(1)) != expected:
        return Sweep(elapsed, f"{results.group(1)} of {expected} results")
    return Sweep(elapsed, "", digest.group(1))


class Matrix:
    def __init__(self, workload: Workload, seed: int, workdir: Path, env: Dict[str, str],
                 outcome: Outcome) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.outcome = outcome
        self.book = DigestBook()
        self.expected = (len(workload.schemes) * len(workload.programs)
                         * len(workload.variants))
        self.jobs = len(os.sched_getaffinity(0))
        self.passes = 0
        from repro import workload_by_name

        #: Every op one cold sweep simulates, warm-up included.
        self.simulated_ops = sum(
            workload_by_name(program).cores for program in workload.programs
        ) * len(workload.schemes) * len(workload.variants) * (
            workload.warmup_ops + workload.measure_ops)

    def _args(self, checkpoint_root: Path) -> List[str]:
        w = self.workload
        return [
            "sweep", "--quiet", "--jobs", str(self.jobs),
            "--schemes", *w.schemes, "--workloads", *w.programs,
            "--variants", *w.variants, "--scale", str(w.scale),
            "--warmup-ops", str(w.warmup_ops), "--measure-ops", str(w.measure_ops),
            "--seed", str(self.seed), "--checkpoint-root", str(checkpoint_root),
        ]

    def sweep_pass(self, prefix: List[str], warm: int,
                   after_warm: Callable[[], None] = lambda: None) -> List[Sweep]:
        """A cold sweep into a fresh cache, then *warm* sweeps against it."""
        self.passes += 1
        directory = self.workdir / f"pass{self.passes}"
        env = dict(self.env, REPRO_CACHE_DIR=str(directory / "cache"))
        command = prefix + self._args(directory / "checkpoints")
        sweeps = [run_sweep(command, env, self.expected)]
        for _ in range(warm):
            sweeps.append(run_sweep(command, env, self.expected))
            after_warm()
        shutil.rmtree(directory, ignore_errors=True)
        for sweep in sweeps:
            self.outcome.attempted += self.expected
            problem = sweep.problem
            if not problem and not self.book.record("results digest", sweep.digest):
                problem = self.book.mismatches[-1]
            if problem:
                self.outcome.failed += self.expected
                self.outcome.problems.append(f"sweep: {problem}")
        self.outcome.digests["results digest"] = self.book.reference.get("results digest", "")
        return sweeps

    def measure(self, seconds: float, probe_setup: Callable[[int], None]) -> None:
        """Sweep passes for *seconds*, probing set-up after each warm sweep.

        One pass already repeats the sweep (cold, then warm), so it may be
        the only one: a cold sweep takes about half of a run.
        """
        plain = [sys.executable, "-m", "repro"]
        start = time.perf_counter()
        passes = []
        while True:
            passes.append(self.sweep_pass(plain, WARM_REPEATS, lambda: probe_setup(1)))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        self.outcome.samples["sim_ops_per_s"] = [
            self.simulated_ops / p[0].elapsed_s for p in passes]
        self.outcome.samples["wall_s"] = [p[0].elapsed_s for p in passes]
        self.outcome.samples["cached_s"] = [s.elapsed_s for p in passes for s in p[1:]]

    def trace(self) -> None:
        plain = self.sweep_pass([sys.executable, "-m", "repro"], 1)
        trace_dir = self.workdir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = self.sweep_pass(
            [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir)], 1)
        records = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
        shutil.rmtree(trace_dir, ignore_errors=True)
        data = merge(records)
        workers = [r for r in records if "lifetime_ns" in r]
        traced_s = (sum(s.elapsed_s for s in traced)
                    + sum(r["lifetime_ns"] for r in workers) * layers.NS)
        ratio = sum(s.elapsed_s for s in traced) / sum(s.elapsed_s for s in plain)
        self.outcome.per_layer = layers.derive(data, ratio, executor=True)
        self.outcome.layer_table = layers.self_time_table(data, traced_s)
        self.outcome.layer_basis = (
            f"process time: {len(traced)} traced sweep commands plus "
            f"{len(workers)} forked workers")
        missing = sorted({m for r in records for m in r.get("missing", [])})
        self.outcome.warnings += [f"entry point not found: {m}" for m in missing]
