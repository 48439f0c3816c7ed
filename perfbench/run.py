"""Host-time benchmark of the PageSeer reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It drives the simulator only
through ``build_system`` / ``System.run`` / ``System.stats`` and the
``python -m repro sweep`` command line, with the program built from the
checkout's own ``src/``.  ``--seed`` is passed only as the simulation
seed.  The workloads, their sizing and the layer map are in
``perfbench/spec.py``.

With ``--trace 0`` it repeats the workload for about ``--seconds`` and
reports the end-to-end metrics as medians over the repeats: at least two
passes over a simulation workload's schemes, or at least one cold sweep
followed by warm ones.  With ``--trace 1`` it runs the workload once untraced and once
with every layer's entry points wrapped, and reports the per-layer
metrics.  Either way it checks the simulator's outputs: stats digests
repeat exactly across repeats and between the traced and untraced runs,
and the cold and warm sweeps print the same results digest and return
every requested result.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Thread pools pinned to 1 before numpy loads, as ``repro.bench`` pins them.
THREAD_PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _environment() -> dict:
    """The environment for this process and its children.

    The program comes from this checkout's ``src/`` only, and ``REPRO_*``
    overrides from the caller's shell are dropped, so every run measures
    the default configuration.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for var in THREAD_PIN_VARS:
        os.environ.setdefault(var, "1")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(ROOT)]
    return dict(os.environ)


def _peak_rss_mib(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB


def _print_report(workload, outcome, trace: bool) -> None:
    from perfbench import measure, spec
    from perfbench.layers import metric_unit

    print(f"workload {workload.name}: {workload.why}")
    print(f"  sizing: {workload.sizing}; programs {', '.join(workload.programs)}; "
          f"schemes {', '.join(workload.schemes)}")
    if not trace:
        print("end-to-end (host time; median over samples):")
        for name, (unit, _, _) in spec.END_TO_END.items():
            values = outcome.samples[name]
            tail = measure.tail_percentile(values)
            tail_text = (f"p{tail[0]:g} {tail[1]:.6g}" if tail else
                         f"too few samples for a percentile with "
                         f"{measure.TAIL_SAMPLES} beyond it")
            print(f"  {name:14s} {measure.median(values):14.6g} {unit:6s} "
                  f"n={len(values)}  {tail_text}")
        print(f"  setup boundary: {spec.SETUP_BOUNDARY[workload.kind]}")
    else:
        print(f"per-layer self time ({outcome.layer_basis}):")
        total = sum(seconds for _, seconds in outcome.layer_table)
        for layer, seconds in outcome.layer_table:
            share = seconds / total if total else 0.0
            print(f"  {layer:12s} {seconds:10.4f} s {100 * share:6.1f}%")
        print(f"  {'total':12s} {total:10.4f} s")
        print("per-layer metrics, with the layer's predicted effect:")
        for layer in spec.LAYERS:
            print(f"  {layer.name}: should move {layer.should_move} on {layer.on}; "
                  f"predicted flat on {layer.flat_on}")
            for name in layer.metrics:
                print(f"    {name:26s} {outcome.per_layer[name]:14.6g} "
                      f"{metric_unit(name)[0]}")
    if outcome.simulated:
        print("simulated (unvalidated per workload: the paper reports only "
              "26-workload aggregates; no error figure is given):")
        print(f"  {'scheme':9s} {'IPC':>8s} {'AMMAT':>9s} {'DRAM':>7s} {'swaps':>7s}")
        for scheme, m in outcome.simulated.items():
            print(f"  {scheme:9s} {m.ipc:8.4f} {m.ammat:9.2f} "
                  f"{100 * m.dram_share:6.1f}% {m.swaps_total:7d}")
    for name, digest in outcome.digests.items():
        print(f"  digest {name}: {digest}")
    for line in outcome.warnings:
        print(f"warning: {line}")
    for line in outcome.problems:
        print(f"FAILED: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing; "
              f"run from the root of a source checkout", file=sys.stderr)
        return 2
    env = _environment()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import matrix, setup_probe, simrun, spec
    from perfbench.layers import metric_unit
    from perfbench.measure import median
    from perfbench.outcome import Outcome

    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(spec.WORKLOADS)}")
    workload = spec.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    setup = outcome.samples.setdefault("setup_s", [])

    def probe_setup(count: int) -> None:
        # Called between repeats, so the samples spread over the whole run
        # rather than one moment of it.
        setup.extend(setup_probe.setup_samples(
            workload, args.seed, env, workdir / "probe-cache", count))

    try:
        if workload.kind == "sim":
            if args.trace:
                simrun.trace(workload, args.seed, outcome)
            else:
                simrun.measure(workload, args.seed, args.seconds, outcome, probe_setup)
        else:
            bench = matrix.Matrix(workload, args.seed, workdir, env, outcome)
            if args.trace:
                bench.trace()
            else:
                bench.measure(args.seconds, probe_setup)
        if not args.trace:
            outcome.samples["peak_rss_mb"] = [_peak_rss_mib(workload.kind == "matrix")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    _print_report(workload, outcome, bool(args.trace))
    if args.trace:
        metrics = {name: {"value": value, "unit": metric_unit(name)[0]}
                   for name, value in outcome.per_layer.items()}
    else:
        metrics = {name: {"value": median(outcome.samples[name]), "unit": unit}
                   for name, (unit, _, _) in spec.END_TO_END.items()}
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
