"""Run the ``repro`` command line with every layer's entry points traced.

Usage: ``python3 perfbench/traced_cli.py TRACE_DIR <repro arguments>``

The command runs as one "experiments" span, and every worker it forks
runs as another, from fork to exit.  Each process writes its span sums to
``TRACE_DIR/<pid>.json`` (the command's own file is ``main-<pid>.json``).
Every finished ``System.run`` also adds its simulated stats.
"""

import functools
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import layers  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def main(argv) -> int:
    trace_dir, repro_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    layers.install(tracer)

    from repro.sim.system import System

    traced_run = System.run

    def run_and_record(self, measure_ops, warmup_ops=0):
        metrics = traced_run(self, measure_ops, warmup_ops)
        layers.record_system(tracer, self, measure_ops, measure_ops + warmup_ops)
        return metrics

    System.run = functools.update_wrapper(run_and_record, traced_run)
    tracer.follow_forks(trace_dir, "experiments/worker")

    import repro.cli

    code = tracer.wrap(repro.cli.main, "experiments/main")(repro_args)
    record = tracer.snapshot()
    record["missing"] = tracer.missing
    (trace_dir / f"main-{os.getpid()}.json").write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
