"""Set-up time, measured in a fresh interpreter per sample.

Run as a script, it times one set-up from before ``import repro`` to the
point where the first simulated op would run, and prints the seconds:

    python3 perfbench/setup_probe.py sim PROGRAM SCHEME SCALE SEED
    python3 perfbench/setup_probe.py matrix SCALE MEASURE_OPS WARMUP_OPS SEED CACHE_DIR
"""

import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()



def _probe(argv) -> float:
    kind = argv[0]
    if kind == "sim":
        from repro import build_system, workload_by_name

        program, scheme, scale, seed = argv[1], argv[2], int(argv[3]), int(argv[4])
        build_system(scheme, workload_by_name(program), scale=scale, seed=seed)
    else:
        import repro.cli  # noqa: F401
        from repro.experiments.runner import ExperimentRunner

        scale, measure, warmup, seed = (int(a) for a in argv[1:5])
        ExperimentRunner(scale=scale, measure_ops=measure, warmup_ops=warmup,
                         seed=seed, cache_dir=Path(argv[5]))
    return time.perf_counter() - START


def setup_samples(workload, seed: int, env, cache_dir: Path, count: int):
    """*count* set-up times of *workload*, one fresh interpreter each."""
    if workload.kind == "sim":
        args = ["sim", workload.programs[0], workload.schemes[0],
                str(workload.scale), str(seed)]
    else:
        args = ["matrix", str(workload.scale), str(workload.measure_ops),
                str(workload.warmup_ops), str(seed), str(cache_dir)]
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, __file__, *args], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


if __name__ == "__main__":
    print(repr(_probe(sys.argv[1:])))
