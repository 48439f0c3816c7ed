"""Simulator throughput microbenchmarks (not a paper figure).

These time the simulator itself — operations per second through the full
TLB/cache/HMC/memory stack — so performance regressions in the model are
visible in the benchmark history.  ``OPS`` is sized so the measured window
dominates ``build_system`` cost (construction is ~2-3 ms; 6000 ops per
core run ~50-200 ms depending on the scheme).

Alongside the timing, the determinism tests assert that back-to-back runs
of the benchmark configuration produce bit-identical stats digests — the
optimization work (heap scheduler, bound stats handles, ``__slots__``
records) must never trade reproducibility for speed.

The cross-check test runs the benchmark grid on the scalar test oracle
too, keeping the engine's bit-identity contract visible right next to
the numbers it justifies.
"""

import pytest

from repro.bench import stats_digest
from repro.sim.system import SCHEMES, build_system
from repro.workloads import workload_by_name

from tests.oracles.scalar_engine import scalar_engine

OPS = 6000
ALL_SCHEMES = sorted(SCHEMES)


def run_slice(scheme, ops=OPS):
    system = build_system(scheme, workload_by_name("milcx4"), scale=1024)
    system.run_ops(ops)
    return system


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_simulation_throughput(benchmark, scheme):
    system = benchmark.pedantic(
        run_slice, args=(scheme,), iterations=1, rounds=3,
    )
    total_ops = sum(core.ops_executed for core in system.cores)
    assert total_ops == OPS * len(system.cores)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_throughput_run_is_deterministic(scheme):
    """Two back-to-back benchmark runs must agree bit-for-bit."""
    first = stats_digest(run_slice(scheme, ops=1000))
    second = stats_digest(run_slice(scheme, ops=1000))
    assert first == second


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_engine_matches_scalar_oracle_on_benchmark_config(scheme):
    """The engine and the scalar oracle produce the same digest on the
    benchmark grid itself, so every row in the benchmark history is
    comparing equal work (the full equivalence proof lives in
    tests/integration/test_engine_equivalence.py)."""
    engine = stats_digest(run_slice(scheme, ops=1000))
    with scalar_engine():
        oracle = stats_digest(run_slice(scheme, ops=1000))
    assert engine == oracle


def test_device_access_throughput(benchmark):
    from repro.common.config import nvm_timing_table1
    from repro.common.stats import StatsRegistry
    from repro.mem.device import MemoryDevice

    device = MemoryDevice(nvm_timing_table1(4 * 2**20), StatsRegistry())
    state = {"now": 0, "line": 0}

    def one_access():
        state["now"] += 10
        state["line"] = (state["line"] + 17) % 4096
        device.access(state["now"], state["line"], False)

    benchmark(one_access)


def test_page_walk_throughput(benchmark):
    system = build_system("pageseer", workload_by_name("lbmx4"), scale=1024)
    core = system.cores[0]
    table = core.process.page_table
    vpn_pool = 128  # bounded so physical frames are not exhausted
    for vpn in range(vpn_pool):
        table.ensure_mapped(0x400000 + vpn)
    state = {"vpn": 0, "now": 0}

    def one_walk():
        vpn = 0x400000 + (state["vpn"] % vpn_pool)
        state["vpn"] += 1
        state["now"] += 1000
        core.mmu.walker.walk(state["now"], table, vpn)

    benchmark(one_walk)
