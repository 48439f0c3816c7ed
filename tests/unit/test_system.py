"""Unit tests for system assembly and the run loop (repro.sim.system)."""

import itertools

import pytest

from repro.common.errors import ConfigError
from repro.sim.system import SCHEMES, System, build_system
from repro.workloads import workload_by_name

from repro.common.config import default_system_config
from repro.sim.cpu import MemoryOp

from tests.oracles.scalar_engine import BareStream, run_to_targets


def tiny(scheme="noswap", workload="lbmx4"):
    return build_system(scheme, workload_by_name(workload), scale=1024)


class TestAssembly:
    def test_unknown_scheme_rejected(self):
        config = default_system_config(scale=1024, cores=4)
        with pytest.raises(ConfigError):
            System(config, "bogus", workload_by_name("lbmx4"), 1024)

    def test_scheme_registry_complete(self):
        assert set(SCHEMES) == {"pageseer", "pom", "mempod", "cameo", "noswap"}

    def test_core_count_matches_workload(self):
        assert len(tiny(workload="mcfx8").cores) == 8
        assert len(tiny(workload="mix1").cores) == 4

    def test_each_core_has_own_process(self):
        system = tiny()
        pids = {core.process.pid for core in system.cores}
        assert len(pids) == len(system.cores)

    def test_hints_wired_only_for_pageseer(self):
        pageseer = tiny(scheme="pageseer")
        noswap = tiny(scheme="noswap")
        assert pageseer.cores[0].mmu.walker._mmu_hint is not None
        assert noswap.cores[0].mmu.walker._mmu_hint is None

    def test_oversized_workload_rejected_early(self):
        # At scale 16384 the memory has far fewer pages than LULESHx4's
        # (floored) footprint.
        with pytest.raises(ConfigError, match="needs"):
            build_system("noswap", workload_by_name("LULESHx4"), scale=16384)

    def test_config_mutator_applied(self):
        import dataclasses

        def mutate(config):
            return dataclasses.replace(
                config, core=dataclasses.replace(config.core, base_cpi=2.0)
            )

        system = build_system(
            "noswap", workload_by_name("lbmx4"), scale=1024, config_mutator=mutate
        )
        assert system.config.core.base_cpi == 2.0


class TestRunLoop:
    def test_run_ops_advances_all_cores_equally(self):
        system = tiny()
        system.run_ops(50)
        assert all(core.ops_executed == 50 for core in system.cores)

    def test_run_ops_incremental(self):
        system = tiny()
        system.run_ops(20)
        system.run_ops(30)
        assert all(core.ops_executed == 50 for core in system.cores)

    def test_cores_advance_in_time_order(self):
        """No core may run far ahead of the others (bounded skew)."""
        system = tiny()
        system.run_ops(200)
        clocks = [core.clock for core in system.cores]
        assert max(clocks) < 5 * min(clocks) + 10_000

    def test_warmup_resets_stats(self):
        system = tiny()
        metrics = system.run(measure_ops=50, warmup_ops=50)
        # Measured instruction counts must reflect only the window.
        per_core = metrics.instructions / len(system.cores)
        # Each op retires instructions_before+1 instructions; with the
        # generators' ~35-45 that is bounded well below 100 per op.
        assert 50 < per_core < 50 * 100

    def test_measured_window_counts_only_window(self):
        system_a = tiny()
        a = system_a.run(measure_ops=50, warmup_ops=10)
        system_b = tiny()
        b = system_b.run(measure_ops=50, warmup_ops=200)
        # Different warm-up, same measured op count: instruction counts of
        # the measured window stay in the same ballpark.
        assert a.instructions == pytest.approx(b.instructions, rel=0.5)

    def test_determinism_across_builds(self):
        a = tiny(scheme="pageseer").run(100, 100)
        b = tiny(scheme="pageseer").run(100, 100)
        assert a.ipc == b.ipc
        assert a.ammat == b.ammat
        assert a.raw.get("hmc/serviced_dram") == b.raw.get("hmc/serviced_dram")


class _StubCore:
    """A core double exposing exactly the scheduler's interface."""

    def __init__(self, core_id, step_cycles, log):
        self.core_id = core_id
        self.clock = 0.0
        self.ops_executed = 0
        self.done = False
        self.ops = BareStream(itertools.repeat(MemoryOp(0, False, 0)))
        self._step_cycles = step_cycles
        self._log = log

    def execute(self, op):
        self._log.append((self.core_id, self.clock))
        self.clock += self._step_cycles
        self.ops_executed += 1


class _StubSystem:
    """Bare ``cores`` holder to drive ``System.run_ops`` in isolation.

    Pinned to the scalar oracle: these tests define the reference
    interleaving the batched engine must reproduce (the batched side is
    held to it by tests/integration/test_engine_equivalence.py).
    """

    run_ops = System.run_ops
    _run_to_targets = run_to_targets

    def __init__(self, cores):
        self.cores = cores
        self.checkpointer = None
        self.steps_total = 0


class TestSchedulerTieBreaking:
    def test_equal_clocks_break_ties_by_core_id(self):
        """Two cores deliberately driven to equal clocks at every step:
        the (clock, core_id) key must order each round as core 0 then
        core 1, never depending on ready-list memory order."""
        log = []
        cores = [_StubCore(0, 10, log), _StubCore(1, 10, log)]
        _StubSystem(cores).run_ops(4)
        assert log == [
            (0, 0.0), (1, 0.0),
            (0, 10.0), (1, 10.0),
            (0, 20.0), (1, 20.0),
            (0, 30.0), (1, 30.0),
        ]

    def test_tie_breaking_ignores_core_list_construction_order(self):
        """The interleaving is a pure function of (clock, core_id), so
        re-running with freshly built cores reproduces it exactly."""
        first, second = [], []
        for log in (first, second):
            cores = [_StubCore(0, 7, log), _StubCore(1, 7, log), _StubCore(2, 7, log)]
            _StubSystem(cores).run_ops(3)
        assert first == second
        assert [entry[0] for entry in first[:3]] == [0, 1, 2]

    def test_slower_core_yields_to_lagging_core(self):
        """Sanity: with unequal speeds the smallest clock still wins."""
        log = []
        cores = [_StubCore(0, 100, log), _StubCore(1, 10, log)]
        _StubSystem(cores).run_ops(3)
        # Core 1 runs all three of its ops before core 0's clock (100)
        # would let core 0 step a second time.
        assert log == [
            (0, 0.0), (1, 0.0), (1, 10.0), (1, 20.0),
            (0, 100.0), (0, 200.0),
        ]

    def test_done_core_leaves_the_heap(self):
        log = []
        finishing = _StubCore(0, 10, log)
        running = _StubCore(1, 10, log)

        def finish_after_two(op):
            _StubCore.execute(finishing, op)
            if finishing.ops_executed == 2:
                finishing.done = True

        finishing.execute = finish_after_two
        _StubSystem([finishing, running]).run_ops(5)
        assert finishing.ops_executed == 2
        assert running.ops_executed == 5
