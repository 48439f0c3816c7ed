"""The differential harness proving the batched engine scalar-equivalent.

The batched engine (``repro.sim.engine``) drains independent operations
per core between shared events; its equivalence contract says the result
is *bit-identical* to the scalar reference scheduler
(``tests/oracles/scalar_engine.py``), not statistically close.  This
suite is the proof obligation:

* every scheme × representative workload runs on the engine and on the
  oracle, and the two must produce identical stats snapshots (the full
  dict, not just a digest), identical per-core end states, and the
  identical *sequence* of swap transfers (page/segment moves with their
  timestamps and directions);
* a hypothesis harness samples configurations — scheme, workload, seed,
  ablation variant, and the chunking of ``run_ops`` calls — and compares
  engine and oracle op-for-op at every chunk boundary, so a divergence is
  pinned to the first chunk it appears in rather than the end of a run.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import stats_digest
from repro.experiments.runner import VARIANTS
from repro.faults import resolve_profile
from repro.sim.system import SCHEMES, build_system
from repro.workloads import workload_by_name

from tests.oracles.scalar_engine import scalar_engine

ALL_SCHEMES = sorted(SCHEMES)

#: Representative coverage: a pointer-chasing, a streaming, and a
#: hot/cold workload — together they exercise swaps, write-backs, page
#: walks, and every hit class on all five schemes.
WORKLOADS = ["lbmx4", "streamx4", "milcx4", "barnesx8"]


def _record_swap_events(system):
    """Instrument the memory so every swap transfer lands in a list.

    All swap machinery (PageSeer's swap driver, PoM/MemPod fast swaps,
    CAMEO line swaps) moves data through ``MainMemory.read_page`` /
    ``write_page`` / ``transfer_segment``; demand traffic does not.
    Wrapping the instance methods therefore captures the complete swap
    event sequence without touching scheme internals.
    """
    events = []
    memory = system.hmc.memory
    for name in ("read_page", "write_page", "transfer_segment"):
        original = getattr(memory, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            events.append((_name, args, tuple(sorted(kwargs.items()))))
            return _original(*args, **kwargs)

        setattr(memory, name, wrapper)
    return events


def _run(scheme, workload_name, engine, *, ops=1200, seed=0, scale=1024,
         variant="default", chunks=None, config_mutator=None, faults=None):
    """Run one configuration on ``engine``: "batched" (production) or
    "scalar" (the oracle)."""
    system = build_system(
        scheme,
        workload_by_name(workload_name),
        scale=scale,
        seed=seed,
        config_mutator=config_mutator or VARIANTS[variant],
        faults=faults,
    )
    events = _record_swap_events(system)
    checkpoints = []
    remaining = list(chunks) if chunks else [ops]
    with scalar_engine() if engine == "scalar" else contextlib.nullcontext():
        for chunk in remaining:
            system.run_ops(chunk)
            checkpoints.append(_core_state(system))
    return {
        "stats": system.stats.as_dict(),
        "digest": stats_digest(system),
        "cores": _core_state(system),
        "checkpoints": checkpoints,
        "events": events,
    }


def _core_state(system):
    return [
        (core.core_id, core.clock, core.instructions, core.ops_executed)
        for core in system.cores
    ]


class TestEngineEquivalence:
    """Scalar vs batched on the full scheme grid."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_identical_stats_cores_and_swap_sequence(self, scheme, workload):
        scalar = _run(scheme, workload, "scalar")
        batched = _run(scheme, workload, "batched")
        assert scalar["digest"] == batched["digest"]
        assert scalar["stats"] == batched["stats"]
        assert scalar["cores"] == batched["cores"]
        assert scalar["events"] == batched["events"]

    @pytest.mark.parametrize("scheme", ["pageseer", "pom"])
    def test_equivalence_survives_ablation_variants(self, scheme):
        for variant in sorted(VARIANTS):
            scalar = _run(scheme, "milcx4", "scalar", ops=800,
                          variant=variant)
            batched = _run(scheme, "milcx4", "batched", ops=800,
                           variant=variant)
            assert scalar["digest"] == batched["digest"], variant
            assert scalar["events"] == batched["events"], variant


class TestEngineEquivalenceFuzz:
    """Hypothesis over sampled configurations, compared op-for-op."""

    @settings(max_examples=15, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(min_value=0, max_value=3),
        variant=st.sampled_from(sorted(VARIANTS)),
        chunks=st.lists(st.integers(min_value=1, max_value=300),
                        min_size=1, max_size=5),
    )
    def test_chunked_runs_agree_at_every_boundary(
        self, scheme, workload, seed, variant, chunks
    ):
        scalar = _run(scheme, workload, "scalar", seed=seed,
                      variant=variant, chunks=chunks)
        batched = _run(scheme, workload, "batched", seed=seed,
                       variant=variant, chunks=chunks)
        # Op-for-op: per-core clocks/instruction counts must already agree
        # at every chunk boundary, not merely at the end.
        assert scalar["checkpoints"] == batched["checkpoints"]
        assert scalar["digest"] == batched["digest"]
        assert scalar["events"] == batched["events"]

    @settings(max_examples=8, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        seed=st.integers(min_value=0, max_value=2),
        scale=st.sampled_from([512, 1024]),
    )
    def test_scale_and_seed_sweep(self, scheme, seed, scale):
        scalar = _run(scheme, "milcx4", "scalar", ops=500, seed=seed,
                      scale=scale)
        batched = _run(scheme, "milcx4", "batched", ops=500, seed=seed,
                       scale=scale)
        assert scalar["digest"] == batched["digest"]
        assert scalar["cores"] == batched["cores"]

    @settings(max_examples=10, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        dram_shrink=st.sampled_from([1, 2]),
        hpt_threshold=st.integers(min_value=2, max_value=10),
        pct_threshold=st.integers(min_value=4, max_value=20),
        fault_profile=st.sampled_from(
            [None, "transient", "uncorrectable", "storm"]
        ),
        fault_seed=st.integers(min_value=0, max_value=3),
    )
    def test_random_configs_agree(
        self, scheme, dram_shrink, hpt_threshold, pct_threshold,
        fault_profile, fault_seed,
    ):
        """Equivalence over sampled *configurations*: the DRAM:NVM ratio,
        the swap/prefetch thresholds, and the fault-injection profile all
        shift where the batch boundaries fall (more swaps, more rescue
        transfers, different PRT pressure) — none of it may change what
        the batched engine computes."""
        def mutate(config):
            memory = dataclasses.replace(
                config.memory,
                dram=dataclasses.replace(
                    config.memory.dram,
                    capacity_bytes=(
                        config.memory.dram.capacity_bytes // dram_shrink
                    ),
                ),
            )
            pageseer = dataclasses.replace(
                config.pageseer,
                hpt_swap_threshold=hpt_threshold,
                pct_prefetch_threshold=pct_threshold,
            )
            return dataclasses.replace(
                config, memory=memory, pageseer=pageseer
            )

        faults = (
            resolve_profile(fault_profile, fault_seed=fault_seed)
            if fault_profile else None
        )
        scalar = _run(scheme, "milcx4", "scalar", ops=600,
                      config_mutator=mutate, faults=faults)
        batched = _run(scheme, "milcx4", "batched", ops=600,
                       config_mutator=mutate, faults=faults)
        assert scalar["digest"] == batched["digest"]
        assert scalar["stats"] == batched["stats"]
        assert scalar["cores"] == batched["cores"]
        assert scalar["events"] == batched["events"]
