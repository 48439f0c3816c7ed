"""Unit tests for the configuration dataclasses (repro.common.config)."""

import pytest

from repro.common.config import (
    CYCLES_PER_MEMORY_CYCLE,
    CacheConfig,
    CoreConfig,
    HybridMemoryConfig,
    MemPodConfig,
    MemoryTimingConfig,
    PageSeerConfig,
    PomConfig,
    SystemConfig,
    TlbConfig,
    default_system_config,
    dram_timing_table1,
    nvm_timing_table1,
)
from repro.common.errors import ConfigError


class TestTable1Values:
    """The defaults must match the paper's Table I."""

    def test_dram_timing(self):
        dram = dram_timing_table1()
        assert (dram.t_cas, dram.t_rcd, dram.t_ras) == (11, 11, 28)
        assert (dram.t_rp, dram.t_wr) == (11, 12)
        assert dram.channels == 4
        assert dram.ranks_per_channel == 1
        assert dram.banks_per_rank == 8
        assert dram.capacity_bytes == 512 * 1024 * 1024

    def test_nvm_timing(self):
        nvm = nvm_timing_table1()
        assert (nvm.t_cas, nvm.t_rcd, nvm.t_ras) == (11, 58, 80)
        assert (nvm.t_rp, nvm.t_wr) == (11, 180)
        assert nvm.channels == 2
        assert nvm.ranks_per_channel == 2
        assert nvm.capacity_bytes == 4 * 1024 * 1024 * 1024

    def test_cache_hierarchy(self):
        config = SystemConfig()
        assert config.l1.size_bytes == 32 * 1024 and config.l1.ways == 8
        assert config.l2.size_bytes == 256 * 1024 and config.l2.ways == 8
        assert config.l3.size_bytes == 8 * 1024 * 1024 and config.l3.ways == 16

    def test_tlbs(self):
        config = SystemConfig()
        assert config.l1_tlb.entries == 64
        assert config.l2_tlb.entries == 1024

    def test_clock_ratio(self):
        assert CYCLES_PER_MEMORY_CYCLE == 2


class TestTable2Values:
    """PageSeer parameters must match Table II."""

    def test_thresholds(self):
        ps = PageSeerConfig()
        assert ps.pct_prefetch_threshold == 14
        assert ps.hpt_swap_threshold == 6

    def test_counter_width(self):
        ps = PageSeerConfig()
        assert ps.counter_bits == 6
        assert ps.counter_max == 63

    def test_hint_latency(self):
        assert PageSeerConfig().mmu_hint_latency_cycles == 2

    def test_decay_interval_is_50k_at_1ghz(self):
        assert PageSeerConfig().hpt_decay_interval_cycles == 100_000

    def test_prt_ways(self):
        assert PageSeerConfig().prt_ways == 4

    def test_mmu_driver_lines(self):
        assert PageSeerConfig().mmu_driver_pte_lines == 16

    def test_structure_budgets(self):
        ps = PageSeerConfig()
        # 32 KB at 3.5 B/entry and 10.5 B/entry (Table II).
        assert ps.prtc_entries * 3.5 <= 33 * 1024
        assert ps.pctc_entries * 10.5 <= 33 * 1024
        assert ps.hpt_entries * 5.25 <= 6 * 1024
        assert ps.filter_entries * 17.25 <= 2.5 * 1024


class TestValidation:
    def test_cache_size_divisibility(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 1000, 3, 1)

    def test_tlb_ways_divide_entries(self):
        with pytest.raises(ConfigError):
            TlbConfig("bad", 10, 3, 1)

    def test_core_positive(self):
        with pytest.raises(ConfigError):
            CoreConfig(base_cpi=0)

    def test_memory_capacity_positive(self):
        with pytest.raises(ConfigError):
            MemoryTimingConfig("bad", 0, 1, 1, 1, 1, 1, 1, 1, 1)

    def test_row_power_of_two(self):
        with pytest.raises(ConfigError):
            MemoryTimingConfig("bad", 4096, 1, 1, 1, 1, 1, 1, 1, 1, row_bytes=300)

    def test_system_needs_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(cores=0)

    def test_scale_positive(self):
        with pytest.raises(ConfigError):
            SystemConfig().scaled(0)


class TestScaling:
    def test_memory_scales_fully(self):
        config = SystemConfig().scaled(64)
        assert config.memory.dram.capacity_bytes == 8 * 1024 * 1024
        assert config.memory.nvm.capacity_bytes == 64 * 1024 * 1024

    def test_ratio_preserved(self):
        config = SystemConfig().scaled(64)
        assert (
            config.memory.nvm.capacity_bytes / config.memory.dram.capacity_bytes
            == 8.0
        )

    def test_timing_unchanged(self):
        config = SystemConfig().scaled(64)
        assert config.memory.nvm.t_rcd == 58
        assert config.memory.nvm.t_wr == 180

    def test_thresholds_unchanged(self):
        config = SystemConfig().scaled(256)
        assert config.pageseer.pct_prefetch_threshold == 14
        assert config.pageseer.hpt_swap_threshold == 6

    def test_tables_shrink(self):
        base = SystemConfig()
        scaled = base.scaled(64)
        assert scaled.pageseer.prtc_entries < base.pageseer.prtc_entries
        assert scaled.pom.src_entries < base.pom.src_entries
        assert scaled.mempod.remap_cache_entries < base.mempod.remap_cache_entries

    def test_caches_keep_valid_geometry(self):
        for scale in (16, 64, 256, 512, 1024):
            config = SystemConfig().scaled(scale)
            for cache in (config.l1, config.l2, config.l3):
                assert cache.num_sets >= 1

    def test_tlb_keeps_valid_geometry(self):
        for scale in (16, 256, 1024):
            config = SystemConfig().scaled(scale)
            assert config.l1_tlb.entries % config.l1_tlb.ways == 0
            assert config.l2_tlb.entries % config.l2_tlb.ways == 0

    def test_default_system_config_applies_scale(self):
        config = default_system_config(scale=128, cores=6)
        assert config.cores == 6
        assert config.memory.dram.capacity_bytes == 4 * 1024 * 1024

    def test_with_cores(self):
        assert SystemConfig().with_cores(12).cores == 12


class TestHybridMemory:
    def test_page_ranges(self):
        memory = HybridMemoryConfig(
            dram=dram_timing_table1(4 * 1024 * 1024),
            nvm=nvm_timing_table1(32 * 1024 * 1024),
        )
        assert memory.dram_pages == 1024
        assert memory.nvm_pages == 8192
        assert memory.total_pages == 9216
        assert memory.is_dram_page(0)
        assert memory.is_dram_page(1023)
        assert memory.is_nvm_page(1024)
        assert memory.is_nvm_page(9215)
        assert not memory.is_nvm_page(9216)

    def test_latency_formulas(self):
        dram = dram_timing_table1()
        hit = dram.read_latency_cycles(row_hit=True, row_conflict=False)
        miss = dram.read_latency_cycles(row_hit=False, row_conflict=False)
        conflict = dram.read_latency_cycles(row_hit=False, row_conflict=True)
        assert hit == 11 * 2
        assert miss == (11 + 11) * 2
        assert conflict == (11 + 11 + 11) * 2

    def test_line_transfer_cycles(self):
        assert dram_timing_table1().line_transfer_cycles == 4 * 2


class TestBaselineConfigs:
    def test_pom_defaults(self):
        pom = PomConfig()
        assert pom.segment_bytes == 2048
        assert pom.swap_threshold == 12

    def test_mempod_defaults(self):
        mp = MemPodConfig()
        assert mp.mea_counters == 64
        assert mp.interval_cycles == 100_000
        assert mp.segment_bytes == 2048
