"""The hardware page walker and its page-walk caches (Section II-C).

A walk steps through the PGD/PUD/PMD/PTE entries of the owning process's
page table.  Upper-level entries can hit in the per-core page-walk cache
(PWC); every entry that has to be fetched first probes the data caches
(L2/L3 — never L1) and, on an LLC miss, goes to main memory.

PageSeer's hook lives here: the instant the walk knows the physical line
holding the needed PTE — i.e. when it *reaches the fourth level* — the MMU
fires a signal to the Hybrid Memory Controller (Section III-B).  The signal
fires on every walk, before the PTE's own cache lookup, exactly as in the
paper.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro.common.addr import LEVEL_BITS, WALK_LEVELS, line_of
from repro.common.stats import StatsRegistry
from repro.cache.hierarchy import CacheHierarchy
from repro.vm.page_table import PageTable

#: PWC-covered levels: PGD, PUD, PMD entry contents (never the PTE).
_PWC_LEVELS = WALK_LEVELS - 1

#: Literal stats-key table per PWC hit level (auditable by the RL101 rule).
_PWC_HIT_KEYS = (
    "walk/pwc_hits_level0",
    "walk/pwc_hits_level1",
    "walk/pwc_hits_level2",
)


class WalkResult:
    """Outcome of one page walk (a ``__slots__`` class; built per walk)."""

    __slots__ = (
        "ppn",
        "finish",
        "latency",
        "pte_line_spa",
        "levels_fetched",
        "pte_reached_memory",
    )

    def __init__(
        self,
        ppn: int,
        finish: int,
        latency: int,
        pte_line_spa: int,
        levels_fetched: int,
        pte_reached_memory: bool,
    ):
        self.ppn = ppn
        self.finish = finish
        self.latency = latency
        self.pte_line_spa = pte_line_spa
        #: Levels actually fetched through the cache hierarchy (1..4).
        self.levels_fetched = levels_fetched
        #: True if the PTE fetch missed in L2 and L3 and reached the HMC.
        self.pte_reached_memory = pte_reached_memory

    def __repr__(self) -> str:
        return (
            f"WalkResult(ppn={self.ppn}, finish={self.finish}, "
            f"latency={self.latency}, pte_line_spa={self.pte_line_spa}, "
            f"levels_fetched={self.levels_fetched}, "
            f"pte_reached_memory={self.pte_reached_memory})"
        )


class PageWalkCache:
    """Per-core translation caches for the three upper levels.

    Level ``i`` (0=PGD, 1=PUD, 2=PMD) caches the *content* of that level's
    entry, keyed by the VPN prefix the entry covers.  A hit at level ``i``
    means the walk can start fetching at level ``i + 1``.
    """

    def __init__(self, entries_per_level: int):
        self.entries_per_level = entries_per_level
        self._levels: List["OrderedDict[Tuple[int, int], None]"] = [
            OrderedDict() for _ in range(_PWC_LEVELS)
        ]

    @staticmethod
    def _prefix(vpn: int, level: int) -> int:
        """VPN prefix covered by a level-*level* entry.

        A PGD entry (level 0) covers a 512 GB region (``vpn >> 27``), a PUD
        entry 1 GB (``vpn >> 18``), a PMD entry 2 MB (``vpn >> 9``).
        """
        return vpn >> (LEVEL_BITS * (WALK_LEVELS - 1 - level))

    def deepest_hit(self, pid: int, vpn: int) -> int:
        """Return the deepest cached level (or -1), updating LRU on the hit."""
        for level in range(_PWC_LEVELS - 1, -1, -1):
            key = (pid, self._prefix(vpn, level))
            entries = self._levels[level]
            if key in entries:
                entries.move_to_end(key)
                return level
        return -1

    def fill(self, pid: int, vpn: int, level: int) -> None:
        """Cache the level-*level* entry covering *vpn*."""
        entries = self._levels[level]
        key = (pid, self._prefix(vpn, level))
        if key not in entries and len(entries) >= self.entries_per_level:
            entries.popitem(last=False)
        entries[key] = None
        entries.move_to_end(key)

    def flush(self) -> None:
        for entries in self._levels:
            entries.clear()


class PageWalker:
    """One core's page walker.

    Parameters
    ----------
    core_id:
        Which core's private caches the walker uses.
    hierarchy:
        The data-cache hierarchy (walk entries are cacheable in L2/L3).
    memory_fetch:
        ``(now, line_spa, is_write, is_pte, target_ppn, pid) -> finish`` — sends
        an LLC miss for a page-table line (or a dirty write-back displaced
        by one) to the memory controller.  ``target_ppn`` carries the
        translation result for PTE fetches (the controller would read it
        out of the returned line; passing it avoids simulating memory
        contents).
    mmu_hint:
        Optional ``(now, pte_line_spa, pid, vpn, target_ppn)`` — PageSeer's
        MMU-to-HMC signal; None for baseline systems.
    """

    def __init__(
        self,
        core_id: int,
        hierarchy: CacheHierarchy,
        pwc: PageWalkCache,
        pwc_latency_cycles: int,
        stats: StatsRegistry,
        memory_fetch: Callable[[int, int, bool, bool, Optional[int], int], int],
        mmu_hint: Optional[Callable[[int, int, int, int, int], None]] = None,
    ):
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.pwc = pwc
        self.pwc_latency_cycles = pwc_latency_cycles
        self.stats = stats
        self._memory_fetch = memory_fetch
        self._mmu_hint = mmu_hint
        # Hot-path stats handles, resolved once per walker.
        self._count_pwc_hits = tuple(
            stats.counter(_PWC_HIT_KEYS[level]) for level in range(_PWC_LEVELS)
        )
        self._count_walks = stats.counter("walk/walks")
        self._count_pte_requests = stats.counter("walk/pte_requests")
        self._count_pte_llc_misses = stats.counter("walk/pte_llc_misses")
        self._observe_latency = stats.observer("walk/latency")

    # repro-hot
    def walk(self, now: int, page_table: PageTable, vpn: int) -> WalkResult:
        """Perform a full walk for a *mapped* VPN; returns timing and PPN."""
        pid = page_table.pid
        entry_addresses = page_table.entry_addresses(vpn)
        target_ppn = page_table.translate(vpn)
        assert target_ppn is not None, "walk requires a mapped VPN"
        pte_line_spa = line_of(entry_addresses[WALK_LEVELS - 1])

        time = now + self.pwc_latency_cycles
        start_level = self.pwc.deepest_hit(pid, vpn) + 1
        if start_level > 0:
            self._count_pwc_hits[start_level - 1]()

        pte_reached_memory = False
        levels_fetched = 0
        for level in range(start_level, WALK_LEVELS):
            is_pte = level == WALK_LEVELS - 1
            if is_pte and self._mmu_hint is not None:
                # The fourth level's line address is now known: signal the HMC
                # before the cache lookup for the PTE (Section III-B).
                self._mmu_hint(time, pte_line_spa, pid, vpn, target_ppn)
            line = line_of(entry_addresses[level])
            outcome = self.hierarchy.access(
                self.core_id, line, is_write=False, cacheable_l1=False
            )
            time += outcome.latency_cycles
            if outcome.llc_miss:
                if is_pte:
                    pte_reached_memory = True
                    self._count_pte_llc_misses()
                time = self._memory_fetch(
                    time, line, False, is_pte, target_ppn if is_pte else None, pid
                )
            for dirty_line in outcome.writebacks:
                self._memory_fetch(time, dirty_line, True, False, None, pid)
            levels_fetched += 1
            if not is_pte:
                self.pwc.fill(pid, vpn, level)

        self._count_walks()
        self._count_pte_requests()
        self._observe_latency(time - now)
        return WalkResult(
            ppn=target_ppn,
            finish=time,
            latency=time - now,
            pte_line_spa=pte_line_spa,
            levels_fetched=levels_fetched,
            pte_reached_memory=pte_reached_memory,
        )
