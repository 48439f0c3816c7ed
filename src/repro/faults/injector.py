"""The fault injector: seed-driven decisions about what breaks, and when.

The injector sits inside the two :class:`repro.mem.device.MemoryDevice`
instances and is consulted once per access / per bulk transfer.  It raises
:class:`repro.common.errors.TransientFaultError` or
:class:`repro.common.errors.UnrecoverableFaultError` at the fault site; the
recovery layers above (``repro.faults.recovery``, the Swap Driver) decide
what happens next.

Determinism: each fault family draws from its own named
:class:`DeterministicRng` stream, so the schedule depends only on
``fault_seed`` and the access sequence — never on wall time, hashing order,
or the simulation seed.  Because the simulator itself is deterministic,
re-running the same configuration injects the identical faults and produces
identical stats.

Addressing note: devices work in *device-local* line numbers (the NVM
device sees lines ``[0, nvm_lines)``), so the injector's bad-page set is in
NVM-local page space.  The recovery layer converts back to system physical
addresses when it quarantines.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import FaultConfig
from repro.common.errors import TransientFaultError, UnrecoverableFaultError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry
from repro.common.timeline import Cycles

#: Literal per-device stats-key tables (auditable by the RL101 lint rule).
_TRANSIENT_KEYS = {
    "dram": "faults/transient_dram",
    "nvm": "faults/transient_nvm",
}
_TRANSFER_KEYS = {
    "dram": "faults/transfer_dram",
    "nvm": "faults/transfer_nvm",
}


class FaultInjector:
    """Decides, deterministically, which accesses and transfers fault."""

    def __init__(self, config: FaultConfig, stats: StatsRegistry):
        self.config = config
        self.stats = stats
        #: Rescue/scrub operations run with injection suppressed (modelling
        #: the controller's firmware-level ECC rebuild path).
        self._suppress_depth = 0
        #: NVM-local pages that have gone bad -> cycle of first failure.
        #: Uncorrectable errors are sticky: once a page fails, every later
        #: unsuppressed read of it fails too.
        self._bad_pages: Dict[int, Cycles] = {}
        self._access_rng = {
            "dram": DeterministicRng("fault/access/dram", config.fault_seed),
            "nvm": DeterministicRng("fault/access/nvm", config.fault_seed),
        }
        self._transfer_rng = {
            "dram": DeterministicRng("fault/transfer/dram", config.fault_seed),
            "nvm": DeterministicRng("fault/transfer/nvm", config.fault_seed),
        }
        self._uncorrectable_rng = DeterministicRng(
            "fault/uncorrectable", config.fault_seed
        )

    # -- suppression ---------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._suppress_depth == 0

    @contextmanager
    def suppressed(self) -> Iterator[None]:
        """Run a block with no injection (recovery's own transfers)."""
        self._suppress_depth += 1
        try:
            yield
        finally:
            self._suppress_depth -= 1

    # -- bad-page bookkeeping ------------------------------------------------
    def mark_bad(self, local_page: int, cycle: Cycles = 0) -> None:
        """Force an NVM-local page bad (recovery tests use this directly)."""
        if local_page not in self._bad_pages:
            self._bad_pages[local_page] = cycle
            self.stats.add("faults/bad_pages")

    def is_bad_page(self, local_page: int) -> bool:
        return local_page in self._bad_pages

    @property
    def bad_pages(self) -> list:
        return sorted(self._bad_pages)

    # -- injection decision points ------------------------------------------
    def check_access(
        self, device: str, now: Cycles, line_number: int, is_write: bool
    ) -> None:
        """Called by the device once per line access; raises on a fault."""
        if self._suppress_depth:
            return
        if device == "nvm" and not is_write:
            page = line_number // LINES_PER_PAGE
            if page in self._bad_pages:
                self.stats.add("faults/uncorrectable_reads")
                raise UnrecoverableFaultError(
                    "NVM uncorrectable read",
                    device=device,
                    line=line_number,
                    cycle=now,
                )
            rate = self.config.nvm_uncorrectable_rate
            if rate > 0.0 and self._uncorrectable_rng.random() < rate:
                self.mark_bad(page, now)
                self.stats.add("faults/uncorrectable_reads")
                raise UnrecoverableFaultError(
                    "NVM uncorrectable read",
                    device=device,
                    line=line_number,
                    cycle=now,
                )
        rate = self.config.transient_rate
        if rate > 0.0 and self._access_rng[device].random() < rate:
            self.stats.add(_TRANSIENT_KEYS[device])
            raise TransientFaultError(
                "transient device fault",
                device=device,
                line=line_number,
                cycle=now,
            )

    def check_transfer(
        self,
        device: str,
        now: Cycles,
        first_line: int,
        line_count: int,
        is_write: bool,
    ) -> Optional[int]:
        """Called by the device once per bulk transfer.

        Raises :class:`UnrecoverableFaultError` when a bulk *read* covers a
        known-bad NVM page (the swap machinery cannot move data it cannot
        read).  Otherwise draws the mid-transfer failure: returns the number
        of lines the device will manage to move before dying, or None for a
        clean transfer.  The device raises the
        :class:`TransientFaultError` itself once that budget is consumed,
        so the partial work still occupies banks and buses.
        """
        if self._suppress_depth:
            return None
        if device == "nvm" and not is_write:
            first_page = first_line // LINES_PER_PAGE
            last_page = (first_line + line_count - 1) // LINES_PER_PAGE
            for page in range(first_page, last_page + 1):
                if page in self._bad_pages:
                    self.stats.add("faults/uncorrectable_reads")
                    raise UnrecoverableFaultError(
                        "bulk read covers an uncorrectable NVM page",
                        device=device,
                        line=page * LINES_PER_PAGE,
                        cycle=now,
                    )
        rate = self.config.transfer_fault_rate
        if rate > 0.0:
            rng = self._transfer_rng[device]
            if rng.random() < rate:
                self.stats.add(_TRANSFER_KEYS[device])
                return int(line_count * rng.random())
        return None
