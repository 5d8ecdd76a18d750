"""DRAM device timing model (per NDP unit).

A first-order bank/row model in the spirit of Ramulator's role in the paper's
simulator: each unit's memory has ``channels x banks_per_channel`` banks, each
with an open-row register and a ``next_free`` reservation time.  An access:

1. waits for its bank to be free (bank-level queueing),
2. pays CAS on a row hit, ACT+CAS on a miss of a closed row, or
   tRAS-residual + ACT + CAS on a row conflict,
3. writes additionally hold the bank for the write-recovery time.

Latencies come from :class:`repro.sim.config.DramTiming` (Table 5 values for
HBM / HMC / DDR4).
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.config import DramTiming
from repro.sim.clock import core_cycles_from_ns
from repro.sim.stats import SystemStats


class DramDevice:
    """The memory of a single NDP unit."""

    __slots__ = ("timing", "stats", "unit_id", "num_banks", "_open_row",
                 "_next_free", "_wr_cycles", "_row_bytes", "_hit_cycles",
                 "_miss_cycles", "_conflict_cycles")

    def __init__(self, timing: DramTiming, stats: SystemStats, unit_id: int = 0):
        self.timing = timing
        self.stats = stats
        self.unit_id = unit_id
        self.num_banks = timing.channels * timing.banks_per_channel
        self._open_row: List[Optional[int]] = [None] * self.num_banks
        self._next_free: List[int] = [0] * self.num_banks
        self._wr_cycles = core_cycles_from_ns(timing.write_recovery_ns)
        # The row_*_cycles properties convert ns -> cycles with float math on
        # every call; an access pays one of them, so resolve all three once.
        self._row_bytes = timing.row_size_bytes
        self._hit_cycles = timing.row_hit_cycles
        self._miss_cycles = timing.row_miss_cycles
        self._conflict_cycles = timing.row_conflict_cycles

    # ------------------------------------------------------------------
    def bank_of(self, addr: int) -> int:
        """Index of the bank ``addr`` maps to (the interleaving of
        :meth:`access`)."""
        return addr // self._row_bytes % self.num_banks

    def access(self, addr: int, is_write: bool, now: int) -> int:
        """Perform an access at time ``now``; returns total latency in cycles.

        The bank is reserved until the access (plus write recovery) finishes,
        so concurrent requests to the same bank queue up naturally.
        """
        # Address interleaving: consecutive rows stripe across banks.
        row_global = addr // self._row_bytes
        bank = row_global % self.num_banks
        row = row_global // self.num_banks
        open_rows = self._open_row
        start = self._next_free[bank]
        if now > start:
            start = now
        queue_delay = start - now

        open_row = open_rows[bank]
        if open_row == row:
            service = self._hit_cycles
            self.stats.dram_row_hits += 1
        elif open_row is None:
            service = self._miss_cycles
        else:
            service = self._conflict_cycles
        open_rows[bank] = row

        hold = service + (self._wr_cycles if is_write else 0)
        self._next_free[bank] = start + hold

        if is_write:
            self.stats.dram_writes += 1
        else:
            self.stats.dram_reads += 1
        return queue_delay + service
