"""Memory-system facade: L1 -> local crossbar -> (link ->) DRAM.

Resolves the full latency of a core's load/store following the paper's
baseline architecture (Sec. 2.1):

- cacheable data (thread-private / shared read-only) goes through the
  core's private L1; misses fetch a 64 B line from the home unit's DRAM;
- shared read-write data is **uncacheable** and always performs a word-sized
  access at the home unit's DRAM;
- accesses to another unit's memory additionally cross the inter-unit link
  in both directions (the non-uniformity that motivates SynCron).

Dirty-victim writebacks are accounted for in traffic/energy but overlap with
execution (they do not add to the requesting core's latency), matching the
usual write-back buffer assumption.
"""

from __future__ import annotations

from repro.sim.cache import L1Cache
from repro.sim.config import SystemConfig
from repro.sim.dram import DramDevice
from repro.sim.memmap import AddressMap
from repro.sim.network import Interconnect
from repro.sim.stats import SystemStats

#: bytes of a request header / word-grain payload message.
REQUEST_BYTES = 16


class MemorySystem:
    """Timing oracle for all data accesses in the system.

    :meth:`access` is the per-access path of every core load and store.  It
    resolves the two common cases in its own frame: an L1 hit (the LRU
    move, the dirty bit and the hit counter of :meth:`L1Cache.access
    <repro.sim.cache.L1Cache.access>`'s hit branch) and an uncacheable
    request -> home DRAM -> response exchange (the home unit computed
    inline, each packet one :meth:`Interconnect.transfer_latency
    <repro.sim.network.Interconnect.transfer_latency>` call, the DRAM step
    one :meth:`DramDevice.access <repro.sim.dram.DramDevice.access>` call).
    Only an L1 miss goes through ``L1Cache.access`` and :meth:`_line_fill`.
    :func:`repro.testing.per_access_reference` composes the same access
    from those building blocks and ``tests/test_access_path.py`` checks the
    two against each other.
    """

    __slots__ = ("config", "stats", "interconnect", "drams", "addrmap",
                 "_line_bytes", "_unit_bytes", "_num_units")

    def __init__(
        self,
        config: SystemConfig,
        stats: SystemStats,
        interconnect: Interconnect,
        drams: list,
        addrmap: AddressMap,
    ):
        self.config = config
        self.stats = stats
        self.interconnect = interconnect
        self.drams = drams
        self.addrmap = addrmap
        self._line_bytes = config.cache_line_bytes
        # AddressMap.unit_of's geometry, for the inline home lookup.
        self._unit_bytes = addrmap.unit_memory_bytes
        self._num_units = addrmap.num_units

    # ------------------------------------------------------------------
    def access(
        self,
        src_unit: int,
        l1: L1Cache,
        addr: int,
        is_write: bool,
        cacheable: bool,
        now: int,
        size: int = 8,
        for_sync: bool = False,
    ) -> int:
        """Full latency in cycles of one core access issued at ``now``."""
        if for_sync:
            self.stats.sync_memory_accesses += 1
        if cacheable and l1 is not None:
            # L1 hit: L1Cache.access's hit branch, inline.
            line = addr // l1.line_bytes
            cset = l1._sets.get(line % l1.num_sets)
            if cset is not None and line in cset:
                cset.move_to_end(line)
                if is_write:
                    cset[line] = True
                l1.stats.cache_hits += 1
                return l1.hit_cycles
            result = l1.access(addr, is_write)
            latency = l1.hit_cycles  # tag check before the miss goes out
            latency += self._line_fill(src_unit, addr, now + latency)
            if result.writeback_line is not None:
                self._background_writeback(src_unit, result.writeback_line, now)
            return latency
        # Uncacheable: a word-grain request to the home DRAM and back.
        home = addr // self._unit_bytes
        if not 0 <= home < self._num_units:
            raise ValueError(f"address {addr:#x} outside the memory map")
        payload = size if size > 8 else 8
        if is_write:
            request, response = REQUEST_BYTES + payload, REQUEST_BYTES
        else:
            request, response = REQUEST_BYTES, REQUEST_BYTES + payload
        transfer = self.interconnect.transfer_latency
        latency = transfer(src_unit, home, now, request)
        latency += self.drams[home].access(addr, is_write, now + latency)
        latency += transfer(home, src_unit, now + latency, response)
        return latency

    # ------------------------------------------------------------------
    def _line_fill(self, src_unit: int, addr: int, now: int) -> int:
        """Request to home DRAM and 64 B line back."""
        interconnect = self.interconnect
        home = self.addrmap.unit_of(addr)
        latency = interconnect.transfer_latency(src_unit, home, now, REQUEST_BYTES)
        latency += self.drams[home].access(addr, is_write=False, now=now + latency)
        latency += interconnect.transfer_latency(
            home, src_unit, now + latency, self._line_bytes
        )
        return latency

    def _background_writeback(self, src_unit: int, victim_line: int, now: int) -> None:
        """Account a dirty eviction's traffic and DRAM write, off the
        critical path."""
        addr = victim_line * self._line_bytes
        home = self.addrmap.unit_of(addr)
        self.interconnect.transfer_latency(src_unit, home, now, self._line_bytes)
        self.drams[home].access(addr, is_write=True, now=now)

    def uncacheable_burst(self, src_unit: int, addr: int, now: int,
                          stores: int = 0, loads: int = 0, size: int = 8,
                          for_sync: bool = False) -> int:
        """Cycles of ``stores`` then ``loads`` back-to-back uncacheable
        accesses to ``addr``, issued from ``src_unit`` starting at ``now``.

        Each access issues when its predecessor completes (at least one
        cycle later), the way an in-order core walks a scan.  Timing, DRAM
        state and every counter are bit-identical to that many
        :meth:`access` calls; the home unit and packet sizes are resolved
        once per burst, and each of the (at most two) runs is one
        :meth:`Interconnect.round_trips
        <repro.sim.network.Interconnect.round_trips>` call that resolves its
        packets and DRAM row hits inline.  On a pristine fabric that call
        reads the pair's burst plan (limits, routes, per-link serialization
        and latency, and one exchange's traffic, built on the pair's first
        burst) and books the run's traffic once from it.  Within a run,
        each exchange's relative fabric state is one flat tuple; once an
        exchange waited at no crossbar, ended in the state it started in
        and left every crossbar load estimate safely below the zero-wait
        limits, no later exchange can wait, and ``round_trips``
        fast-forwards the rest of the run in one loop of crossbar
        load-estimate updates (still bit-identical; the argument is in its
        docstring).  A bakery scan gets there within a few accesses.
        """
        count = stores + loads
        if for_sync:
            self.stats.sync_memory_accesses += count
        home = self.addrmap.unit_of(addr)
        dram = self.drams[home]
        payload = size if size > 8 else 8
        round_trips = self.interconnect.round_trips
        cycles = 0
        if stores:
            cycles = round_trips(src_unit, home, now, stores,
                                 REQUEST_BYTES + payload, REQUEST_BYTES,
                                 dram, addr, True)
        if loads:
            cycles += round_trips(src_unit, home, now + cycles, loads,
                                  REQUEST_BYTES, REQUEST_BYTES + payload,
                                  dram, addr, False)
        return cycles

    # ------------------------------------------------------------------
    def device_access(self, unit: int, addr: int, is_write: bool, now: int,
                      for_sync: bool = False) -> int:
        """An access issued by a device in the memory's own unit (e.g. the
        Master SE reading a ``syncronVar`` from its local memory arrays)."""
        if for_sync:
            self.stats.sync_memory_accesses += 1
        home = self.addrmap.unit_of(addr)
        if home != unit:
            raise ValueError("device_access must target the device's own unit")
        latency = self.interconnect.transfer_latency(unit, unit, now, REQUEST_BYTES)
        latency += self.drams[home].access(addr, is_write=is_write, now=now + latency)
        return latency
