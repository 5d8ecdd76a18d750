"""System-wide statistics counters.

A single :class:`SystemStats` instance is shared by every component of a
simulated system.  Components only *increment* counters; the harness reads
them to build the paper's energy (Fig. 14), data-movement (Fig. 15) and
occupancy (Table 7, Fig. 19/22) results.

Counters are plain attributes on a slotted dataclass: the hot paths
(interconnect, DRAM, caches, SEs) bump them millions of times per run, and an
attribute store on a slotted instance is the cheapest mutation Python offers.
Per-SE occupancy accounting uses flat lists indexed by SE id, fed once per
ST allocate/release with the messages served since the previous change
rather than once per message.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

#: Declared inventory of ``SystemStats.extra`` counter keys.  ``extra`` is a
#: Counter, so a typo'd key at a bump site silently creates a parallel
#: counter that every report reads as zero; the RP006 lint rule requires
#: each ``stats.extra[...]`` store to use a string literal from this set.
EXTRA_COUNTERS: FrozenSet[str] = frozenset({
    #: doorway scans of the bakery lock baseline.
    "bakery_scans",
    #: failed lock/CAS attempts retried by spinning baselines.
    "spin_retries",
    #: shared-LLC accesses made on behalf of synchronization.
    "llc_sync_accesses",
})


@dataclass(slots=True)
class SystemStats:
    """Mutable counters, all starting at zero."""

    # Cache events (all private L1s).
    cache_hits: int = 0
    cache_misses: int = 0

    # Memory events.
    dram_reads: int = 0
    dram_writes: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    #: reads/writes issued purely for synchronization (sync variables,
    #: syncronVar overflow structures, server-core waitlist bookkeeping).
    sync_memory_accesses: int = 0

    # Traffic in bytes (the Fig. 15 metric).
    bytes_inside_units: int = 0
    #: payload bytes injected into the inter-unit fabric — counted once per
    #: remote transfer regardless of how many physical links the route
    #: crosses, so the metric is conserved across topologies.
    bytes_across_units: int = 0
    #: bit-hops over local crossbars (for local-network energy).
    local_bit_hops: int = 0
    #: bits x physical inter-unit links traversed (for link energy).  On the
    #: all-to-all fabric every route is one link, so this equals
    #: ``bytes_across_units * 8``; routed fabrics charge every hop.
    link_bit_hops: int = 0

    # Degraded-fabric accounting (all zero on a healthy fabric).
    #: route resolutions that found the pristine path severed by a fault
    #: and switched to a surviving detour (once per pair per fault epoch).
    reroutes: int = 0
    #: cycles x links of downtime: every failed link's unavailable time,
    #: charged at the end of the run.
    failed_link_cycles: int = 0
    #: the share of ``link_bit_hops`` that exists only because transfers
    #: detoured around faults (bits x extra links vs. the pristine route).
    detour_bit_hops: int = 0

    # Message counts.
    sync_messages_local: int = 0
    sync_messages_global: int = 0
    sync_messages_overflow: int = 0

    # SE bookkeeping.
    st_allocations: int = 0
    st_releases: int = 0
    st_overflow_requests: int = 0
    sync_requests_total: int = 0

    # Per-category extras (extensible without schema churn).
    extra: Counter = field(default_factory=Counter)

    # Occupancy integrals, indexed by SE id: running max, sum over sampling
    # points (one per served message) of occupied entries, and sample
    # counts.  See record_st_occupancy for when they are folded in.
    _occ_max: List[int] = field(default_factory=list)
    _occ_sum: List[int] = field(default_factory=list)
    _occ_samples: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    def record_st_occupancy(self, se_id: int, occupied: int,
                            samples: int = 1) -> None:
        """Book ``samples`` occupancy samples of SE ``se_id``'s table, all
        taken at ``occupied`` entries.

        The SE samples its table once per message it serves; since
        occupancy only moves on an allocate or a release, each
        :class:`~repro.core.sync_table.SynchronizationTable` folds the
        messages served between two changes into one call here (and the
        tail when ``NDPSystem.run_programs`` returns), so the integrals
        read mid-run may lag by the samples not yet folded.
        """
        maxes = self._occ_max
        if se_id >= len(maxes):
            grow = se_id + 1 - len(maxes)
            maxes.extend([0] * grow)
            self._occ_sum.extend([0] * grow)
            self._occ_samples.extend([0] * grow)
        if occupied > maxes[se_id]:
            maxes[se_id] = occupied
        self._occ_sum[se_id] += occupied * samples
        self._occ_samples[se_id] += samples

    @property
    def st_occupancy_max(self) -> Dict[int, int]:
        """Max occupancy per SE id (dict view; only SEs that peaked above 0)."""
        return {se_id: occ for se_id, occ in enumerate(self._occ_max) if occ > 0}

    def st_occupancy_avg(self, se_id: int) -> float:
        if se_id >= len(self._occ_samples):
            return 0.0
        samples = self._occ_samples[se_id]
        if samples == 0:
            return 0.0
        return self._occ_sum[se_id] / samples

    def st_occupancy_summary(self, st_entries: int) -> Dict[str, float]:
        """Max/avg occupancy as percentages across all SEs (Table 7 rows)."""
        total_samples = sum(self._occ_samples)
        if total_samples == 0:
            return {"max_pct": 0.0, "avg_pct": 0.0}
        max_occ = max(self._occ_max, default=0)
        total_sum = sum(self._occ_sum)
        return {
            "max_pct": 100.0 * max_occ / st_entries,
            "avg_pct": 100.0 * (total_sum / total_samples) / st_entries,
        }

    # ------------------------------------------------------------------
    @property
    def overflow_request_pct(self) -> float:
        """Percentage of sync requests serviced via main memory (Fig. 22/23)."""
        if self.sync_requests_total == 0:
            return 0.0
        return 100.0 * self.st_overflow_requests / self.sync_requests_total

    @property
    def total_bytes(self) -> int:
        return self.bytes_inside_units + self.bytes_across_units

    def as_dict(self) -> Dict[str, float]:
        """Flat snapshot for reporting."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "dram_row_hits": self.dram_row_hits,
            "dram_row_misses": self.dram_row_misses,
            "sync_memory_accesses": self.sync_memory_accesses,
            "bytes_inside_units": self.bytes_inside_units,
            "bytes_across_units": self.bytes_across_units,
            "link_bit_hops": self.link_bit_hops,
            "reroutes": self.reroutes,
            "failed_link_cycles": self.failed_link_cycles,
            "detour_bit_hops": self.detour_bit_hops,
            "sync_messages_local": self.sync_messages_local,
            "sync_messages_global": self.sync_messages_global,
            "sync_messages_overflow": self.sync_messages_overflow,
            "st_overflow_requests": self.st_overflow_requests,
            "sync_requests_total": self.sync_requests_total,
        }


def charge_transfers(stats: SystemStats, nbytes: int, count: int,
                     local: bool, local_hops: int, link_hops: int) -> None:
    """Traffic counters of ``count`` transfers of ``nbytes`` each.

    Mirrors what one :meth:`~repro.sim.network.Interconnect.transfer_latency`
    call charges — source crossbar (+ fabric links + destination crossbar
    when remote) — without touching any reservation/queueing state.  Two
    callers: :meth:`~repro.sim.network.Interconnect.round_trips` charges a
    whole burst at once after timing it (every packet, or a fast-forwarded
    run of repeats at a time), and elided spin polls
    account their traffic and energy analytically without contending for
    banks, links, or crossbar slots (see the wait-channel model notes in
    EXPERIMENTS.md).
    """
    payload = nbytes * count
    if local:
        stats.bytes_inside_units += payload
        stats.local_bit_hops += payload * 8 * local_hops
    else:
        # Both endpoint crossbars see the packet; links carry it once.
        stats.bytes_inside_units += 2 * payload
        stats.local_bit_hops += 2 * payload * 8 * local_hops
        stats.bytes_across_units += payload
        stats.link_bit_hops += payload * 8 * link_hops
