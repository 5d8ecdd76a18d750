"""System-wide statistics counters.

A single :class:`SystemStats` instance is shared by every component of a
simulated system.  Components only *increment* counters; the harness reads
them to build the paper's energy (Fig. 14), data-movement (Fig. 15) and
occupancy (Table 7, Fig. 19/22) results.

Counters are plain attributes on a slotted class: the hot paths
(interconnect, DRAM, caches, SEs) bump them millions of times per run, and an
attribute store on a slotted instance is the cheapest mutation Python offers.
Per-SE occupancy accounting uses flat lists indexed by SE id, fed once per
ST allocate/release with the messages served since the previous change
rather than once per message.
"""

from __future__ import annotations

from collections import Counter
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


class SystemStats:
    """Mutable counters, all starting at zero."""

    #: the integer counters.
    COUNTERS = (
        # Cache events (all private L1s).
        "cache_hits", "cache_misses",
        # Memory events.  ``sync_memory_accesses``: reads/writes issued
        # purely for synchronization (sync variables, syncronVar overflow
        # structures, server-core waitlist bookkeeping).
        "dram_reads", "dram_writes", "dram_row_hits", "sync_memory_accesses",
        # Traffic in bytes (the Fig. 15 metric).  ``bytes_across_units``:
        # payload bytes injected into the inter-unit fabric, counted once
        # per remote transfer regardless of how many physical links the
        # route crosses, so the metric is conserved across topologies.
        # ``link_bit_hops``: bits x physical inter-unit links traversed (for
        # link energy); on the all-to-all fabric every route is one link, so
        # this equals ``bytes_across_units * 8``; routed fabrics charge
        # every hop.
        "bytes_inside_units", "bytes_across_units", "link_bit_hops",
        # Degraded-fabric accounting (all zero on a healthy fabric).
        # ``reroutes``: route resolutions that found the pristine path
        # severed by a fault and switched to a surviving detour (once per
        # pair per fault epoch).  ``failed_link_cycles``: cycles x links of
        # downtime, every failed link's unavailable time, charged at the
        # end of the run.  ``detour_bit_hops``: the share of
        # ``link_bit_hops`` that exists only because transfers detoured
        # around faults (bits x extra links vs. the pristine route).
        "reroutes", "failed_link_cycles", "detour_bit_hops",
        # Message counts.
        "sync_messages_local", "sync_messages_global",
        "sync_messages_overflow",
        # SE bookkeeping.
        "st_allocations", "st_releases", "st_overflow_requests",
        "sync_requests_total",
    )

    __slots__ = COUNTERS + ("extra", "_occ_max", "_occ_sum", "_occ_samples")

    def __init__(self) -> None:
        for name in self.COUNTERS:
            setattr(self, name, 0)
        #: per-category extras (extensible without schema churn).
        self.extra: Counter = Counter()
        # Occupancy integrals, indexed by SE id: running max, sum over
        # sampling points (one per served message) of occupied entries, and
        # sample counts.  See record_st_occupancy for when they are folded
        # in.
        self._occ_max: List[int] = []
        self._occ_sum: List[int] = []
        self._occ_samples: List[int] = []

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return all(getattr(self, name) == getattr(other, name)
                       for name in self.__slots__)
        return NotImplemented

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
    def dram_row_misses(self) -> int:
        """Accesses that opened their row (closed or conflicting): every
        booking site counts each access once as a read or a write and hits
        only as row hits, so the misses are the rest."""
        return self.dram_reads + self.dram_writes - self.dram_row_hits

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

