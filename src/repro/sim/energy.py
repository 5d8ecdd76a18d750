"""Energy accounting (the Fig. 14 breakdown).

The paper computes energy by counting events in ZSim/Ramulator and applying
per-event constants (CACTI for caches/ST, Wolkotte et al. for the NoC, link
and HBM pJ/bit from prior work — all in Table 5).  We do the same: the
simulator counts events in :class:`~repro.sim.stats.SystemStats` and this
module converts them to a cache/network/memory breakdown in picojoules.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.config import SystemConfig
from repro.sim.frozen import Frozen
from repro.sim.stats import SystemStats


class EnergyBreakdown(Frozen):
    """Energy by component, in picojoules."""

    def __init__(self, cache_pj: float, network_pj: float,
                 memory_pj: float):
        self.__dict__.update(cache_pj=cache_pj, network_pj=network_pj,
                             memory_pj=memory_pj)

    @property
    def total_pj(self) -> float:
        return self.cache_pj + self.network_pj + self.memory_pj

    def normalized(self, baseline: "EnergyBreakdown") -> Dict[str, float]:
        """Fractions of a baseline's total (how Fig. 14 plots bars)."""
        denom = baseline.total_pj or 1.0
        return {
            "cache": self.cache_pj / denom,
            "network": self.network_pj / denom,
            "memory": self.memory_pj / denom,
            "total": self.total_pj / denom,
        }


def compute_energy(stats: SystemStats, config: SystemConfig) -> EnergyBreakdown:
    """Convert counted events into the Fig. 14 cache/network/memory split."""
    e = config.energy
    cache_pj = stats.cache_hits * e.cache_hit_pj + stats.cache_misses * e.cache_miss_pj

    # Local NoC energy is per bit per hop: every byte booked inside a unit
    # crossed one crossbar's ``local_hops`` hops.  Inter-unit link energy is
    # per bit *per physical link traversed* — on the all-to-all fabric
    # link_bit_hops equals bytes_across_units * 8, so this reduces to the
    # old per-byte charge; routed fabrics (ring/mesh/torus) pay every hop.
    local_bit_hops = stats.bytes_inside_units * 8 * config.local_hops
    network_pj = (
        local_bit_hops * e.local_network_pj_per_bit_hop
        + stats.link_bit_hops * e.link_pj_per_bit
    )

    line_bits = config.cache_line_bytes * 8
    memory_pj = (stats.dram_reads + stats.dram_writes) * line_bits * (
        config.memory.energy_pj_per_bit
    )
    return EnergyBreakdown(cache_pj=cache_pj, network_pj=network_pj, memory_pj=memory_pj)
