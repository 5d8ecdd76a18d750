"""Clock-domain conversions.

All simulator timestamps are in *core cycles*.  The paper's system (Table 5)
clocks NDP cores at 2.5 GHz and the Synchronization Engine's SPU at 1 GHz;
DRAM/interconnect parameters are given in nanoseconds.  This module owns the
conversions so components never hand-roll them.
"""

from __future__ import annotations

from repro.sim.frozen import Frozen


class Clock(Frozen):
    """A clock domain defined by its frequency in GHz."""

    def __init__(self, ghz: float):
        self.__dict__["ghz"] = ghz

    @property
    def period_ns(self) -> float:
        return 1.0 / self.ghz

    def cycles_from_ns(self, ns: float) -> int:
        """Convert nanoseconds to a whole number of cycles (round up).

        Rounding up is the conservative choice for latencies: hardware cannot
        finish mid-cycle.
        """
        cycles = ns * self.ghz
        whole = int(cycles)
        return whole if cycles == whole else whole + 1

    def ns_from_cycles(self, cycles: int) -> float:
        return cycles / self.ghz


#: NDP core clock (Table 5: "16 in-order cores @2.5 GHz per NDP unit").
CORE_CLOCK = Clock(ghz=2.5)

#: Synchronization Engine SPU clock (Table 5: "SPU @1GHz clock frequency").
SE_CLOCK = Clock(ghz=1.0)


def core_cycles_from_ns(ns: float) -> int:
    """Nanoseconds to core cycles (the simulator's global time unit)."""
    return CORE_CLOCK.cycles_from_ns(ns)


def core_cycles_from_se_cycles(se_cycles: int) -> int:
    """SE cycles (1 GHz) to core cycles (2.5 GHz)."""
    return core_cycles_from_ns(se_cycles * SE_CLOCK.period_ns)


def seconds_from_core_cycles(cycles: int) -> float:
    return cycles / (CORE_CLOCK.ghz * 1e9)
