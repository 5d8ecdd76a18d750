"""Whole-system assembly: units, cores, memory, network, mechanism.

:class:`NDPSystem` wires together everything in :mod:`repro.sim` and attaches
one synchronization mechanism chosen by name:

- ``"syncron"``      — the paper's mechanism (SE per unit, hierarchical).
- ``"syncron_flat"`` — SynCron's flat variant (Sec. 6.7.1 ablation).
- ``"central"``      — one server core for the whole system (Tesseract-like).
- ``"hier"``         — one server core per unit (Gao et al.-like).
- ``"ideal"``        — zero-overhead synchronization.
- ``"syncron_central_ovrfl"`` / ``"syncron_distrib_ovrfl"`` — MiSAR-style
  non-integrated overflow variants (Fig. 23).
- ``"rmw_spin"``     — spin-wait over remote atomic units (Sec. 2.2.1).
- ``"bakery"``       — Lamport-bakery software baseline (Sec. 2.2.1).

Mechanism classes are imported on demand from :data:`MECHANISMS`, which
keeps the package layering acyclic.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Iterable, List, Optional

from repro.sim.cache import L1Cache
from repro.sim.config import SystemConfig
from repro.sim.core import NDPCore
from repro.sim.dram import DramDevice
from repro.sim.engine import Simulator
from repro.sim.memmap import AddressMap
from repro.sim.memsys import MemorySystem
from repro.sim.network import Interconnect
from repro.sim.smt import IssuePort
from repro.sim.stats import SystemStats
from repro.sim.syncif import SyncVar
from repro.analysis.sanitizer import sanitizer_active
from repro.sim.topo.faults import FaultPlan
from repro.telemetry import get_telemetry


#: mechanism name -> ``"module:Class"``, imported when a system first
#: asks for it (the sync and core packages import sim, and a run loads
#: only the mechanism it simulates).
MECHANISMS: Dict[str, str] = {
    "syncron": "repro.core.engine:SynCronMechanism",
    "syncron_flat": "repro.sync.flat:FlatSynCronMechanism",
    "central": "repro.sync.central:CentralMechanism",
    "hier": "repro.sync.hier:HierMechanism",
    "ideal": "repro.sync.ideal:IdealMechanism",
    "syncron_central_ovrfl":
        "repro.sync.overflow_alt:SynCronCentralOverflowMechanism",
    "syncron_distrib_ovrfl":
        "repro.sync.overflow_alt:SynCronDistribOverflowMechanism",
    "rmw_spin": "repro.sync.remote_atomics:RemoteAtomicsMechanism",
    "bakery": "repro.sync.bakery:BakeryMechanism",
}

MECHANISM_NAMES = tuple(MECHANISMS)


def mechanism_class(name: str) -> Callable:
    """The mechanism class registered as ``name``, imported on demand."""
    target = MECHANISMS.get(name)
    if target is None:
        raise ValueError(
            f"unknown mechanism {name!r}; choose from {sorted(MECHANISMS)}")
    module, _, cls = target.partition(":")
    return getattr(importlib.import_module(module), cls)


def _mechanism_registry() -> Dict[str, Callable]:
    """Name -> class of every mechanism (imports every mechanism module)."""
    return {name: mechanism_class(name) for name in MECHANISMS}


class NDPSystem:
    """A simulated NDP system plus its synchronization mechanism."""

    def __init__(self, config: SystemConfig, mechanism: str = "syncron"):
        config.validate()
        self.config = config
        self.sim = Simulator(elide_waits=config.elide_waits)
        if get_telemetry().enabled:
            # Telemetry session active: profile the kernel so RunMetrics
            # gains the reserved telemetry.* wall-clock keys.  Simulated
            # physics is unaffected (see Simulator.enable_profile).
            self.sim.enable_profile()
        if sanitizer_active():
            # Determinism-sanitizer session active (repro run --sanitize):
            # record per-cycle access sets and flag same-cycle ordering
            # hazards.  Observational only (see repro.analysis.sanitizer).
            self.sim.enable_sanitizer()
        self.stats = SystemStats()
        self.addrmap = AddressMap(
            config.num_units, config.unit_memory_bytes, config.cache_line_bytes
        )
        self.interconnect = Interconnect(config, self.stats)
        # The failure schedule is fixed before the first cycle; arming turns
        # it into simulator timers that hit the interconnect mid-run.  The
        # default (empty) plan costs nothing and arms nothing.
        self.fault_plan = FaultPlan.from_config(config, self.interconnect.topology)
        if self.fault_plan.events:
            self.fault_plan.arm(self.sim, self.interconnect)
        self.drams = [
            DramDevice(config.memory, self.stats, unit_id=u)
            for u in range(config.num_units)
        ]
        self.memsys = MemorySystem(
            config, self.stats, self.interconnect, self.drams, self.addrmap
        )

        self.cores: List[NDPCore] = []
        for unit in range(config.num_units):
            for local_slot in range(config.client_cores_per_unit):
                # Contexts of one physical core share its L1 and pipeline
                # (Sec. 4 SMT note); with one context the port is omitted
                # so timing reduces to the single-threaded model exactly.
                l1 = L1Cache(
                    config.l1_size_bytes,
                    config.l1_ways,
                    config.cache_line_bytes,
                    self.stats,
                    hit_cycles=config.l1_hit_cycles,
                )
                port = IssuePort() if config.threads_per_core > 1 else None
                for context in range(config.threads_per_core):
                    core = NDPCore(
                        sim=self.sim,
                        core_id=len(self.cores),
                        unit_id=unit,
                        local_id=(
                            local_slot * config.threads_per_core + context
                        ),
                        l1=l1,
                        memsys=self.memsys,
                        mechanism=None,  # set below, once it exists
                        config=config,
                        port=port,
                    )
                    self.cores.append(core)

        factory = mechanism_class(mechanism)
        self.mechanism_name = mechanism
        self.mechanism = factory(self)
        for core in self.cores:
            core.mechanism = self.mechanism

        self._next_var_unit = 0

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def cores_in_unit(self, unit: int) -> List[NDPCore]:
        return [c for c in self.cores if c.unit_id == unit]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    # ------------------------------------------------------------------
    # Synchronization variables (Table 2: create_syncvar / destroy_syncvar)
    # ------------------------------------------------------------------
    def create_syncvar(self, unit: Optional[int] = None, name: str = "") -> SyncVar:
        """Allocate a synchronization variable in ``unit``'s memory.

        The owning unit determines the Master SE.  Without an explicit unit,
        variables round-robin across units (the driver's default placement).
        """
        if unit is None:
            unit = self._next_var_unit
            self._next_var_unit = (self._next_var_unit + 1) % self.config.num_units
        addr = self.addrmap.alloc_line(unit)
        return SyncVar(addr=addr, unit=unit, name=name)

    def destroy_syncvar(self, var: SyncVar) -> None:
        """Release a variable (bump allocator: bookkeeping only)."""
        destroy = getattr(self.mechanism, "destroy_var", None)
        if destroy is not None:
            destroy(var)

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------
    def run_programs(
        self,
        programs: Dict[int, Iterable],
        max_events: Optional[int] = None,
    ) -> int:
        """Run one program per core id; returns the makespan in cycles."""
        remaining = len(programs)
        if remaining == 0:
            return 0

        for core_id, program in programs.items():
            self.cores[core_id].run_program(iter(program))

        self.sim.run(max_events=max_events)
        self.mechanism.end_run()
        unfinished = [
            cid for cid in programs if not self.cores[cid].finished
        ]
        if unfinished:
            raise RuntimeError(
                f"deadlock: cores {unfinished[:8]} never finished "
                f"(t={self.sim.now}, mechanism={self.mechanism_name})"
            )
        if self.fault_plan.events:
            # Permanent faults never see a repair; charge their downtime up
            # to the last simulated instant so failed_link_cycles is total.
            self.interconnect.finalize_faults(self.sim.now)
        return max(self.cores[cid].finish_time for cid in programs)

    def release(self) -> None:
        """Break the reference cycles of a system that will not run again.

        The mechanism points at the system and at SEs or server state that
        point back, so a dropped system is cyclic garbage that only a full
        collection frees: a process running many specs then peaks at a
        memory use set by when that collection happens to run.  After this
        the system is freed as soon as its last reference goes.
        """
        vars(self.mechanism).clear()
