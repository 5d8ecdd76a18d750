"""Driver for coherence-based programs (Table 1 / Fig. 2 experiments).

Coherent programs are generators (like NDP programs) yielding:

- :class:`CLoad` / :class:`CStore` — coherent load/store; the loaded value
  is sent back into the generator,
- :class:`CRmw` — an atomic rmw (tas / faa / swap); old value sent back,
- :class:`~repro.sim.program.Compute` — plain computation,
- :class:`Pause` — a spin-loop backoff (x86 ``pause``-style), so contended
  spinning does not generate one event per L1 hit.

:class:`CoherentSystem` assembles the MESI substrate over the standard
interconnect/config and runs one program per core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.coherence.mesi import DirectoryMESI, LOAD, RMW_KINDS, STORE
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.memmap import AddressMap
from repro.sim.network import Interconnect
from repro.sim.program import Compute
from repro.sim.stats import SystemStats


@dataclass(frozen=True)
class CLoad:
    addr: int


@dataclass(frozen=True)
class CStore:
    addr: int
    value: int = 0


@dataclass(frozen=True)
class CRmw:
    addr: int
    kind: str  # rmw_tas / rmw_faa / rmw_swap
    operand: int = 1

    def __post_init__(self):
        if self.kind not in RMW_KINDS:
            raise ValueError(f"unknown rmw kind {self.kind!r}")


@dataclass(frozen=True)
class Pause:
    """Spin backoff: the core idles for ``cycles`` before re-checking."""

    cycles: int = 40


@dataclass(frozen=True)
class IdealAcquire:
    """Zero-cost lock acquire (Fig. 2's ``ideal-lock``): mutual exclusion is
    enforced but acquisition costs no cycles and no traffic."""

    lock_id: int


@dataclass(frozen=True)
class IdealRelease:
    lock_id: int


class _IdealLockTable:
    """Zero-latency logical locks shared by a CoherentSystem's cores."""

    def __init__(self):
        self.owner = {}
        self.queues = {}

    def acquire(self, lock_id: int, core) -> bool:
        """True if granted immediately; otherwise the core is queued."""
        if self.owner.get(lock_id) is None:
            self.owner[lock_id] = core.core_id
            return True
        self.queues.setdefault(lock_id, []).append(core)
        return False

    def release(self, lock_id: int, core):
        """Returns the next core to wake, if any."""
        if self.owner.get(lock_id) != core.core_id:
            raise RuntimeError(
                f"core {core.core_id} released ideal lock {lock_id} it does not own"
            )
        queue = self.queues.get(lock_id)
        if queue:
            nxt = queue.pop(0)
            self.owner[lock_id] = nxt.core_id
            return nxt
        self.owner[lock_id] = None
        return None


class CoherentCore:
    """One core executing a coherent program."""

    def __init__(self, sim: Simulator, core_id: int, unit_id: int,
                 mesi: DirectoryMESI, ideal_locks: "_IdealLockTable" = None):
        self.sim = sim
        self.core_id = core_id
        self.unit_id = unit_id
        self.mesi = mesi
        self.ideal_locks = ideal_locks
        self._send: Optional[Callable] = None
        self.finished = False
        self.finish_time: Optional[int] = None
        self.operations = 0

    def run_program(self, program) -> None:
        self._send = iter(program).send
        self.sim.schedule(0, self._advance)

    def _advance(self, value=None) -> None:
        """Send ``value`` into the program and dispatch its next op.

        On exhaustion the core is marked finished at the current cycle; a
        finished program is never resumed again.
        """
        if self.finished:
            return
        try:
            op = self._send(value)
        except StopIteration:
            self.finished = True
            self.finish_time = self.sim.now
            return
        self.operations += 1
        if isinstance(op, Compute):
            self.sim.schedule(op.instructions, self._advance)
        elif isinstance(op, Pause):
            self.sim.schedule(max(op.cycles, 1), self._advance)
        elif isinstance(op, CLoad):
            latency, value = self.mesi.access(self.core_id, op.addr, LOAD, self.sim.now)
            self.sim.schedule(max(latency, 1), self._advance, value)
        elif isinstance(op, CStore):
            latency, value = self.mesi.access(
                self.core_id, op.addr, STORE, self.sim.now, operand=op.value
            )
            self.sim.schedule(max(latency, 1), self._advance, value)
        elif isinstance(op, CRmw):
            latency, old = self.mesi.access(
                self.core_id, op.addr, op.kind, self.sim.now, operand=op.operand
            )
            self.sim.schedule(max(latency, 1), self._advance, old)
        elif isinstance(op, IdealAcquire):
            if self.ideal_locks.acquire(op.lock_id, self):
                self.sim.schedule(0, self._advance)
            # else: parked; the releasing core wakes us.
        elif isinstance(op, IdealRelease):
            nxt = self.ideal_locks.release(op.lock_id, self)
            if nxt is not None:
                self.sim.schedule(0, nxt._advance)
            self.sim.schedule(0, self._advance)
        else:
            raise TypeError(f"coherent program yielded unknown op {op!r}")


class CoherentSystem:
    """A cache-coherent multiprocessor built from the same parts as the NDP
    system: units are NUMA sockets, links are the socket interconnect."""

    def __init__(self, config: SystemConfig):
        config.validate()
        self.config = config
        self.sim = Simulator()
        self.stats = SystemStats()
        self.addrmap = AddressMap(
            config.num_units, config.unit_memory_bytes, config.cache_line_bytes
        )
        self.interconnect = Interconnect(config, self.stats)

        self.cores = []
        core_units: Dict[int, int] = {}
        for unit in range(config.num_units):
            for _ in range(config.client_cores_per_unit):
                core_id = len(self.cores)
                core_units[core_id] = unit
                self.cores.append(None)  # placeholder until mesi exists
        self.mesi = DirectoryMESI(
            config, self.stats, self.interconnect, self.addrmap, core_units
        )
        self.ideal_locks = _IdealLockTable()
        self.cores = [
            CoherentCore(self.sim, core_id, core_units[core_id], self.mesi,
                         self.ideal_locks)
            for core_id in core_units
        ]

    def alloc_line(self, unit: int = 0) -> int:
        return self.addrmap.alloc_line(unit)

    def run_programs(self, programs: Dict[int, Iterable],
                     max_events: Optional[int] = None) -> int:
        for core_id, program in programs.items():
            self.cores[core_id].run_program(program)
        self.sim.run(max_events=max_events)
        unfinished = [cid for cid in programs if not self.cores[cid].finished]
        if unfinished:
            raise RuntimeError(f"coherent cores never finished: {unfinished[:8]}")
        return max(self.cores[cid].finish_time for cid in programs)
