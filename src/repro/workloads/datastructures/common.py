"""Shared machinery for the lock-based concurrent data structures (Table 6).

Each data structure keeps its *functional* state in plain Python (mutated by
the core programs at the simulated instant their locks allow), while its
*timing* behaviour is expressed through Load/Store ops on explicitly placed
addresses plus SynCron API calls.  Shared read-write data is uncacheable
(software-assisted coherence, Sec. 2.1), so traversals hit memory and the
placement of nodes across NDP units matters — exactly the contention and
non-uniformity structure Fig. 11 studies.

Scaling: the paper initializes structures with 100K/20K/10K/5K/1K elements
and runs 100K operations.  Cycle-accurate Python cannot do that in test
time, so sizes scale down by default (see ``REPRO_SCALE``), preserving the
contention class of each structure (coarse locks stay coarse; traversal
lengths keep their big-O shape).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core import api
from repro.sim.program import Load, Store
from repro.sim.syncif import SyncVar
from repro.sim.system import NDPSystem
from repro.workloads.base import Workload, scaled


class Node:
    """A heap node with a simulated address and functional payload.

    A node also carries the ops programs yield for it, built once here
    (ops are never-mutated value objects, see :mod:`repro.sim.program`):
    ``acquire`` / ``release`` of its lock when it has one, and, when its
    structure asks for them, ``load`` / ``store``, an uncacheable access to
    its line.  Ops not built stay None, so a node holds only what its
    structure yields.
    """

    __slots__ = ("key", "value", "addr", "unit", "lock", "next", "prev",
                 "left", "right", "level_next", "deleted",
                 "load", "store", "acquire", "release")

    def __init__(self, key: int, addr: int, unit: int,
                 lock: Optional[SyncVar] = None, load: bool = False,
                 store: bool = False):
        self.key = key
        self.value = key
        self.addr = addr
        self.unit = unit
        self.lock = lock
        self.acquire = self.release = None
        if lock is not None:
            self.acquire = api.lock_acquire(lock)
            self.release = api.lock_release(lock)
        self.load = Load(addr, cacheable=False) if load else None
        self.store = Store(addr, cacheable=False) if store else None
        self.next: Optional["Node"] = None
        self.prev: Optional["Node"] = None
        self.left: Optional["Node"] = None
        self.right: Optional["Node"] = None
        self.level_next: List[Optional["Node"]] = []
        self.deleted = False


class DataStructureWorkload(Workload):
    """Base: N client cores each perform ``ops_per_core`` operations."""

    #: default operations per core at REPRO_SCALE=small.
    DEFAULT_OPS = 12

    def __init__(self, ops_per_core: Optional[int] = None, seed: int = 1):
        self.ops_per_core = ops_per_core if ops_per_core is not None else scaled(self.DEFAULT_OPS)
        self.seed = seed
        self._completed = 0
        self._total_ops = 0

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def alloc_node(self, system: NDPSystem, key: int, unit: Optional[int] = None,
                   with_lock: bool = False, load: bool = False,
                   store: bool = False) -> Node:
        """Allocate a node (one cache line) in ``unit`` (or round-robin),
        with its lock's ops when ``with_lock`` and the uncacheable
        ``load`` / ``store`` ops asked for (see :class:`Node`)."""
        if unit is None:
            unit = key % system.config.num_units
        addr = system.addrmap.alloc(unit, 64, align=64)
        lock = system.create_syncvar(unit=unit) if with_lock else None
        return Node(key, addr, unit, lock, load, store)

    def rng_for_core(self, core_id: int) -> random.Random:
        return random.Random((self.seed << 16) ^ core_id)

    def record_op(self) -> None:
        self._completed += 1

    # ------------------------------------------------------------------
    def build(self, system: NDPSystem) -> Dict[int, object]:
        self.setup(system)
        # core_program receives the core's dense index within system.cores
        # (equal to its global core id on a whole-machine system, but not on
        # a tenant slice of one) so per-core target lists and
        # ``system.cores[...]`` lookups stay valid under co-runs.
        programs = {
            core.core_id: self.core_program(system, index)
            for index, core in enumerate(system.cores)
        }
        self._total_ops = self.ops_per_core * len(programs)
        return programs

    def setup(self, system: NDPSystem) -> None:
        raise NotImplementedError

    def core_program(self, system: NDPSystem, core_id: int):
        """Program for ``system.cores[core_id]`` (a dense index, see build)."""
        raise NotImplementedError

    def operations(self) -> int:
        return self._total_ops

    def verify(self, system: NDPSystem) -> None:
        if self._completed != self._total_ops:
            raise AssertionError(
                f"{self.name}: completed {self._completed} of "
                f"{self._total_ops} operations"
            )
        self.check_invariants(system)

    def check_invariants(self, system: NDPSystem) -> None:
        """Structure-specific consistency checks (override)."""
