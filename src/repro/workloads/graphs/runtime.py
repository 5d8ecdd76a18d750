"""Push-style graph-kernel runtime (CRONO-like, paper Sec. 5 "Workloads").

The paper's graph applications come from CRONO (push versions): the output
property array is shared read-write and protected by fine-grained per-vertex
locks, with barriers separating iterations.  This module provides the
common machinery:

- graphs are partitioned across NDP units (random by default; Fig. 19 uses
  the METIS-substitute :func:`~repro.workloads.graphs.partition.bfs_partition`);
- each vertex's property word and lock live in its partition's unit, and
  each unit's vertices are split evenly among that unit's client cores;
- graph structure (adjacency) is shared read-only → cacheable; property
  arrays are shared read-write → uncacheable (Sec. 2.1);
- rounds are separated by an across-units barrier; convergence is decided
  by a designated core between two barriers (the usual double-barrier
  reduction idiom).

Kernels subclass :class:`GraphKernelWorkload` and implement
``vertex_program`` (+ ``init_state`` / ``reference``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.core import api
from repro.sim.program import Batch, Compute, Load, Store
from repro.sim.system import NDPSystem
from repro.workloads.base import Workload
from repro.workloads.graphs.datasets import Graph, load_dataset
from repro.workloads.graphs.partition import get_partitioner, random_partition


class GraphKernelWorkload(Workload):
    """Base class for the six CRONO-style kernels."""

    name = "graph_kernel"
    #: upper bound on rounds (kernels also stop at convergence).
    max_rounds = 12
    #: whether this kernel synchronizes rounds with barriers (tf does not).
    uses_barriers = True

    def __init__(self, dataset: str = "wk", graph: Optional[Graph] = None,
                 partitioner: Optional[Union[Callable, str]] = None,
                 seed: int = 7):
        self.dataset = dataset
        self.graph = graph
        # a string names a registered partitioner (sweep specs can't carry
        # closures); the seed binds here so placement is reproducible.
        if isinstance(partitioner, str):
            fn = get_partitioner(partitioner)
            partitioner = lambda g, parts: fn(g, parts, seed=seed)
        self.partitioner = partitioner or (
            lambda g, parts: random_partition(g, parts, seed=seed)
        )
        self.seed = seed
        self.assignment: List[int] = []
        self.vertex_addr: List[int] = []
        self.vertex_lock: List = []
        self.edge_addr: List[int] = []
        self._my_vertices: Dict[int, List[int]] = {}
        self._edges_processed = 0
        self._changed = False
        self._continue = True
        self._round = 0

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------
    def init_state(self) -> None:
        """Initialize functional kernel state (dist/labels/ranks...)."""
        raise NotImplementedError

    def vertex_program(self, system: NDPSystem, u: int):
        """Generator processing vertex ``u`` for the current round."""
        raise NotImplementedError

    def round_finished(self) -> None:
        """Hook between rounds (e.g., swap pagerank arrays)."""

    def check_result(self) -> None:
        """Verify the kernel's functional output."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def mark_changed(self) -> None:
        self._changed = True

    def read_neighbours(self, u: int):
        """Timing ops for scanning vertex u's adjacency row (cacheable) and
        its own property word (uncacheable)."""
        degree = self.graph.degree(u)
        ops = [Load(self.vertex_addr[u], cacheable=False)]
        base = self.edge_addr[u]
        ops.extend(Load(base + 8 * i) for i in range(degree))
        ops.append(Compute(2 * degree + 2))
        return Batch(tuple(ops))

    #: per-edge computation outside the critical section (address math,
    #: floating point, branch work) — keeps the sync-to-compute ratio in the
    #: regime the paper's full-size runs operate in.
    edge_compute_cycles = 24

    def locked_update(self, v: int):
        """Ops for a lock-protected read-modify-write of property[v].

        Usage: ``yield from self.locked_update(v)`` with the functional
        mutation performed by the caller right after (still "inside" the
        critical section — the release below is what publishes it).
        """
        yield Compute(self.edge_compute_cycles)
        yield api.lock_acquire(self.vertex_lock[v])
        yield Batch((
            Load(self.vertex_addr[v], cacheable=False),
            Compute(2),
        ))

    def unlock_after_update(self, v: int, wrote: bool = True):
        if wrote:
            yield Store(self.vertex_addr[v], cacheable=False)
        yield api.lock_release(self.vertex_lock[v])

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, system: NDPSystem) -> Dict[int, object]:
        if self.graph is None:
            self.graph = load_dataset(self.dataset)
        graph = self.graph
        units = system.config.num_units
        self.assignment = self.partitioner(graph, units)

        self.vertex_addr = [0] * graph.num_vertices
        self.edge_addr = [0] * graph.num_vertices
        self.vertex_lock = [None] * graph.num_vertices
        for v in range(graph.num_vertices):
            unit = self.assignment[v]
            self.vertex_addr[v] = system.addrmap.alloc(unit, 8)
            self.edge_addr[v] = system.addrmap.alloc(
                unit, max(8 * graph.degree(v), 8)
            )
            self.vertex_lock[v] = system.create_syncvar(unit=unit)

        # distribute each unit's vertices across that unit's client cores.
        cores_by_unit: Dict[int, List[int]] = {}
        for core in system.cores:
            cores_by_unit.setdefault(core.unit_id, []).append(core.core_id)
        self._my_vertices = {core.core_id: [] for core in system.cores}
        counters = {unit: 0 for unit in range(units)}
        for v in range(graph.num_vertices):
            unit = self.assignment[v]
            owners = cores_by_unit[unit]
            core_id = owners[counters[unit] % len(owners)]
            counters[unit] += 1
            self._my_vertices[core_id].append(v)

        self._barriers = [
            system.create_syncvar(unit=0, name="graph_bar0"),
            system.create_syncvar(unit=units - 1, name="graph_bar1"),
        ]
        self.init_state()

        participants = len(system.cores)
        leader = system.cores[0].core_id
        return {
            core.core_id: self._core_program(system, core.core_id,
                                             participants, leader)
            for core in system.cores
        }

    def _core_program(self, system: NDPSystem, core_id: int,
                      participants: int, leader: int):
        my_vertices = self._my_vertices[core_id]

        def program():
            while True:
                for u in my_vertices:
                    yield from self.vertex_program(system, u)
                if not self.uses_barriers:
                    break
                # double-barrier convergence reduction.
                yield api.barrier_wait_across_units(self._barriers[0], participants)
                if core_id == leader:
                    self._round += 1
                    self._continue = (
                        self._changed and self._round < self.max_rounds
                    )
                    self._changed = False
                    self.round_finished()
                yield api.barrier_wait_across_units(self._barriers[1], participants)
                if not self._continue:
                    break

        return program()

    # ------------------------------------------------------------------
    def verify(self, system: NDPSystem) -> None:
        self.check_result()

    def operations(self) -> int:
        return self._edges_processed

    @property
    def rounds_executed(self) -> int:
        return self._round
