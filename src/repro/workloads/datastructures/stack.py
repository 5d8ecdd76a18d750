"""Concurrent stack with a coarse-grained lock (ASCYLIB-style, Table 6).

Configuration per the paper: initialized with a fixed size, 100% push
operations, one global lock — the canonical *high-contention* workload
(every core fights for the same lock, Fig. 11 top-left, Fig. 16).
"""

from __future__ import annotations

from typing import List

from repro.core import api
from repro.sim.program import Load, Store
from repro.sim.system import NDPSystem
from repro.workloads.base import scaled
from repro.workloads.datastructures.common import DataStructureWorkload, Node


class StackWorkload(DataStructureWorkload):
    name = "stack"
    DEFAULT_OPS = 15

    def __init__(self, initial_size: int = None, **kwargs):
        super().__init__(**kwargs)
        self.initial_size = initial_size if initial_size is not None else scaled(100)
        self.lock = None
        self.top_addr = None
        self.items: List[Node] = []

    def setup(self, system: NDPSystem) -> None:
        home = 0  # the stack object (top pointer + lock) lives in unit 0
        self.lock = system.create_syncvar(unit=home, name="stack_lock")
        self.top_addr = system.addrmap.alloc(home, 64, align=64)
        # the ops every push yields, built once per run.
        self._acquire = api.lock_acquire(self.lock)
        self._release = api.lock_release(self.lock)
        self._read_top = Load(self.top_addr, cacheable=False)
        self._write_top = Store(self.top_addr, cacheable=False)
        self.items = [
            self.alloc_node(system, key) for key in range(self.initial_size)
        ]
        for i in range(1, len(self.items)):
            self.items[i].next = self.items[i - 1]

    def core_program(self, system: NDPSystem, core_id: int):
        # Pre-allocate this core's nodes in its own unit (thread-local data).
        unit = system.cores[core_id].unit_id
        new_nodes = [
            self.alloc_node(system, core_id * 100000 + i, unit=unit)
            for i in range(self.ops_per_core)
        ]

        acquire, release = self._acquire, self._release
        read_top, write_top = self._read_top, self._write_top

        def program():
            for node in new_nodes:
                # Prepare the node outside the critical section.  Each node
                # is pushed once, so its store is built once either way;
                # building it here holds none alive between pushes.
                yield Store(node.addr, cacheable=False)
                yield acquire
                # push: read top, link node, update top.
                yield read_top
                node.next = self.items[-1] if self.items else None
                self.items.append(node)
                yield write_top
                yield release
                self.record_op()

        return program()

    def check_invariants(self, system: NDPSystem) -> None:
        expected = self.initial_size + self._total_ops
        if len(self.items) != expected:
            raise AssertionError(
                f"stack has {len(self.items)} items, expected {expected}"
            )
        # Every pushed node's link must point at its push-time predecessor.
        for i in range(1, len(self.items)):
            if self.items[i].next is not self.items[i - 1]:
                raise AssertionError("stack linkage corrupted (lost update)")
