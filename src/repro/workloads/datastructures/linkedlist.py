"""Sorted linked list with hand-over-hand locking (Table 6: lookup).

Lock-coupling traversal [Herlihy & Shavit]: each step acquires the next
node's lock before releasing the previous one, so every core holds two
locks at all times while traversing — *low contention but very high
synchronization demand*.  Together with BST_FG this is the workload class
that pressures the ST into overflow (paper Secs. 6.1.2 and 6.7.3).
"""

from __future__ import annotations

from typing import List

from repro.sim.program import Compute
from repro.sim.system import NDPSystem
from repro.workloads.base import scaled
from repro.workloads.datastructures.common import DataStructureWorkload, Node

#: the compare at each traversal step (ops are shared value objects).
_STEP_COMPUTE = Compute(2)


class LinkedListWorkload(DataStructureWorkload):
    name = "linkedlist"
    DEFAULT_OPS = 6

    def __init__(self, initial_size: int = None, **kwargs):
        super().__init__(**kwargs)
        self.initial_size = initial_size if initial_size is not None else scaled(24)
        self.head: Node = None
        self.nodes: List[Node] = []
        self.hits = 0

    def setup(self, system: NDPSystem) -> None:
        self.head = self.alloc_node(system, -1, unit=0, with_lock=True)
        self.nodes = [
            self.alloc_node(system, key, with_lock=True, load=True)
            for key in range(self.initial_size)
        ]
        prev = self.head
        for node in self.nodes:
            prev.next = node
            prev = node

    def core_program(self, system: NDPSystem, core_id: int):
        rng = self.rng_for_core(core_id)

        def program():
            for _ in range(self.ops_per_core):
                key = rng.randrange(self.initial_size)
                # Hand-over-hand: lock head, then couple down the chain.
                yield self.head.acquire
                prev, node = self.head, self.head.next
                found = False
                while node is not None:
                    yield node.acquire
                    yield node.load
                    yield _STEP_COMPUTE
                    yield prev.release
                    if node.key >= key:
                        found = node.key == key
                        prev = node
                        break
                    prev, node = node, node.next
                yield prev.release
                if found:
                    self.hits += 1
                self.record_op()

        return program()

    def check_invariants(self, system: NDPSystem) -> None:
        if self.hits != self._total_ops:
            raise AssertionError("lookups of present keys must all hit")
        # list is never mutated: order intact.
        node, prev_key = self.head.next, -1
        count = 0
        while node is not None:
            if node.key <= prev_key:
                raise AssertionError("list order violated")
            prev_key, node = node.key, node.next
            count += 1
        if count != self.initial_size:
            raise AssertionError("list length changed under read-only ops")
