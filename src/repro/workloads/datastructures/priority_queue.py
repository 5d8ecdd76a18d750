"""Coarse-locked binary-heap priority queue (Table 6: 100% deleteMin).

All cores contend for one lock and the critical section walks O(log n) heap
levels — high contention with a medium-size critical section (between the
stack and the array map in Fig. 11).
"""

from __future__ import annotations

from typing import List

from repro.core import api
from repro.sim.program import Batch, Compute
from repro.sim.system import NDPSystem
from repro.workloads.base import scaled
from repro.workloads.datastructures.common import DataStructureWorkload, Node

#: one sift level's compare (ops are shared value objects).
_SIFT_COMPUTE = Compute(3)


class PriorityQueueWorkload(DataStructureWorkload):
    name = "priority_queue"
    DEFAULT_OPS = 12

    def __init__(self, initial_size: int = None, **kwargs):
        super().__init__(**kwargs)
        self.initial_size = initial_size
        self.lock = None
        self.heap: List[Node] = []
        self.deleted_keys: List[int] = []

    def setup(self, system: NDPSystem) -> None:
        if self.initial_size is None:
            self.initial_size = self.ops_per_core * len(system.cores) + scaled(64)
        self.lock = system.create_syncvar(unit=0, name="pq_lock")
        self._acquire = api.lock_acquire(self.lock)
        self._release = api.lock_release(self.lock)
        rng = self.rng_for_core(12345)
        keys = list(range(self.initial_size))
        rng.shuffle(keys)
        self.heap = [self.alloc_node(system, key, load=True, store=True)
                     for key in keys]
        self._heapify()

    # -- functional binary heap over self.heap -------------------------
    def _heapify(self) -> None:
        for i in range(len(self.heap) // 2 - 1, -1, -1):
            self._sift_down(i)

    def _sift_down(self, i: int) -> int:
        """Returns the number of levels visited (drives timing)."""
        levels = 0
        n = len(self.heap)
        while True:
            left, right = 2 * i + 1, 2 * i + 2
            smallest = i
            if left < n and self.heap[left].key < self.heap[smallest].key:
                smallest = left
            if right < n and self.heap[right].key < self.heap[smallest].key:
                smallest = right
            if smallest == i:
                return levels
            self.heap[i], self.heap[smallest] = self.heap[smallest], self.heap[i]
            i = smallest
            levels += 1

    def _delete_min(self) -> tuple:
        """Functional deleteMin; returns (min_node, touched_nodes)."""
        root = self.heap[0]
        last = self.heap.pop()
        touched = [root]
        if self.heap:
            self.heap[0] = last
            before = list(self.heap[:1])
            levels = self._sift_down(0)
            touched.extend(self.heap[: 2 ** min(levels + 1, 6)])
        return root, touched

    # ------------------------------------------------------------------
    def core_program(self, system: NDPSystem, core_id: int):
        acquire, release = self._acquire, self._release

        def program():
            for _ in range(self.ops_per_core):
                yield acquire
                root, touched = self._delete_min()
                self.deleted_keys.append(root.key)
                ops = []
                for node in touched[:8]:  # sift path: compare + swap
                    ops.append(node.load)
                    ops.append(_SIFT_COMPUTE)
                    ops.append(node.store)
                yield Batch(tuple(ops))
                yield release
                self.record_op()

        return program()

    def check_invariants(self, system: NDPSystem) -> None:
        if len(self.deleted_keys) != self._total_ops:
            raise AssertionError("wrong number of deleteMin operations")
        # Heap property must survive concurrent mutation.
        for i in range(1, len(self.heap)):
            parent = (i - 1) // 2
            if self.heap[parent].key > self.heap[i].key:
                raise AssertionError("heap property violated")
        # With a correct coarse lock, deleteMin always removes the global
        # minimum of the remaining keys, so the deleted keys are exactly the
        # smallest N keys (in some order per interleaving).
        expected = set(range(self._total_ops))
        if set(self.deleted_keys) != expected:
            raise AssertionError("deleteMin returned non-minimal keys")
