"""Concurrent chained hash table with per-bucket locks (Table 6: lookup).

Medium contention: lookups lock only their bucket, so cores mostly touch
different buckets; many independent synchronization variables are active at
once (medium ST pressure, Fig. 11 middle group).
"""

from __future__ import annotations

from typing import List

from repro.core import api
from repro.sim.program import Batch, Compute
from repro.sim.system import NDPSystem
from repro.workloads.base import scaled
from repro.workloads.datastructures.common import DataStructureWorkload, Node

#: one chain node's key compare (ops are shared value objects).
_COMPARE = Compute(2)


class HashTableWorkload(DataStructureWorkload):
    name = "hashtable"
    DEFAULT_OPS = 15

    def __init__(self, initial_size: int = None, buckets: int = None, **kwargs):
        super().__init__(**kwargs)
        self.initial_size = initial_size if initial_size is not None else scaled(120)
        self.num_buckets = buckets if buckets is not None else scaled(32)
        self.bucket_locks = []
        self.buckets: List[List[Node]] = []
        self.hits = 0

    def setup(self, system: NDPSystem) -> None:
        units = system.config.num_units
        self.bucket_locks = [
            system.create_syncvar(unit=b % units, name=f"ht_lock{b}")
            for b in range(self.num_buckets)
        ]
        # each bucket lock's acquire / release op, built once per run.
        self._acquire = [api.lock_acquire(lock) for lock in self.bucket_locks]
        self._release = [api.lock_release(lock) for lock in self.bucket_locks]
        self.buckets = [[] for _ in range(self.num_buckets)]
        for key in range(self.initial_size):
            b = key % self.num_buckets
            node = self.alloc_node(system, key, unit=b % units, load=True)
            self.buckets[b].append(node)

    def core_program(self, system: NDPSystem, core_id: int):
        rng = self.rng_for_core(core_id)

        def program():
            for _ in range(self.ops_per_core):
                key = rng.randrange(self.initial_size)
                b = key % self.num_buckets
                yield self._acquire[b]
                chain_ops = []
                found = False
                for node in self.buckets[b]:
                    chain_ops.append(node.load)
                    chain_ops.append(_COMPARE)
                    if node.key == key:
                        found = True
                        break
                yield Batch(tuple(chain_ops))
                if found:
                    self.hits += 1
                yield self._release[b]
                self.record_op()

        return program()

    def check_invariants(self, system: NDPSystem) -> None:
        if self.hits != self._total_ops:
            raise AssertionError("all lookups target present keys and must hit")
        total = sum(len(b) for b in self.buckets)
        if total != self.initial_size:
            raise AssertionError("hash table lost or duplicated nodes")
