"""Concurrent skip list with per-node locks (Pugh-style, Table 6: deletion).

Medium contention: cores search lock-free (reads), then lock the victim and
its predecessor to unlink — different cores usually work on different parts
of the structure (Fig. 11 middle group, together with the hash table).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.sim.program import Batch, Compute
from repro.sim.system import NDPSystem
from repro.workloads.base import scaled
from repro.workloads.datastructures.common import DataStructureWorkload, Node

MAX_LEVEL = 6
#: the search's key compares (ops are shared value objects).
_SEARCH_COMPUTE = Compute(4)


class SkipListWorkload(DataStructureWorkload):
    name = "skiplist"
    DEFAULT_OPS = 10

    def __init__(self, initial_size: int = None, **kwargs):
        super().__init__(**kwargs)
        self.initial_size = initial_size
        self.head: Optional[Node] = None
        self.deleted_count = 0
        self._targets: List[List[int]] = []

    # ------------------------------------------------------------------
    def setup(self, system: NDPSystem) -> None:
        if self.initial_size is None:
            self.initial_size = self.ops_per_core * len(system.cores) + scaled(40)
        rng = random.Random(self.seed)

        self.head = self.alloc_node(system, -1, unit=0, with_lock=True,
                                    store=True)
        self.head.level_next = [None] * MAX_LEVEL
        prev_at_level: List[Node] = [self.head] * MAX_LEVEL
        for key in range(self.initial_size):
            node = self.alloc_node(system, key, with_lock=True, load=True,
                                   store=True)
            height = min(1 + rng.getrandbits(2).bit_length(), MAX_LEVEL)
            node.level_next = [None] * height
            for level in range(height):
                prev_at_level[level].level_next[level] = node
                prev_at_level[level] = node

        # Pre-partition deletion targets: each core deletes distinct keys.
        keys = list(range(self.initial_size))
        rng.shuffle(keys)
        clients = system.config.total_clients
        self._targets = [
            keys[i * self.ops_per_core:(i + 1) * self.ops_per_core]
            for i in range(clients)
        ]

    # -- functional search -------------------------------------------------
    def _search(self, key: int):
        """Returns (predecessor at level 0, node or None, path nodes)."""
        path = []
        node = self.head
        for level in range(MAX_LEVEL - 1, -1, -1):
            while (level < len(node.level_next) and node.level_next[level]
                   is not None and node.level_next[level].key < key):
                node = node.level_next[level]
                path.append(node)
        candidate = node.level_next[0] if node.level_next else None
        while candidate is not None and candidate.deleted:
            node = candidate
            candidate = candidate.level_next[0] if candidate.level_next else None
        if candidate is not None and candidate.key != key:
            candidate = None
        return node, candidate, path

    def _unlink(self, pred: Node, node: Node) -> None:
        """Unlink ``node`` from every level it is on, in one top-down
        predecessor walk: every chain is sorted by key and keys are
        unique, so at each level the walk stops right before ``node``."""
        node.deleted = True
        key = node.key
        scan = self.head
        for level in range(len(node.level_next) - 1, -1, -1):
            nxt = scan.level_next[level]
            while nxt is not None and nxt.key < key:
                scan = nxt
                nxt = scan.level_next[level]
            if nxt is node:
                scan.level_next[level] = node.level_next[level]

    # ------------------------------------------------------------------
    def core_program(self, system: NDPSystem, core_id: int):
        targets = self._targets[core_id] if core_id < len(self._targets) else []

        def program():
            for key in targets:
                pred, node, path = self._search(key)
                reads = [n.load for n in path[:10]]
                reads.append(_SEARCH_COMPUTE)
                yield Batch(tuple(reads))
                if node is None:
                    # concurrent structure motion; key is gone already.
                    self.record_op()
                    continue
                yield pred.acquire
                yield node.acquire
                # re-validate inside the locks, then unlink.
                if not node.deleted:
                    self._unlink(pred, node)
                    self.deleted_count += 1
                yield pred.store
                yield node.store
                yield node.release
                yield pred.release
                self.record_op()

        return program()

    def check_invariants(self, system: NDPSystem) -> None:
        if self.deleted_count != self._total_ops:
            raise AssertionError(
                f"deleted {self.deleted_count}, expected {self._total_ops} "
                "(each core owns distinct keys, so every delete must land)"
            )
        # Remaining level-0 chain must be sorted and contain no deleted node.
        node = self.head.level_next[0]
        prev_key = -1
        while node is not None:
            if node.deleted:
                raise AssertionError("deleted node still linked")
            if node.key <= prev_key:
                raise AssertionError("skip list order violated")
            prev_key = node.key
            node = node.level_next[0] if node.level_next else None