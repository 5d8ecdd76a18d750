"""External binary search tree with fine-grained locking (BST_FG).

Table 6 lists an "external fine-grained locking BST from [RCU-HTM, PACT'17]"
with 100% lookups.  Traversal is lock-free (reads of the tree structure);
each operation then locks its window — the target node and its parent — and
validates/reads under those locks.  Every core therefore holds two node
locks at any instant, spread across a large set of distinct variables: low
contention but very high synchronization demand.  This is the workload the
paper uses to evaluate ST overflow (Fig. 23: 30.5% of requests overflow a
64-entry ST at 60 cores)."""

from __future__ import annotations

from typing import List, Optional

from repro.sim.program import Batch, Compute, Load
from repro.sim.system import NDPSystem
from repro.workloads.base import scaled
from repro.workloads.datastructures.common import DataStructureWorkload, Node

#: the key compare at each traversal step, and the validate under the locks
#: (ops are shared value objects).
_VISIT_COMPUTE = Compute(3)
_VALIDATE_COMPUTE = Compute(4)


class BSTFineGrainedWorkload(DataStructureWorkload):
    name = "bst_fg"
    DEFAULT_OPS = 8

    def __init__(self, initial_size: int = None, **kwargs):
        super().__init__(**kwargs)
        self.initial_size = initial_size if initial_size is not None else scaled(160)
        self.root: Optional[Node] = None
        self.size = 0
        self.hits = 0

    # -- balanced functional BST over randomly placed nodes ---------------
    def setup(self, system: NDPSystem) -> None:
        rng = self.rng_for_core(777)
        keys = sorted(range(self.initial_size))
        # Random placement across units (the paper distributes BSTs randomly).
        units = system.config.num_units

        def build(lo: int, hi: int) -> Optional[Node]:
            if lo > hi:
                return None
            mid = (lo + hi) // 2
            node = self.alloc_node(
                system, keys[mid], unit=rng.randrange(units), with_lock=True,
                load=True,
            )
            node.left = build(lo, mid - 1)
            node.right = build(mid + 1, hi)
            return node

        self.root = build(0, len(keys) - 1)
        self.size = len(keys)

    def core_program(self, system: NDPSystem, core_id: int):
        rng = self.rng_for_core(core_id)

        def program():
            for _ in range(self.ops_per_core):
                key = rng.randrange(self.initial_size)
                # Lock-free traversal (tree structure is read-shared).
                parent, node = None, self.root
                path = []
                while node is not None and node.key != key:
                    path.append(node)
                    parent, node = node, (
                        node.left if key < node.key else node.right
                    )
                if node is None:
                    parent, node = path[-2] if len(path) >= 2 else None, path[-1]
                yield Batch(tuple(
                    op
                    for visited in path
                    for op in (Load(visited.addr), _VISIT_COMPUTE)
                ))
                # Operation window: lock parent then node (top-down order on
                # tree paths — acyclic, hence deadlock-free), validate and
                # read the payload under the locks.
                first = parent if parent is not None else node
                second = node if parent is not None else None
                yield first.acquire
                if second is not None:
                    yield second.acquire
                yield first.load
                if second is not None:
                    yield second.load
                yield _VALIDATE_COMPUTE
                found = node.key == key
                if second is not None:
                    yield second.release
                yield first.release
                if found:
                    self.hits += 1
                self.record_op()

        return program()

    def check_invariants(self, system: NDPSystem) -> None:
        if self.hits != self._total_ops:
            raise AssertionError("lookups of present keys must all hit")

        # In-order traversal must yield sorted keys (tree untouched).
        seen: List[int] = []

        def visit(node: Optional[Node]) -> None:
            if node is None:
                return
            visit(node.left)
            seen.append(node.key)
            visit(node.right)

        visit(self.root)
        if seen != sorted(seen) or len(seen) != self.size:
            raise AssertionError("BST structure corrupted")
