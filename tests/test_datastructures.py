"""Concurrent data structures: functional invariants across mechanisms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import ndp_2_5d
from repro.workloads.base import run_workload
from repro.workloads.datastructures import (
    ALL_STRUCTURES,
    ArrayMapWorkload,
    BSTDrachslerWorkload,
    BSTFineGrainedWorkload,
    HashTableWorkload,
    LinkedListWorkload,
    PriorityQueueWorkload,
    QueueWorkload,
    SkipListWorkload,
    StackWorkload,
)
from repro.workloads.datastructures.skiplist import MAX_LEVEL

from repro.testing import build_system


STRUCTURE_NAMES = sorted(ALL_STRUCTURES)


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_structure_verifies_on_syncron(tiny_config, name):
    """Every structure's own invariant checks pass under SynCron."""
    metrics = run_workload(ALL_STRUCTURES[name], tiny_config, "syncron")
    assert metrics.operations > 0
    assert metrics.cycles > 0
    assert metrics.sync_requests > 0


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
@pytest.mark.parametrize("mechanism", ("central", "hier", "ideal"))
def test_structure_verifies_on_baselines(tiny_config, name, mechanism):
    metrics = run_workload(ALL_STRUCTURES[name], tiny_config, mechanism)
    assert metrics.operations > 0


class TestStack:
    def test_push_count_and_linkage(self, tiny_config):
        system = build_system(tiny_config)
        workload = StackWorkload(initial_size=10, ops_per_core=5)
        workload.run(system)
        assert len(workload.items) == 10 + 5 * len(system.cores)

    def test_throughput_metric(self, tiny_config):
        metrics = run_workload(
            lambda: StackWorkload(ops_per_core=4), tiny_config, "syncron"
        )
        assert metrics.ops_per_second > 0


class TestQueue:
    def test_pops_preserve_fifo_prefix(self, tiny_config):
        system = build_system(tiny_config)
        workload = QueueWorkload(ops_per_core=4)
        workload.run(system)
        # remaining items are exactly the un-popped suffix, in order.
        keys = [n.key for n in workload.items]
        assert keys == sorted(keys)
        assert keys[0] == workload.popped


class TestPriorityQueue:
    def test_delete_min_removes_global_minima(self, tiny_config):
        system = build_system(tiny_config)
        workload = PriorityQueueWorkload(ops_per_core=4)
        workload.run(system)
        n_deleted = 4 * len(system.cores)
        assert set(workload.deleted_keys) == set(range(n_deleted))


def _head_scan_unlink(head, node):
    """Reference for ``SkipListWorkload._unlink``: the per-level scan from
    the head it replaced."""
    node.deleted = True
    for level in range(len(node.level_next)):
        scan = head
        while (level < len(scan.level_next)
               and scan.level_next[level] is not node):
            nxt = scan.level_next[level] if level < len(scan.level_next) else None
            if nxt is None:
                break
            scan = nxt
        if level < len(scan.level_next) and scan.level_next[level] is node:
            scan.level_next[level] = node.level_next[level]


def _skiplist_chains(head):
    """Keys of every level's chain, bottom level first."""
    chains = []
    for level in range(MAX_LEVEL):
        keys, node = [], head.level_next[level]
        while node is not None:
            keys.append(node.key)
            node = node.level_next[level]
        chains.append(keys)
    return chains


SKIPLIST_KEYS = 60


class TestSkipList:
    def test_every_core_deletes_its_keys(self, tiny_config):
        system = build_system(tiny_config)
        workload = SkipListWorkload(ops_per_core=4)
        workload.run(system)
        assert workload.deleted_count == 4 * len(system.cores)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000),
           order=st.permutations(range(SKIPLIST_KEYS)),
           deletions=st.integers(1, SKIPLIST_KEYS))
    def test_unlink_matches_head_scan(self, seed, order, deletions):
        """Any deletion order leaves every level's chain as the head scan
        leaves it."""
        config = ndp_2_5d(num_units=2, cores_per_unit=4,
                          client_cores_per_unit=3)
        lists = []
        for _ in range(2):
            workload = SkipListWorkload(initial_size=SKIPLIST_KEYS,
                                        ops_per_core=1, seed=seed)
            workload.setup(build_system(config))
            nodes, node = {}, workload.head.level_next[0]
            while node is not None:
                nodes[node.key] = node
                node = node.level_next[0]
            lists.append((workload, nodes))
        (fast, fast_nodes), (ref, ref_nodes) = lists
        assert _skiplist_chains(fast.head) == _skiplist_chains(ref.head)
        assert max(len(n.level_next) for n in fast_nodes.values()) > 1
        for key in order[:deletions]:
            fast._unlink(None, fast_nodes[key])
            _head_scan_unlink(ref.head, ref_nodes[key])
            assert _skiplist_chains(fast.head) == _skiplist_chains(ref.head)
            assert fast_nodes[key].deleted


class TestLinkedList:
    def test_lock_coupling_holds_two_locks(self, tiny_config):
        """Lock coupling must create simultaneous multi-lock demand (the
        property that matters for ST pressure)."""
        system = build_system(tiny_config)
        workload = LinkedListWorkload(initial_size=12, ops_per_core=3)
        workload.run(system)
        peaks = [se.st.peak_occupancy for se in system.mechanism.ses]
        assert max(peaks) >= 2


class TestBSTs:
    def test_bst_fg_tree_intact_after_lookups(self, tiny_config):
        system = build_system(tiny_config)
        workload = BSTFineGrainedWorkload(initial_size=32, ops_per_core=4)
        workload.run(system)
        assert workload.hits == 4 * len(system.cores)

    def test_bst_drachsler_deletions_land_exactly_once(self, tiny_config):
        system = build_system(tiny_config)
        workload = BSTDrachslerWorkload(ops_per_core=3)
        workload.run(system)
        assert workload.deleted_count == 3 * len(system.cores)

    def test_bst_drachsler_sync_is_sparse(self, tiny_config):
        """The paper's point: lock requests are a tiny share of traffic."""
        system = build_system(tiny_config)
        workload = BSTDrachslerWorkload(ops_per_core=3)
        metrics = workload.run(system)
        # two lock acquires + releases per op; far fewer sync requests than
        # the search-phase loads.
        assert metrics.sync_requests <= 5 * workload.operations()


class TestHashTableAndArrayMap:
    def test_hashtable_all_hits(self, tiny_config):
        metrics = run_workload(
            lambda: HashTableWorkload(initial_size=40, buckets=8, ops_per_core=5),
            tiny_config, "syncron",
        )
        assert metrics.operations == 5 * 6  # 6 clients in tiny_config

    def test_arraymap_critical_section_scans_all_entries(self, tiny_config):
        system = build_system(tiny_config)
        workload = ArrayMapWorkload(ops_per_core=3)
        workload.run(system)
        assert workload.hits == 3 * len(system.cores)


class TestContentionClasses:
    def test_coarse_lock_structures_have_single_hot_variable(self, tiny_config):
        system = build_system(tiny_config)
        StackWorkload(ops_per_core=5).run(system)
        # a coarse-grained stack keeps at most a couple of ST entries alive.
        assert max(se.st.peak_occupancy for se in system.mechanism.ses) <= 2

    def test_hashtable_spreads_entries(self, tiny_config):
        system = build_system(tiny_config)
        HashTableWorkload(initial_size=64, buckets=16, ops_per_core=6).run(system)
        total_allocs = sum(se.st.allocations for se in system.mechanism.ses)
        assert total_allocs > 6  # many distinct variables buffered over time
