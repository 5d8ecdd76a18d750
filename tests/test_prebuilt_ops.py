"""Programs build their ops once per run, not once per operation.

Ops are never-mutated value objects (:mod:`repro.sim.program`), so the
data-structure and graph programs yield ops built when a node is
allocated, a lock is set up or a vertex is first updated.  These tests
count constructions through a wrapper on each op class's ``__init__`` and
require the same count at two amounts of work: an op built per yield
makes the longer run build more.
"""

from collections import Counter

import pytest

from repro.sim import program
from repro.testing import build_system
from repro.workloads.base import run_workload
from repro.workloads.datastructures import LinkedListWorkload
from repro.workloads.graphs import PageRankWorkload, barabasi_albert

OP_CLASSES = ("Compute", "Load", "Store", "SyncOp", "SyncAsyncOp")

GRAPH = barabasi_albert(40, 2, seed=3)


@pytest.fixture
def constructions(monkeypatch):
    """Counter of op constructions by class name while the test runs."""
    counts = Counter()
    for name in OP_CLASSES:
        cls = getattr(program, name)

        def counting_init(self, *args, _init=cls.__init__, _name=name,
                          **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def linkedlist_constructions(counts, config, ops_per_core):
    counts.clear()
    workload = LinkedListWorkload(initial_size=12, ops_per_core=ops_per_core)
    workload.run(build_system(config))
    return dict(counts)


def pagerank_constructions(counts, config, rounds):
    counts.clear()
    workload = PageRankWorkload(graph=GRAPH)
    workload.max_rounds = rounds
    run_workload(lambda: workload, config, "syncron")
    assert workload.rounds_executed == rounds
    return {name: counts[name] for name in ("SyncOp", "SyncAsyncOp", "Store")}


def test_linkedlist_builds_no_op_per_operation(constructions, tiny_config):
    short = linkedlist_constructions(constructions, tiny_config, 2)
    long = linkedlist_constructions(constructions, tiny_config, 6)
    assert short == long
    # each node's lock ops (the head's too) and load, nothing else.
    assert short["SyncOp"] == short["SyncAsyncOp"] == 13
    assert short["Load"] == 12
    assert short.get("Compute", 0) == short.get("Store", 0) == 0


def test_pagerank_builds_no_sync_op_or_store_per_round(constructions,
                                                       tiny_config):
    one = pagerank_constructions(constructions, tiny_config, 1)
    three = pagerank_constructions(constructions, tiny_config, 3)
    assert one == three
    assert one["SyncOp"] > 0 and one["Store"] > 0


def test_vertex_update_ops_are_shared_tuples(tiny_config):
    workload = PageRankWorkload(graph=GRAPH)
    workload.build(build_system(tiny_config))
    first = workload.locked_update(5)
    assert isinstance(first, tuple)
    assert workload.locked_update(5) is first
    release = workload.unlock_after_update(5, wrote=False)
    assert workload.unlock_after_update(5) == (program.Store(
        workload.vertex_addr[5], cacheable=False), release[0])
    assert release == (program.SyncAsyncOp(program.LOCK_RELEASE,
                                           workload.vertex_lock[5]),)
