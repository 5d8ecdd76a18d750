"""Directory-MESI substrate and coherence-based locks (Table 1 / Fig. 2)."""

import pytest

from repro.coherence.driver import (
    CLoad,
    CoherentSystem,
    CRmw,
    CStore,
    IdealAcquire,
    IdealRelease,
    Pause,
)
from repro.coherence.locks import (
    HierarchicalTicketLock,
    tas_acquire,
    tas_release,
    ticket_acquire,
    ticket_release,
    ttas_acquire,
    ttas_release,
)
from repro.coherence.mesi import DirectoryMESI, LOAD, RMW_TAS, STORE
from repro.sim.config import cpu_numa, ndp_2_5d
from repro.sim.memmap import AddressMap
from repro.sim.network import Interconnect
from repro.sim.program import Compute
from repro.sim.stats import SystemStats


def make_mesi(num_units=2, cores_per_unit=2):
    stats = SystemStats()
    cfg = ndp_2_5d(num_units=num_units, cores_per_unit=cores_per_unit + 1,
                   client_cores_per_unit=cores_per_unit)
    amap = AddressMap(num_units, cfg.unit_memory_bytes, 64)
    inter = Interconnect(cfg, stats)
    units = {i: i // cores_per_unit for i in range(num_units * cores_per_unit)}
    return DirectoryMESI(cfg, stats, inter, amap, units), cfg


class TestMESIProtocol:
    def test_load_then_load_hits(self):
        mesi, cfg = make_mesi()
        miss, _ = mesi.access(0, 0x40, LOAD, now=0)
        hit, _ = mesi.access(0, 0x40, LOAD, now=miss)
        assert hit == cfg.l1_hit_cycles
        assert hit < miss

    def test_store_invalidates_sharers(self):
        mesi, cfg = make_mesi()
        mesi.access(0, 0x40, LOAD, now=0)
        mesi.access(1, 0x40, LOAD, now=100)
        mesi.access(2, 0x40, STORE, now=200, operand=7)
        # previous sharers must miss now
        lat0, val0 = mesi.access(0, 0x40, LOAD, now=300)
        assert lat0 > cfg.l1_hit_cycles
        assert val0 == 7

    def test_exclusive_owner_stores_hit(self):
        mesi, cfg = make_mesi()
        mesi.access(0, 0x40, STORE, now=0, operand=1)
        lat, _ = mesi.access(0, 0x40, STORE, now=50, operand=2)
        assert lat == cfg.l1_hit_cycles
        assert mesi.value(0x40) == 2

    def test_rmw_is_atomic_fetch(self):
        mesi, _ = make_mesi()
        _, old1 = mesi.access(0, 0x40, RMW_TAS, now=0)
        _, old2 = mesi.access(1, 0x40, RMW_TAS, now=100)
        assert old1 == 0
        assert old2 == 1  # second attempt sees the set flag

    def test_cross_unit_transfer_costs_more(self):
        mesi, _ = make_mesi()
        mesi.access(0, 0x40, STORE, now=0, operand=1)  # core 0, unit 0 owns
        same_unit, _ = mesi.access(1, 0x40, LOAD, now=1000)   # unit 0
        mesi2, _ = make_mesi()
        mesi2.access(0, 0x40, STORE, now=0, operand=1)
        cross_unit, _ = mesi2.access(2, 0x40, LOAD, now=1000)  # unit 1
        assert cross_unit > same_unit

    def test_contended_line_queues_at_directory(self):
        mesi, _ = make_mesi(num_units=2, cores_per_unit=4)
        first, _ = mesi.access(0, 0x40, STORE, now=0, operand=1)
        second, _ = mesi.access(1, 0x40, STORE, now=0, operand=2)
        assert second >= first


class TestCoherentLocks:
    def run_lock(self, lock_factory, cores=4, ops=10):
        system = CoherentSystem(cpu_numa())
        acquire, release = lock_factory(system)
        state = {"count": 0, "inside": 0, "max_inside": 0}

        def worker(core):
            for _ in range(ops):
                yield from acquire(core)
                state["inside"] += 1
                state["max_inside"] = max(state["max_inside"], state["inside"])
                state["count"] += 1
                yield Compute(15)
                state["inside"] -= 1
                yield from release(core)

        system.run_programs(
            {c.core_id: worker(c) for c in system.cores[:cores]}
        )
        assert state["max_inside"] == 1
        assert state["count"] == cores * ops
        return system

    def test_tas_lock_mutual_exclusion(self):
        def factory(system):
            addr = system.alloc_line(0)
            return (lambda c: tas_acquire(addr)), (lambda c: tas_release(addr))

        self.run_lock(factory)

    def test_ttas_lock_mutual_exclusion(self):
        def factory(system):
            addr = system.alloc_line(0)
            return (lambda c: ttas_acquire(addr)), (lambda c: ttas_release(addr))

        self.run_lock(factory)

    def test_ticket_lock_is_fifo_and_exclusive(self):
        def factory(system):
            nxt, serving = system.alloc_line(0), system.alloc_line(0)
            return (
                lambda c: ticket_acquire(nxt, serving),
                lambda c: ticket_release(serving),
            )

        self.run_lock(factory)

    def test_hierarchical_ticket_lock(self):
        def factory(system):
            htl = HierarchicalTicketLock(system, system.config.num_units)
            return (
                lambda c: htl.acquire(c.unit_id),
                lambda c: htl.release(c.unit_id),
            )

        self.run_lock(factory, cores=8)

    def test_ideal_lock_zero_cost(self):
        system = CoherentSystem(cpu_numa())
        state = {"count": 0, "inside": 0, "max_inside": 0}

        def worker():
            for _ in range(5):
                yield IdealAcquire(1)
                state["inside"] += 1
                state["max_inside"] = max(state["max_inside"], state["inside"])
                state["count"] += 1
                yield Compute(10)
                state["inside"] -= 1
                yield IdealRelease(1)

        system.run_programs({0: worker(), 1: worker()})
        assert state["max_inside"] == 1
        assert state["count"] == 10
        assert system.stats.bytes_across_units == 0

    def test_ideal_release_by_non_owner_raises(self):
        system = CoherentSystem(cpu_numa())

        def bad():
            yield IdealRelease(1)

        with pytest.raises(RuntimeError):
            system.run_programs({0: bad()})


class TestCoherentCore:
    def test_finished_program_is_never_resumed(self):
        system = CoherentSystem(cpu_numa())
        resumes = []

        def program():
            resumes.append(system.sim.now)
            yield Compute(10)
            resumes.append(system.sim.now)

        finish = system.run_programs({0: program()})
        core = system.cores[0]
        assert core.finished and core.finish_time == finish == 10
        # A stray wake-up after the finish neither resumes the program
        # nor moves its finish time.
        system.sim.schedule(5, core._advance)
        system.sim.run()
        assert system.sim.now == 15
        assert core.finish_time == 10
        assert resumes == [0, 10]
        assert core.operations == 1


class TestMotivationShapes:
    def test_table1_contention_and_numa_penalties(self):
        from repro.harness.motivation import table1
        from repro.harness.runner import run_plan

        rows = run_plan(table1(ops_per_thread=40))
        ttas = rows[0]
        # throughput collapses with 14 contenders …
        assert ttas["14 threads single-socket"] < ttas["1 thread single-socket"]
        # … and crossing the socket hurts the 2-thread case.
        assert (ttas["2 threads different-socket"]
                < ttas["2 threads same-socket"])

    def test_fig2_mesi_lock_slowdown(self):
        from repro.harness.motivation import fig2
        from repro.harness.runner import run_plan

        result = run_plan(fig2(ops_per_core=6))
        for row in result["a_cores"] + result["b_units"]:
            assert row["slowdown"] > 1.3, "mesi-lock must visibly hurt"
