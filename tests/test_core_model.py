"""Tests for the NDP core model, programs, memory system, and NDPSystem."""

import pytest

from repro.core import api
from repro.sim.program import (
    Batch,
    Compute,
    Load,
    Store,
    SyncAsyncOp,
    SyncOp,
    batch,
)
from repro.sim.system import MECHANISM_NAMES, NDPSystem

from repro.testing import ALL_MECHANISMS


class TestProgramOps:
    def test_compute_rejects_negative(self):
        with pytest.raises(ValueError):
            Compute(-1)

    def test_sync_op_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            SyncOp("lock_grab", None)

    def test_async_only_for_release_type(self):
        with pytest.raises(ValueError):
            SyncAsyncOp("lock_acquire", None)

    def test_batch_rejects_sync_ops(self):
        with pytest.raises(TypeError):
            Batch((Compute(1), SyncOp("lock_acquire", None)))

    def test_batch_helper(self):
        b = batch(Load(0), Store(8), Compute(2))
        assert len(b.ops) == 3


class TestCoreExecution:
    def test_compute_advances_time_by_instruction_count(self, tiny_system):
        def program():
            yield Compute(100)

        cycles = tiny_system.run_programs({0: program()})
        assert cycles == 100

    def test_cacheable_load_hits_after_miss(self, tiny_system):
        addr = tiny_system.addrmap.alloc(0, 64)
        times = []

        def program():
            start = tiny_system.sim.now
            yield Load(addr)
            times.append(tiny_system.sim.now - start)
            start = tiny_system.sim.now
            yield Load(addr)
            times.append(tiny_system.sim.now - start)

        tiny_system.run_programs({0: program()})
        assert times[1] < times[0]
        assert times[1] == tiny_system.config.l1_hit_cycles

    def test_uncacheable_never_hits(self, tiny_system):
        addr = tiny_system.addrmap.alloc(0, 64)
        times = []

        def program():
            for _ in range(2):
                start = tiny_system.sim.now
                yield Load(addr, cacheable=False)
                times.append(tiny_system.sim.now - start)

        tiny_system.run_programs({0: program()})
        assert times[1] > tiny_system.config.l1_hit_cycles

    def test_remote_access_is_slower(self, tiny_system):
        local = tiny_system.addrmap.alloc(0, 64)
        remote = tiny_system.addrmap.alloc(1, 64)
        times = {}

        def program():
            start = tiny_system.sim.now
            yield Load(local, cacheable=False)
            times["local"] = tiny_system.sim.now - start
            start = tiny_system.sim.now
            yield Load(remote, cacheable=False)
            times["remote"] = tiny_system.sim.now - start

        tiny_system.run_programs({0: program()})  # core 0 lives in unit 0
        assert times["remote"] > times["local"] + tiny_system.config.link_latency_cycles

    def test_batch_matches_sequential_time_roughly(self, tiny_config):
        from repro.testing import build_system

        addr_ops = [(i * 64) for i in range(8)]
        sys_a = build_system(tiny_config)
        sys_b = build_system(tiny_config)

        def prog_seq():
            for a in addr_ops:
                yield Load(a)
            yield Compute(10)

        def prog_batch():
            yield Batch(tuple([Load(a) for a in addr_ops] + [Compute(10)]))

        t_seq = sys_a.run_programs({0: prog_seq()})
        t_batch = sys_b.run_programs({0: prog_batch()})
        assert abs(t_seq - t_batch) <= 8  # per-op rounding differences only

    def test_instructions_retired(self, tiny_system):
        def program():
            yield Compute(10)
            yield Load(0)
            yield Store(64)

        tiny_system.run_programs({0: program()})
        assert tiny_system.cores[0].instructions_retired == 12

    def test_unknown_op_raises(self, tiny_system):
        def program():
            yield "nonsense"

        with pytest.raises(TypeError):
            tiny_system.run_programs({0: program()})

    def test_core_cannot_run_two_programs(self, tiny_system):
        def forever():
            yield Compute(10)

        tiny_system.cores[0].run_program(forever())
        with pytest.raises(RuntimeError):
            tiny_system.cores[0].run_program(forever())


class TestNDPSystem:
    def test_mechanism_registry_covers_all_names(self, tiny_config):
        for name in MECHANISM_NAMES:
            system = NDPSystem(tiny_config, mechanism=name)
            assert system.mechanism_name == name

    def test_unknown_mechanism_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            NDPSystem(tiny_config, mechanism="magic")

    def test_core_topology(self, quad_config):
        system = NDPSystem(quad_config)
        assert system.num_cores == 16
        assert len(system.cores_in_unit(2)) == 4
        local_ids = [c.local_id for c in system.cores_in_unit(2)]
        assert local_ids == [0, 1, 2, 3]

    def test_create_syncvar_round_robins_units(self, tiny_system):
        v1 = tiny_system.create_syncvar()
        v2 = tiny_system.create_syncvar()
        assert {v1.unit, v2.unit} == {0, 1}

    def test_create_syncvar_explicit_unit(self, tiny_system):
        var = tiny_system.create_syncvar(unit=1)
        assert var.unit == 1
        assert tiny_system.addrmap.unit_of(var.addr) == 1

    def test_deadlock_detection(self, tiny_system):
        lock = tiny_system.create_syncvar()

        def stuck():
            yield api.lock_acquire(lock)
            yield api.lock_acquire(lock)  # self-deadlock

        with pytest.raises(RuntimeError, match="deadlock"):
            tiny_system.run_programs({0: stuck()})

    def test_empty_program_set(self, tiny_system):
        assert tiny_system.run_programs({}) == 0

    def test_makespan_is_max_of_finish_times(self, tiny_system):
        def short():
            yield Compute(10)

        def long():
            yield Compute(500)

        cycles = tiny_system.run_programs({0: short(), 1: long()})
        assert cycles == 500

    def test_destroy_syncvar_clears_state(self, tiny_system):
        lock = tiny_system.create_syncvar()

        def program():
            yield api.lock_acquire(lock)
            yield api.lock_release(lock)

        tiny_system.run_programs({0: program()})
        tiny_system.destroy_syncvar(lock)
        for se in tiny_system.mechanism.ses:
            assert lock.addr not in se.st.entries
