"""Deeper tests: memory-system paths, SE queueing/FIFO, API helpers, and
workload base utilities."""

import pytest

from repro.core import api
from repro.core.messages import Message, Opcode
from repro.sim.program import Compute, Load, Store
from repro.workloads.base import RunMetrics, collect_metrics, scaled

from repro.testing import build_system


class TestMemorySystemPaths:
    def test_writeback_counts_dram_write_off_critical_path(self, tiny_system):
        """Evicting a dirty line charges traffic/energy but not the core."""
        system = tiny_system
        cache = system.cores[0].l1
        sets = cache.num_sets
        a, b, c = 0, sets * 64, 2 * sets * 64  # same-set addresses

        def program():
            yield Store(a)          # dirty
            yield Load(b)
            yield Load(c)           # evicts a -> writeback

        system.run_programs({0: program()})
        assert system.stats.dram_writes >= 1

    def test_device_access_must_target_own_unit(self, tiny_system):
        remote = tiny_system.addrmap.alloc(1, 64)
        with pytest.raises(ValueError):
            tiny_system.memsys.device_access(0, remote, is_write=False, now=0)

    def test_sync_memory_accesses_flagged(self, tiny_system):
        addr = tiny_system.addrmap.alloc(0, 64)
        before = tiny_system.stats.sync_memory_accesses
        tiny_system.memsys.device_access(0, addr, is_write=False, now=0,
                                         for_sync=True)
        assert tiny_system.stats.sync_memory_accesses == before + 1

    def test_uncacheable_write_roundtrip_includes_dram(self, tiny_system):
        addr = tiny_system.addrmap.alloc(0, 64)
        latency = tiny_system.memsys.access(
            0, None, addr, is_write=True, cacheable=False, now=0
        )
        assert latency > tiny_system.config.l1_hit_cycles
        assert tiny_system.stats.dram_writes == 1


class TestSEInternals:
    def test_se_serializes_service(self, tiny_system):
        """Two messages arriving together finish one service apart."""
        se = tiny_system.mechanism.ses[0]
        lock_a = tiny_system.create_syncvar(unit=0)
        lock_b = tiny_system.create_syncvar(unit=0)
        done = []
        se.receive(Message(Opcode.LOCK_ACQUIRE_LOCAL, lock_a, core=0), arrival=10)
        se.receive(Message(Opcode.LOCK_ACQUIRE_LOCAL, lock_b, core=1), arrival=10)
        # grants fire per message; track via mechanism pending hooks
        tiny_system.mechanism._pending[0] = lambda: done.append(tiny_system.sim.now)
        tiny_system.mechanism._pending[1] = lambda: done.append(tiny_system.sim.now)
        tiny_system.sim.run()
        assert len(done) == 2
        assert done[1] - done[0] >= se.service_cycles

    def test_per_sender_fifo_clamp(self, tiny_system):
        """Messages from one sender can never reorder, even if computed
        network latencies would allow it."""
        se = tiny_system.mechanism.ses[0]
        order = []
        var_a = tiny_system.create_syncvar(unit=0)
        var_b = tiny_system.create_syncvar(unit=0)
        msg1 = Message(Opcode.LOCK_ACQUIRE_LOCAL, var_a, core=0)
        msg2 = Message(Opcode.LOCK_RELEASE_LOCAL, var_a, core=0)
        # artificially "out of order" arrivals from the same sender:
        se.receive(msg1, arrival=100, sender=("core", 0))
        se.receive(msg2, arrival=50, sender=("core", 0))
        original = se.dispatch

        def spy(msg):
            order.append(msg.opcode)
            original(msg)

        se.dispatch = spy
        tiny_system.mechanism._pending[0] = lambda: None
        tiny_system.sim.run()
        assert order == [Opcode.LOCK_ACQUIRE_LOCAL, Opcode.LOCK_RELEASE_LOCAL]

    def test_se_refuses_self_send(self, tiny_system):
        from repro.core.protocol import ProtocolError

        se = tiny_system.mechanism.ses[0]
        var = tiny_system.create_syncvar(unit=0)
        with pytest.raises(ProtocolError):
            se.send_se(0, Opcode.LOCK_GRANT_GLOBAL, var)

    def test_double_pending_request_rejected(self, tiny_system):
        from repro.core.protocol import ProtocolError

        core = tiny_system.cores[0]
        lock = tiny_system.create_syncvar()
        tiny_system.mechanism.request(core, "lock_acquire", lock, 0, lambda: None)
        with pytest.raises(ProtocolError):
            tiny_system.mechanism.request(core, "lock_acquire", lock, 0,
                                          lambda: None)

    def test_wake_without_pending_raises(self, tiny_system):
        from repro.core.protocol import ProtocolError

        with pytest.raises(ProtocolError):
            tiny_system.mechanism.wake(99)

    def test_occupancy_sampled_per_message(self, tiny_system):
        lock = tiny_system.create_syncvar()

        def worker():
            yield api.lock_acquire(lock)
            yield api.lock_release(lock)

        tiny_system.run_programs({0: worker()})
        entries = tiny_system.config.st_entries
        summary = tiny_system.stats.st_occupancy_summary(entries)
        assert summary["max_pct"] >= 100.0 / entries


class TestApiHelpers:
    def test_all_helpers_produce_ops(self, tiny_system):
        lock = tiny_system.create_syncvar()
        bar = tiny_system.create_syncvar()
        sem = tiny_system.create_syncvar()
        cond = tiny_system.create_syncvar()
        assert api.lock_acquire(lock).op == "lock_acquire"
        assert api.lock_release(lock).op == "lock_release"
        assert api.barrier_wait_within_unit(bar, 4).info == 4
        assert api.barrier_wait_across_units(bar, 8).info == 8
        assert api.sem_wait(sem, 2).info == 2
        assert api.sem_post(sem).op == "sem_post"
        assert api.cond_wait(cond, lock).info is lock
        assert api.cond_signal(cond).op == "cond_signal"
        assert api.cond_broadcast(cond).op == "cond_broadcast"

    def test_argument_validation(self, tiny_system):
        bar = tiny_system.create_syncvar()
        sem = tiny_system.create_syncvar()
        with pytest.raises(ValueError):
            api.barrier_wait_within_unit(bar, 0)
        with pytest.raises(ValueError):
            api.sem_wait(sem, -1)


class TestWorkloadBase:
    def test_scaled_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert scaled(10) == 10
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert scaled(10) == 30
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert scaled(10) == 100

    def test_bad_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ValueError):
            scaled(10)

    def test_collect_metrics_and_speedup(self, tiny_system):
        def program():
            yield Compute(100)

        cycles = tiny_system.run_programs({0: program()})
        metrics = collect_metrics(tiny_system, cycles, operations=10)
        assert metrics.cycles == 100
        assert metrics.ops_per_second == pytest.approx(10 / metrics.seconds)
        slower = RunMetrics(**{**metrics.__dict__, "cycles": 200})
        assert metrics.speedup_over(slower) == pytest.approx(2.0)

    def test_zero_cycle_metrics(self, tiny_system):
        metrics = collect_metrics(tiny_system, 0, operations=0)
        assert metrics.ops_per_second == 0.0


class TestFlatSpecifics:
    def test_flat_condvar_routes_lock_ops_to_master(self, quad_config):
        """Regression: flat cond_wait must release/re-acquire the associated
        lock at the *lock's* master SE, not the condvar's."""
        system = build_system(quad_config, "syncron_flat")
        lock = system.create_syncvar(unit=0)
        cond = system.create_syncvar(unit=3)  # different master on purpose
        state = {"woken": 0, "waiting": 0}

        def waiter():
            yield api.lock_acquire(lock)
            state["waiting"] += 1
            yield api.cond_wait(cond, lock)
            state["woken"] += 1
            yield api.lock_release(lock)

        def signaler():
            while state["woken"] < 2:
                yield Compute(150)
                yield api.lock_acquire(lock)
                if state["waiting"] > 0:
                    state["waiting"] -= 1
                    yield api.cond_signal(cond)
                yield api.lock_release(lock)

        system.run_programs({0: waiter(), 1: waiter(), 2: signaler()})
        assert state["woken"] == 2


class TestServerShadowState:
    """ServerEngine._state_address: where a software server keeps its
    bookkeeping for a variable (satellite coverage — previously untested)."""

    def _hier_server(self, tiny_config, unit=0):
        system = build_system(tiny_config, "hier")
        return system, system.mechanism.ses[unit]

    def test_master_server_uses_the_variable_itself(self, tiny_config):
        system, server = self._hier_server(tiny_config, unit=0)
        var = system.create_syncvar(unit=0)
        assert server._state_address(var) == var.addr

    def test_non_master_shadow_lands_in_servers_own_unit(self, tiny_config):
        system, server = self._hier_server(tiny_config, unit=0)
        var = system.create_syncvar(unit=1)  # master is SE 1, not SE 0
        shadow = server._state_address(var)
        assert shadow != var.addr
        assert system.addrmap.unit_of(shadow) == 0
        # line-granular, line-aligned allocation
        assert shadow % system.config.cache_line_bytes == 0

    def test_shadow_reused_across_requests(self, tiny_config):
        system, server = self._hier_server(tiny_config, unit=0)
        var = system.create_syncvar(unit=1)
        first = server._state_address(var)
        used_after_first = system.addrmap.bytes_used(0)
        assert server._state_address(var) == first
        assert system.addrmap.bytes_used(0) == used_after_first
        # distinct variables get distinct shadows
        other = system.create_syncvar(unit=1)
        assert server._state_address(other) != first

    def test_shadow_access_charged_through_server_l1(self, tiny_config):
        system, server = self._hier_server(tiny_config, unit=0)
        var = system.create_syncvar(unit=1)
        stats = system.stats
        hits0, misses0 = stats.cache_hits, stats.cache_misses
        server._extra = 0
        server._charge_state_access(var)
        # cold: the shadow line misses in the server's private L1
        assert stats.cache_misses > misses0
        cold_extra = server._extra
        assert cold_extra > 0
        hits1 = stats.cache_hits
        server._extra = 0
        server._charge_state_access(var)
        # warm: same line now hits, and the handler gets cheaper
        assert stats.cache_hits > hits1
        assert 0 < server._extra < cold_extra

    def test_hier_run_allocates_shadows_for_remote_vars(self, tiny_config):
        """End-to-end: unit-0 clients locking a unit-1 variable make SE 0
        keep non-master bookkeeping in unit 0's memory."""
        system = build_system(tiny_config, "hier")
        var = system.create_syncvar(unit=1, name="remote_lock")
        done = {"count": 0}

        def worker():
            yield api.lock_acquire(var)
            done["count"] += 1
            yield api.lock_release(var)

        unit0 = [c for c in system.cores if c.unit_id == 0]
        system.run_programs({c.core_id: worker() for c in unit0})
        assert done["count"] == len(unit0)
        local_server = system.mechanism.ses[0]
        shadow = local_server._shadow.get(var.addr)
        assert shadow is not None
        assert system.addrmap.unit_of(shadow) == 0
