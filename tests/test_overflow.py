"""ST overflow management (paper Sec. 4.3) and the MiSAR-style variants."""

import random

import pytest

from repro.core import api
from repro.sim.program import Compute
from repro.workloads.base import run_workload
from repro.workloads.microbench import PrimitiveMicrobench

from repro.testing import build_system


def lock_coupling_workload(system, num_locks, ops_per_core, seed=0):
    """Each core holds two locks at a time from a large pool (the linked
    list / BST_FG pattern that drives ST overflow)."""
    locks = [system.create_syncvar(name=f"L{i}") for i in range(num_locks)]
    state = {"count": 0, "holders": {}}

    def worker(core_id):
        rng = random.Random(seed ^ core_id)
        for _ in range(ops_per_core):
            i = rng.randrange(num_locks - 1)
            first, second = locks[i], locks[i + 1]
            yield api.lock_acquire(first)
            assert state["holders"].setdefault(first.addr) is None
            state["holders"][first.addr] = core_id
            yield api.lock_acquire(second)
            assert state["holders"].setdefault(second.addr) is None
            state["holders"][second.addr] = core_id
            state["count"] += 1
            yield Compute(10)
            state["holders"][second.addr] = None
            yield api.lock_release(second)
            state["holders"][first.addr] = None
            yield api.lock_release(first)

    programs = {c.core_id: worker(c.core_id) for c in system.cores}
    system.run_programs(programs)
    return state


class TestIntegratedOverflow:
    def test_tiny_st_overflows_but_stays_correct(self, quad_config):
        config = quad_config.with_(st_entries=2)
        system = build_system(config, "syncron")
        state = lock_coupling_workload(system, num_locks=32, ops_per_core=8)
        assert state["count"] == 8 * len(system.cores)
        assert system.stats.st_overflow_requests > 0
        assert system.stats.overflow_request_pct > 0

    def test_overflow_state_drains_completely(self, quad_config):
        config = quad_config.with_(st_entries=2)
        system = build_system(config, "syncron")
        lock_coupling_workload(system, num_locks=32, ops_per_core=8)
        for se in system.mechanism.ses:
            assert se.st.occupied == 0, "leaked ST entries"
            assert se.counters.total_active == 0, "leaked indexing counters"
            assert len(se.store) == 0, "leaked syncronVar structures"
            assert len(se._redirected) == 0, "leaked overflow episodes"

    def test_large_st_never_overflows(self, quad_config):
        system = build_system(quad_config.with_(st_entries=64), "syncron")
        lock_coupling_workload(system, num_locks=12, ops_per_core=6)
        assert system.stats.st_overflow_requests == 0

    def test_overflow_uses_memory_not_extra_hardware(self, quad_config):
        """Overflowed requests must show up as sync memory accesses."""
        config = quad_config.with_(st_entries=2)
        system = build_system(config, "syncron")
        lock_coupling_workload(system, num_locks=32, ops_per_core=8)
        assert system.stats.sync_memory_accesses > 0

    def test_overflow_slower_than_st_path(self, quad_config):
        cycles = {}
        for st in (2, 1024):
            system = build_system(quad_config.with_(st_entries=st), "syncron")
            lock_coupling_workload(system, num_locks=32, ops_per_core=8)
            cycles[st] = system.sim.now
        assert cycles[2] > cycles[1024]

    def test_barrier_under_overflow(self, quad_config):
        config = quad_config.with_(st_entries=1)
        system = build_system(config, "syncron")
        bar = system.create_syncvar(unit=0)
        locks = [system.create_syncvar() for _ in range(16)]
        n = len(system.cores)
        phases = {"done": 0}

        def worker(core_id):
            rng = random.Random(core_id)
            for _ in range(3):
                lock = locks[rng.randrange(len(locks))]
                yield api.lock_acquire(lock)
                yield Compute(5)
                yield api.lock_release(lock)
                yield api.barrier_wait_across_units(bar, n)
            phases["done"] += 1

        system.run_programs({c.core_id: worker(c.core_id) for c in system.cores})
        assert phases["done"] == n

    def test_semaphore_under_overflow(self, quad_config):
        config = quad_config.with_(st_entries=1)
        system = build_system(config, "syncron")
        sem = system.create_syncvar(unit=1)
        locks = [system.create_syncvar() for _ in range(8)]
        state = {"inside": 0, "max": 0, "ops": 0}

        def worker(core_id):
            rng = random.Random(core_id)
            for _ in range(4):
                lock = locks[rng.randrange(len(locks))]
                yield api.lock_acquire(lock)
                yield api.lock_release(lock)
                yield api.sem_wait(sem, 2)
                state["inside"] += 1
                state["max"] = max(state["max"], state["inside"])
                yield Compute(10)
                state["inside"] -= 1
                state["ops"] += 1
                yield api.sem_post(sem)

        system.run_programs({c.core_id: worker(c.core_id) for c in system.cores})
        assert state["max"] <= 2
        assert state["ops"] == 4 * len(system.cores)

    def test_indexing_counter_aliasing_is_safe(self, quad_config):
        """With one indexing counter, every variable aliases together —
        correctness must survive (only performance may suffer)."""
        config = quad_config.with_(st_entries=2, indexing_counters=1)
        system = build_system(config, "syncron")
        state = lock_coupling_workload(system, num_locks=24, ops_per_core=6)
        assert state["count"] == 6 * len(system.cores)


@pytest.mark.parametrize(
    "mechanism", ("syncron_central_ovrfl", "syncron_distrib_ovrfl")
)
class TestAbortOverflowVariants:
    def test_correct_under_heavy_overflow(self, quad_config, mechanism):
        config = quad_config.with_(st_entries=2)
        system = build_system(config, mechanism)
        state = lock_coupling_workload(system, num_locks=32, ops_per_core=8)
        assert state["count"] == 8 * len(system.cores)
        assert system.stats.st_overflow_requests > 0

    def test_no_overflow_means_identical_behaviour(self, quad_config, mechanism):
        results = {}
        for mech in ("syncron", mechanism):
            system = build_system(quad_config.with_(st_entries=1024), mech)
            lock_coupling_workload(system, num_locks=8, ops_per_core=5)
            results[mech] = system.sim.now
        assert results[mechanism] == results["syncron"]

    @pytest.mark.parametrize("config", ["tiny_config", "quad_config"])
    def test_condvar_wait_releases_its_lock_once(self, request, config,
                                                 mechanism):
        """A cond_wait whose condvar is fallback-serviced releases its lock
        once, at the fallback server, and signals reach the waiters there
        (it used to release twice and lose signals at the Master SE: a
        ProtocolError on 4 units, a livelock on 2)."""
        config = request.getfixturevalue(config).with_(st_entries=1)
        metrics = run_workload(
            lambda: PrimitiveMicrobench("condvar", interval=50, rounds=3),
            config, mechanism, max_events=200_000,
        )
        assert metrics.stats["st_overflow_requests"] > 0

    def test_fallback_variables_switch_back(self, quad_config, mechanism):
        config = quad_config.with_(st_entries=2)
        system = build_system(config, mechanism)
        lock_coupling_workload(system, num_locks=32, ops_per_core=8)
        assert not system.mechanism._fallback_vars, "stuck in fallback mode"
        assert all(v == 0 for v in system.mechanism._inflight.values())


class TestCentralVsDistribOverflow:
    def test_central_fallback_is_slowest(self, quad_config):
        """One fallback server for everything serializes worse than one per
        unit (the Fig. 23 ordering between the two MiSAR variants)."""
        cycles = {}
        for mech in ("syncron_central_ovrfl", "syncron_distrib_ovrfl"):
            system = build_system(quad_config.with_(st_entries=2), mech)
            lock_coupling_workload(system, num_locks=48, ops_per_core=10)
            cycles[mech] = system.sim.now
        assert cycles["syncron_central_ovrfl"] > cycles["syncron_distrib_ovrfl"]
