"""Mechanism-specific behaviour: Central, Hier, Ideal, flat, SyncLogic."""

import pytest

from repro.core import api
from repro.sim.program import (
    BARRIER_WAIT_ACROSS_UNITS,
    COND_SIGNAL,
    COND_WAIT,
    Compute,
    LOCK_ACQUIRE,
    LOCK_RELEASE,
    RW_READ_ACQUIRE,
    RW_WRITE_ACQUIRE,
    SEM_POST,
    SEM_WAIT,
)
from repro.sim.syncif import SyncVar
from repro.sync.logic import LogicError, SyncLogic

from repro.testing import build_system


def contended_lock_cycles(config, mechanism, ops=6):
    system = build_system(config, mechanism)
    lock = system.create_syncvar(unit=0)

    def worker():
        for _ in range(ops):
            yield api.lock_acquire(lock)
            yield Compute(10)
            yield api.lock_release(lock)

    system.run_programs({c.core_id: worker() for c in system.cores})
    return system


class TestMechanismOrdering:
    def test_high_contention_ordering(self, quad_config):
        """The paper's high-contention ranking: Ideal < SynCron <= Hier <
        Central (in cycles)."""
        cycles = {
            mech: contended_lock_cycles(quad_config, mech).sim.now
            for mech in ("central", "hier", "syncron", "ideal")
        }
        assert cycles["ideal"] < cycles["syncron"]
        assert cycles["syncron"] <= cycles["hier"]
        assert cycles["hier"] < cycles["central"]

    def test_flat_worse_than_hierarchical_under_contention(self, quad_config):
        flat = contended_lock_cycles(quad_config, "syncron_flat").sim.now
        hier = contended_lock_cycles(quad_config, "syncron").sim.now
        assert hier < flat

    def test_ideal_adds_no_traffic(self, quad_config):
        system = contended_lock_cycles(quad_config, "ideal")
        assert system.stats.sync_messages_local == 0
        assert system.stats.sync_messages_global == 0
        assert system.stats.sync_memory_accesses == 0

    def test_central_funnels_traffic_to_one_unit(self, quad_config):
        system = contended_lock_cycles(quad_config, "central")
        # 3 of 4 units must cross the links for every request.
        assert system.stats.sync_messages_global > system.stats.sync_messages_local

    def test_hier_uses_memory_for_sync_syncron_does_not(self, quad_config):
        hier = contended_lock_cycles(quad_config, "hier")
        syncron = contended_lock_cycles(quad_config, "syncron")
        assert hier.stats.sync_memory_accesses > 0
        assert syncron.stats.sync_memory_accesses == 0  # ST-buffered


class TestServerCostModel:
    def test_server_charges_l1_accesses(self, quad_config):
        system = contended_lock_cycles(quad_config, "hier")
        # server L1s see the sync-state accesses
        assert system.stats.cache_hits + system.stats.cache_misses > 0

    def test_central_server_misses_cross_units(self, quad_config):
        """The Central server's first access to a remote variable's line
        crosses the inter-unit link (part of why Central scales badly)."""
        system = build_system(quad_config, "central")
        remote_var = system.create_syncvar(unit=3)

        def worker():
            yield api.lock_acquire(remote_var)
            yield api.lock_release(remote_var)

        before = system.stats.bytes_across_units
        system.run_programs({0: worker()})
        assert system.stats.bytes_across_units > before


class TestSyncLogic:
    def make_var(self, name="v"):
        return SyncVar(addr=hash(name) % (1 << 20) * 64, unit=0, name=name)

    def test_lock_grant_and_queue(self):
        logic = SyncLogic()
        var = self.make_var()
        assert logic.apply(1, LOCK_ACQUIRE, var) == [1]
        assert logic.apply(2, LOCK_ACQUIRE, var) == []
        assert logic.apply(1, LOCK_RELEASE, var) == [2]
        assert logic.lock_owner(var) == 2

    def test_release_by_non_owner_raises(self):
        logic = SyncLogic()
        var = self.make_var()
        logic.apply(1, LOCK_ACQUIRE, var)
        with pytest.raises(LogicError):
            logic.apply(2, LOCK_RELEASE, var)

    def test_barrier_wakes_all_at_once(self):
        logic = SyncLogic()
        var = self.make_var("b")
        assert logic.apply(1, BARRIER_WAIT_ACROSS_UNITS, var, 3) == []
        assert logic.apply(2, BARRIER_WAIT_ACROSS_UNITS, var, 3) == []
        woken = logic.apply(3, BARRIER_WAIT_ACROSS_UNITS, var, 3)
        assert sorted(woken) == [1, 2, 3]
        # reusable
        assert logic.apply(1, BARRIER_WAIT_ACROSS_UNITS, var, 3) == []

    def test_semaphore_counting(self):
        logic = SyncLogic()
        var = self.make_var("s")
        assert logic.apply(1, SEM_WAIT, var, 1) == [1]
        assert logic.apply(2, SEM_WAIT, var, 1) == []
        assert logic.apply(1, SEM_POST, var) == [2]
        assert logic.apply(2, SEM_POST, var) == []
        assert logic.sem_value(var) == 1

    def test_condvar_wait_releases_lock_and_signal_reacquires(self):
        logic = SyncLogic()
        lock = self.make_var("l")
        cond = self.make_var("c")
        logic.apply(1, LOCK_ACQUIRE, lock)
        assert logic.apply(2, LOCK_ACQUIRE, lock) == []
        # waiter 1 sleeps; the lock passes to 2.
        assert logic.apply(1, COND_WAIT, cond, lock) == [2]
        # 2 signals then releases: 1 re-acquires and wakes.
        assert logic.apply(2, COND_SIGNAL, cond) == []
        assert logic.apply(2, LOCK_RELEASE, lock) == [1]

    def test_signal_with_no_waiters_is_noop(self):
        logic = SyncLogic()
        cond = self.make_var("c")
        assert logic.apply(1, COND_SIGNAL, cond) == []

    def test_kind_mismatch_raises(self):
        logic = SyncLogic()
        var = self.make_var()
        logic.apply(1, LOCK_ACQUIRE, var)
        with pytest.raises(LogicError):
            logic.apply(2, SEM_WAIT, var, 1)

    def test_waiters_introspection(self):
        logic = SyncLogic()
        var = self.make_var()
        logic.apply(1, LOCK_ACQUIRE, var)
        logic.apply(2, LOCK_ACQUIRE, var)
        logic.apply(3, LOCK_ACQUIRE, var)
        assert logic.waiters(var) == 2

    #: one operation per variable kind that binds the variable to it
    #: (a condvar signal does not: a signal to a non-condvar is lost).
    KIND_OPS = {
        "lock": (LOCK_ACQUIRE, 0),
        "barrier": (BARRIER_WAIT_ACROSS_UNITS, 4),
        "semaphore": (SEM_WAIT, 1),
        "condvar": (COND_WAIT, None),
        "rwlock": (RW_READ_ACQUIRE, 0),
    }

    @pytest.mark.parametrize("first", sorted(KIND_OPS))
    @pytest.mark.parametrize("then", sorted(KIND_OPS))
    def test_every_kind_mismatch_raises(self, first, then):
        logic = SyncLogic()
        var, lock = self.make_var("v"), self.make_var("l")

        def apply(core, kind):
            op, info = self.KIND_OPS[kind]
            if op == COND_WAIT:
                logic.apply(core, LOCK_ACQUIRE, lock)
                info = lock
            return logic.apply(core, op, var, info)

        apply(1, first)
        if first == then:
            apply(2, then)
        else:
            with pytest.raises(LogicError):
                apply(2, then)

    def test_waiters_counts_every_primitive(self):
        logic = SyncLogic()
        var = {kind: self.make_var(kind) for kind in
               ("lock", "barrier", "semaphore", "condvar", "rwlock", "l")}
        for core in (1, 2, 3):
            logic.apply(core, LOCK_ACQUIRE, var["lock"])
            logic.apply(core, BARRIER_WAIT_ACROSS_UNITS, var["barrier"], 4)
            logic.apply(core, SEM_WAIT, var["semaphore"], 1)
        logic.apply(1, RW_WRITE_ACQUIRE, var["rwlock"])
        logic.apply(2, RW_READ_ACQUIRE, var["rwlock"])
        logic.apply(3, RW_WRITE_ACQUIRE, var["rwlock"])
        for core in (1, 2):
            logic.apply(core, LOCK_ACQUIRE, var["l"])
            logic.apply(core, COND_WAIT, var["condvar"], var["l"])
        waiters = {kind: logic.waiters(v) for kind, v in var.items()}
        assert waiters == {"lock": 2, "barrier": 3, "semaphore": 2,
                           "condvar": 2, "rwlock": 2, "l": 0}
        assert logic.waiters(self.make_var("never used")) == 0


@pytest.mark.parametrize("mechanism", [
    "syncron", "syncron_flat", "central", "hier", "syncron_central_ovrfl",
    "syncron_distrib_ovrfl"])
def test_mechanism_holds_only_its_engines_tables(quad_config, mechanism):
    """Every ST a mechanism folds at the end of a run belongs to an engine
    it routes to (or a fallback server): none is built and discarded."""
    mech = build_system(quad_config, mechanism).mechanism
    engines = {id(se): se for se in mech.ses}
    engines.update((id(se), se) for se in getattr(mech, "_fallbacks", ()))
    assert len(mech.tables) == len(engines)
    assert ({id(table) for table in mech.tables}
            == {id(se.st) for se in engines.values()})
