"""Reader-writer lock semantics across every mechanism.

The rw lock is SynCron's generality extension beyond the paper's four
primitives (LCU supports reader-writer locks natively, Sec. 4.5).  Writer
exclusivity and reader sharing are checked inside the simulated programs;
the SE-protocol scheme additionally guarantees fair FIFO ordering (a queued
writer blocks later readers), which the spin baselines deliberately do not.
"""

import pytest

from repro.core import api
from repro.core.protocol import ProtocolError
from repro.sim.program import Compute, RW_READ_ACQUIRE, RW_WRITE_ACQUIRE
from repro.sync.logic import LogicError, SyncLogic

from repro.testing import ALL_MECHANISMS, build_system

#: the bakery baseline implements no rw lock.
RW_MECHANISMS = ALL_MECHANISMS + ("rmw_spin",)


def run_rw_workload(system, rwlock, reader_every=3, rounds=5, cs=15):
    """Mixed readers/writers on one rw lock; returns the observation dict."""
    state = {
        "readers": 0, "writers": 0, "max_readers": 0,
        "violations": 0, "reads": 0, "writes": 0,
    }

    def reader():
        for _ in range(rounds):
            yield api.rw_read_acquire(rwlock)
            state["readers"] += 1
            state["max_readers"] = max(state["max_readers"], state["readers"])
            if state["writers"]:
                state["violations"] += 1
            yield Compute(cs)
            state["readers"] -= 1
            state["reads"] += 1
            yield api.rw_read_release(rwlock)

    def writer():
        for _ in range(rounds):
            yield api.rw_write_acquire(rwlock)
            state["writers"] += 1
            if state["writers"] > 1 or state["readers"]:
                state["violations"] += 1
            yield Compute(cs)
            state["writers"] -= 1
            state["writes"] += 1
            yield api.rw_write_release(rwlock)

    programs = {}
    for i, core in enumerate(system.cores):
        is_writer = i % reader_every == 0
        programs[core.core_id] = writer() if is_writer else reader()
    system.run_programs(programs)
    return state


@pytest.mark.parametrize("mechanism", RW_MECHANISMS)
class TestRWLockAcrossMechanisms:
    def test_writer_exclusive_readers_shared(self, tiny_config, mechanism):
        system = build_system(tiny_config, mechanism)
        rwlock = system.create_syncvar(name="RW")
        state = run_rw_workload(system, rwlock)
        assert state["violations"] == 0
        n = len(system.cores)
        writers = (n + 2) // 3
        assert state["writes"] == 5 * writers
        assert state["reads"] == 5 * (n - writers)

    def test_readers_actually_share(self, tiny_config, mechanism):
        """With reader-only load and long critical sections, concurrency
        must exceed one (the whole point of an rw lock)."""
        system = build_system(tiny_config, mechanism)
        rwlock = system.create_syncvar(name="RW")
        state = {"readers": 0, "max_readers": 0}

        def reader():
            for _ in range(4):
                yield api.rw_read_acquire(rwlock)
                state["readers"] += 1
                state["max_readers"] = max(state["max_readers"], state["readers"])
                yield Compute(4000)
                state["readers"] -= 1
                yield api.rw_read_release(rwlock)

        system.run_programs({c.core_id: reader() for c in system.cores})
        assert state["max_readers"] > 1

    def test_remote_home_unit(self, tiny_config, mechanism):
        system = build_system(tiny_config, mechanism)
        rwlock = system.create_syncvar(unit=1)
        state = run_rw_workload(system, rwlock, rounds=3)
        assert state["violations"] == 0

    def test_write_only_degenerates_to_mutex(self, tiny_config, mechanism):
        system = build_system(tiny_config, mechanism)
        rwlock = system.create_syncvar(name="RW")
        state = {"inside": 0, "max_inside": 0, "count": 0}

        def writer():
            for _ in range(4):
                yield api.rw_write_acquire(rwlock)
                state["inside"] += 1
                state["max_inside"] = max(state["max_inside"], state["inside"])
                state["count"] += 1
                yield Compute(10)
                state["inside"] -= 1
                yield api.rw_write_release(rwlock)

        system.run_programs({c.core_id: writer() for c in system.cores})
        assert state["max_inside"] == 1
        assert state["count"] == 4 * len(system.cores)


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
class TestRWLockFairness:
    def test_writer_not_starved_by_reader_stream(self, tiny_config, mechanism):
        """Fair FIFO: a writer that queues behind active readers must be
        granted before readers that request after it.  (The spin baselines
        are deliberately reader-preferring, hence ALL_MECHANISMS only.)"""
        system = build_system(tiny_config, mechanism)
        rwlock = system.create_syncvar(name="RW")
        progress = {"writes": 0, "reads_after_first_write": None, "reads": 0}

        def reader():
            for _ in range(12):
                yield api.rw_read_acquire(rwlock)
                progress["reads"] += 1
                yield Compute(300)
                yield api.rw_read_release(rwlock)

        def writer():
            yield Compute(900)  # let readers establish a steady stream
            yield api.rw_write_acquire(rwlock)
            progress["writes"] += 1
            progress["reads_after_first_write"] = progress["reads"]
            yield Compute(50)
            yield api.rw_write_release(rwlock)

        cores = system.cores
        programs = {c.core_id: reader() for c in cores[:-1]}
        programs[cores[-1].core_id] = writer()
        system.run_programs(programs)
        assert progress["writes"] == 1
        # The writer won before the reader stream drained completely.
        assert progress["reads_after_first_write"] < 12 * (len(cores) - 1)


class TestRWLockLogic:
    """Unit tests of the timing-free reference semantics."""

    class _Var:
        def __init__(self, addr=0x1000, name="rw"):
            self.addr = addr
            self.name = name

    def test_concurrent_readers(self):
        logic, var = SyncLogic(), self._Var()
        assert logic.apply(0, RW_READ_ACQUIRE, var) == [0]
        assert logic.apply(1, RW_READ_ACQUIRE, var) == [1]
        assert logic.rw_readers(var) == 2

    def test_writer_waits_for_readers(self):
        logic, var = SyncLogic(), self._Var()
        logic.apply(0, RW_READ_ACQUIRE, var)
        logic.apply(1, RW_READ_ACQUIRE, var)
        assert logic.apply(2, RW_WRITE_ACQUIRE, var) == []
        assert logic.apply(0, "rw_read_release", var) == []
        assert logic.apply(1, "rw_read_release", var) == [2]
        assert logic.rw_writer(var) == 2

    def test_queued_writer_blocks_later_readers(self):
        logic, var = SyncLogic(), self._Var()
        logic.apply(0, RW_READ_ACQUIRE, var)
        assert logic.apply(1, RW_WRITE_ACQUIRE, var) == []
        # Reader 2 arrives after writer 1 queued: it must wait.
        assert logic.apply(2, RW_READ_ACQUIRE, var) == []
        assert logic.apply(0, "rw_read_release", var) == [1]
        assert logic.apply(1, "rw_write_release", var) == [2]

    def test_release_wakes_reader_batch(self):
        logic, var = SyncLogic(), self._Var()
        logic.apply(0, RW_WRITE_ACQUIRE, var)
        logic.apply(1, RW_READ_ACQUIRE, var)
        logic.apply(2, RW_READ_ACQUIRE, var)
        logic.apply(3, RW_READ_ACQUIRE, var)
        woken = logic.apply(0, "rw_write_release", var)
        assert woken == [1, 2, 3]
        assert logic.rw_readers(var) == 3

    def test_read_release_without_reader_raises(self):
        logic, var = SyncLogic(), self._Var()
        with pytest.raises(LogicError):
            logic.apply(0, "rw_read_release", var)

    def test_write_release_by_non_owner_raises(self):
        logic, var = SyncLogic(), self._Var()
        logic.apply(0, RW_WRITE_ACQUIRE, var)
        with pytest.raises(LogicError):
            logic.apply(1, "rw_write_release", var)

    def test_kind_mismatch_raises(self):
        logic, var = SyncLogic(), self._Var()
        logic.apply(0, "lock_acquire", var)
        with pytest.raises(LogicError):
            logic.apply(1, RW_READ_ACQUIRE, var)

    def test_waiters_counts_rw_queue(self):
        logic, var = SyncLogic(), self._Var()
        logic.apply(0, RW_WRITE_ACQUIRE, var)
        logic.apply(1, RW_READ_ACQUIRE, var)
        logic.apply(2, RW_WRITE_ACQUIRE, var)
        assert logic.waiters(var) == 2


class TestRWLockProtocolErrors:
    """Failure injection on the SE protocol path."""

    def test_read_release_without_acquire_raises(self, tiny_config):
        system = build_system(tiny_config, "syncron")
        rwlock = system.create_syncvar(unit=0, name="RW")

        def bad_worker():
            yield api.rw_read_release(rwlock)

        core = system.cores_in_unit(0)[0]
        with pytest.raises(ProtocolError):
            system.run_programs({core.core_id: bad_worker()})

    def test_write_release_by_non_owner_raises(self, tiny_config):
        system = build_system(tiny_config, "syncron")
        rwlock = system.create_syncvar(unit=0, name="RW")
        cores = system.cores_in_unit(0)

        def owner():
            yield api.rw_write_acquire(rwlock)
            yield Compute(5000)
            yield api.rw_write_release(rwlock)

        def impostor():
            yield Compute(500)
            yield api.rw_write_release(rwlock)

        with pytest.raises(ProtocolError):
            system.run_programs(
                {cores[0].core_id: owner(), cores[1].core_id: impostor()}
            )

    def test_mixing_rwlock_with_lock_ops_raises(self, tiny_config):
        # The single-use rule is enforced by the shared admission check
        # (SyncUsageError, of which ProtocolError is a subclass) for every
        # mechanism, not just SynCron's engine.
        from repro.sim.syncif import SyncUsageError

        system = build_system(tiny_config, "syncron")
        var = system.create_syncvar(name="X")

        def worker():
            yield api.rw_write_acquire(var)
            yield api.lock_release(var)

        core = system.cores[0]
        with pytest.raises(SyncUsageError):
            system.run_programs({core.core_id: worker()})


class TestRWLockSynCronInternals:
    def test_st_entries_drain_after_quiescence(self, quad_config):
        system = build_system(quad_config, "syncron")
        rwlock = system.create_syncvar(name="RW")
        state = run_rw_workload(system, rwlock, rounds=4)
        assert state["violations"] == 0
        for se in system.mechanism.ses:
            assert se.st.occupied == 0
            assert len(se.store) == 0

    def test_master_coordination_is_one_level(self, quad_config):
        """Every rw request from a remote unit crosses to the master once;
        there is no per-unit aggregation (unlike locks)."""
        system = build_system(quad_config, "syncron")
        rwlock = system.create_syncvar(unit=0, name="RW")
        cores = system.cores_in_unit(1)

        def reader():
            for _ in range(5):
                yield api.rw_read_acquire(rwlock)
                yield api.rw_read_release(rwlock)

        system.run_programs({c.core_id: reader() for c in cores})
        # acquire+release forwarded per op, plus per-grant responses.
        assert system.stats.sync_messages_global >= 2 * 5 * len(cores)

    def test_overflowed_master_services_rw_via_memory(self, tiny_config):
        """With a 1-entry ST filled by another variable, rw requests at the
        master take the syncronVar memory path and still work."""
        config = tiny_config.with_(st_entries=1)
        system = build_system(config, "syncron")
        blocker = system.create_syncvar(unit=0, name="BL")
        rwlock = system.create_syncvar(unit=0, name="RW")
        cores = system.cores_in_unit(0)
        state = {"reads": 0}

        def holder():
            # Keeps the blocker lock (and its ST entry) live the whole run.
            yield api.lock_acquire(blocker)
            yield Compute(20000)
            yield api.lock_release(blocker)

        def reader():
            for _ in range(3):
                yield api.rw_read_acquire(rwlock)
                state["reads"] += 1
                yield api.rw_read_release(rwlock)

        programs = {cores[0].core_id: holder()}
        for core in cores[1:]:
            programs[core.core_id] = reader()
        system.run_programs(programs)
        assert state["reads"] == 3 * (len(cores) - 1)
        assert system.stats.st_overflow_requests > 0
