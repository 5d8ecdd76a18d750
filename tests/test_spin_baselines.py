"""The Sec. 2.2.1 spin-wait baselines: remote atomics and Lamport bakery.

Semantics tests cover the primitives each baseline implements (mutual
exclusion on both; bounded semaphores on ``rmw_spin``) and that every other
op is rejected by name.  They are joined by cost-model tests for the claims
the baselines exist to demonstrate: spinning hammers the variable's home
unit (traffic, retries) and the bakery scan cost grows with the core count.
"""

import pytest

from repro.core import api
from repro.sim.config import ndp_2_5d
from repro.sim.program import Compute
from repro.sim.system import NDPSystem
from repro.sync.bakery import BakeryMechanism, _BakeryLockState
from repro.sync.remote_atomics import RemoteAtomicsMechanism, WRITER_BIT

from repro.testing import SPIN_MECHANISMS, build_system


# ----------------------------------------------------------------------
# Packed-word helpers
# ----------------------------------------------------------------------
class TestPackedWords:
    def test_writer_bit_does_not_collide_with_reader_counts(self):
        assert WRITER_BIT > (1 << 32)
        word = WRITER_BIT
        assert word & WRITER_BIT
        assert (word + 5) - WRITER_BIT == 5


# ----------------------------------------------------------------------
# Primitive semantics on both baselines
# ----------------------------------------------------------------------
class TestSpinPrimitives:
    @pytest.mark.parametrize("mechanism", SPIN_MECHANISMS)
    def test_lock_mutual_exclusion(self, tiny_config, mechanism):
        system = build_system(tiny_config, mechanism)
        lock = system.create_syncvar(name="L")
        state = {"counter": 0, "inside": 0, "max_inside": 0}

        def worker():
            for _ in range(6):
                yield api.lock_acquire(lock)
                state["inside"] += 1
                state["max_inside"] = max(state["max_inside"], state["inside"])
                state["counter"] += 1
                yield Compute(10)
                state["inside"] -= 1
                yield api.lock_release(lock)

        system.run_programs({c.core_id: worker() for c in system.cores})
        assert state["max_inside"] == 1
        assert state["counter"] == 6 * len(system.cores)

    @pytest.mark.parametrize("mechanism", SPIN_MECHANISMS)
    def test_lock_on_remote_unit(self, tiny_config, mechanism):
        system = build_system(tiny_config, mechanism)
        lock = system.create_syncvar(unit=1)
        state = {"counter": 0}

        def worker():
            for _ in range(4):
                yield api.lock_acquire(lock)
                state["counter"] += 1
                yield api.lock_release(lock)

        system.run_programs(
            {c.core_id: worker() for c in system.cores_in_unit(0)}
        )
        assert state["counter"] == 4 * len(system.cores_in_unit(0))

    @pytest.mark.parametrize("mechanism", ["rmw_spin"])
    def test_semaphore_bounds_concurrency(self, tiny_config, mechanism):
        system = build_system(tiny_config, mechanism)
        sem = system.create_syncvar(name="S")
        K = 2
        state = {"inside": 0, "max_inside": 0, "completed": 0}

        def worker():
            for _ in range(3):
                yield api.sem_wait(sem, K)
                state["inside"] += 1
                state["max_inside"] = max(state["max_inside"], state["inside"])
                yield Compute(30)
                state["inside"] -= 1
                state["completed"] += 1
                yield api.sem_post(sem)

        system.run_programs({c.core_id: worker() for c in system.cores})
        assert state["max_inside"] <= K
        assert state["completed"] == 3 * len(system.cores)

    @pytest.mark.parametrize("mechanism,program", [
        ("bakery", lambda v, lock: [api.barrier_wait_across_units(v, 1)]),
        ("bakery", lambda v, lock: [api.sem_post(v)]),
        ("bakery", lambda v, lock: [api.cond_signal(v)]),
        ("bakery", lambda v, lock: [api.rw_read_acquire(v)]),
        ("rmw_spin", lambda v, lock: [api.barrier_wait_within_unit(v, 1)]),
        ("rmw_spin", lambda v, lock: [api.lock_acquire(lock),
                                      api.cond_wait(v, lock)]),
    ], ids=["bakery-barrier", "bakery-semaphore", "bakery-condvar",
            "bakery-rwlock", "rmw_spin-barrier", "rmw_spin-condvar"])
    def test_unimplemented_op_raises_naming_what_is_implemented(
            self, tiny_config, mechanism, program):
        """Each baseline implements only the primitives its experiments
        measure; any other op fails loudly instead of simulating."""
        system = build_system(tiny_config, mechanism)
        var = system.create_syncvar(name="V")
        lock = system.create_syncvar(name="L")
        ops = program(var, lock)

        def worker():
            yield from ops

        implemented = ", ".join(system.mechanism.OPS)
        with pytest.raises(NotImplementedError) as info:
            system.run_programs({system.cores[0].core_id: worker()})
        message = str(info.value)
        assert f"mechanism {mechanism!r}" in message
        assert repr(ops[-1].op) in message
        assert message.endswith(f"it implements {implemented}")
        assert "lock_acquire" in implemented

    @pytest.mark.parametrize("mechanism", SPIN_MECHANISMS)
    def test_variable_destroy_clears_state(self, tiny_config, mechanism):
        system = build_system(tiny_config, mechanism)
        lock = system.create_syncvar(name="L")

        def worker():
            yield api.lock_acquire(lock)
            yield api.lock_release(lock)

        system.run_programs({system.cores[0].core_id: worker()})
        system.destroy_syncvar(lock)
        mech = system.mechanism
        if isinstance(mech, RemoteAtomicsMechanism):
            assert mech.field_value(lock, "lock") == 0
        else:
            assert mech.lock_owner(lock) is None


# ----------------------------------------------------------------------
# Cost-model claims (why these baselines exist)
# ----------------------------------------------------------------------
class TestSpinCostModel:
    def _contended_run(self, mechanism: str, ops: int = 6):
        config = ndp_2_5d(num_units=2, cores_per_unit=4, client_cores_per_unit=3)
        system = NDPSystem(config, mechanism=mechanism)
        lock = system.create_syncvar(unit=0)
        state = {"counter": 0}

        def worker():
            for _ in range(ops):
                yield api.lock_acquire(lock)
                state["counter"] += 1
                yield Compute(20)
                yield api.lock_release(lock)

        makespan = system.run_programs({c.core_id: worker() for c in system.cores})
        return system, makespan

    def test_spinning_generates_retries_under_contention(self):
        system, _ = self._contended_run("rmw_spin")
        assert system.stats.extra["spin_retries"] > 0

    def test_spin_traffic_exceeds_syncron(self):
        """Consecutive rmw retries to the home unit must generate more
        inter-unit messages than SynCron's hierarchical aggregation."""
        spin, _ = self._contended_run("rmw_spin")
        syncron, _ = self._contended_run("syncron")
        assert spin.stats.sync_messages_global > syncron.stats.sync_messages_global

    def test_syncron_faster_than_spin_under_contention(self):
        _, spin_time = self._contended_run("rmw_spin")
        _, syncron_time = self._contended_run("syncron")
        assert syncron_time < spin_time

    def test_bakery_scan_cost_scales_with_core_count(self):
        """O(N) loads per attempt: doubling the clients should more than
        double the synchronization memory accesses per acquire."""
        per_acquire = {}
        for clients in (2, 4):
            config = ndp_2_5d(
                num_units=1, cores_per_unit=clients + 1,
                client_cores_per_unit=clients,
            )
            system = NDPSystem(config, mechanism="bakery")
            lock = system.create_syncvar(unit=0)

            def worker():
                for _ in range(4):
                    yield api.lock_acquire(lock)
                    yield api.lock_release(lock)

            system.run_programs({c.core_id: worker() for c in system.cores})
            acquires = 4 * clients
            per_acquire[clients] = system.stats.sync_memory_accesses / acquires
        assert per_acquire[4] > 1.5 * per_acquire[2]

    def test_bakery_slower_than_remote_atomics(self):
        _, bakery_time = self._contended_run("bakery", ops=3)
        _, spin_time = self._contended_run("rmw_spin", ops=3)
        assert bakery_time > spin_time

    def test_atomic_unit_serializes_visits(self):
        system, _ = self._contended_run("rmw_spin")
        mech = system.mechanism
        total_visits = sum(u.visits for u in mech.atomic_units)
        # Every lock acquire needs >=1 visit; the contended home unit sees
        # nearly all of them.
        assert total_visits >= system.stats.sync_requests_total
        assert mech.atomic_units[0].visits > mech.atomic_units[1].visits

    def test_backoff_config_changes_retry_count(self):
        """Longer backoff means fewer (but longer-spaced) retries."""
        retries = {}
        for backoff in (8, 256):
            config = ndp_2_5d(
                num_units=2, cores_per_unit=4, client_cores_per_unit=3,
                spin_backoff_cycles=backoff,
            )
            system = NDPSystem(config, mechanism="rmw_spin")
            lock = system.create_syncvar(unit=0)

            def worker():
                for _ in range(5):
                    yield api.lock_acquire(lock)
                    yield Compute(20)
                    yield api.lock_release(lock)

            system.run_programs({c.core_id: worker() for c in system.cores})
            retries[backoff] = system.stats.extra["spin_retries"]
        assert retries[256] < retries[8]


# ----------------------------------------------------------------------
# Bakery internals
# ----------------------------------------------------------------------
class TestBakeryLockState:
    def test_fifo_ticket_order(self):
        state = _BakeryLockState()
        t3 = state.take_ticket(3)
        t1 = state.take_ticket(1)
        t2 = state.take_ticket(2)
        assert state.owner == t3 and state.owner_core == 3
        state.release(3)
        assert state.owner == t1 and state.owner_core == 1
        state.release(1)
        assert state.owner == t2 and state.owner_core == 2
        state.release(2)
        assert state.owner is None and state.owner_core is None

    def test_release_by_non_owner_raises(self):
        state = _BakeryLockState()
        state.take_ticket(5)
        with pytest.raises(RuntimeError):
            state.release(7)

    def test_concurrent_acquisitions_by_one_core_grant_once_each(self):
        # One core with several acquisitions in flight (an async release
        # plus the next acquire): ownership is per ticket, so each
        # acquisition is granted and released exactly once, in FIFO order.
        state = _BakeryLockState()
        a = state.take_ticket(3)
        b = state.take_ticket(3)
        other = state.take_ticket(4)
        assert state.owner == a
        state.release(3)
        assert state.owner == b and state.owner_core == 3
        state.release(3)
        assert state.owner == other and state.owner_core == 4
        with pytest.raises(RuntimeError):
            state.release(3)  # core 3 holds nothing anymore
        state.release(4)
        assert state.owner is None

    def test_scan_rounds_counted(self, tiny_config):
        system = build_system(tiny_config, "bakery")
        lock = system.create_syncvar()

        def worker():
            for _ in range(3):
                yield api.lock_acquire(lock)
                yield Compute(50)
                yield api.lock_release(lock)

        system.run_programs({c.core_id: worker() for c in system.cores})
        assert isinstance(system.mechanism, BakeryMechanism)
        assert system.stats.extra["bakery_scans"] > 0
