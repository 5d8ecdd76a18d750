"""Hardware thread contexts per core (Sec. 4 SMT note).

The paper says SynCron supports SMT cores by giving each hardware thread
context its own waiting-list bit.  Our model adds the core-side half: the
contexts share the physical core's in-order pipeline (1 issue per cycle)
and its L1, while memory latency and synchronization waits overlap — the
latency-hiding SMT exists for.
"""

import pytest

from repro.core import api
from repro.sim.config import ndp_2_5d
from repro.sim.program import Compute, Load, batch
from repro.sim.smt import IssuePort
from repro.sim.system import NDPSystem


def smt_config(threads: int, **overrides):
    return ndp_2_5d(
        num_units=2, cores_per_unit=3, client_cores_per_unit=2,
        threads_per_core=threads, **overrides,
    )


class TestIssuePort:
    def test_sequential_reservations_chain(self):
        port = IssuePort()
        assert port.reserve(0, 5) == 0
        assert port.reserve(0, 3) == 5
        assert port.reserve(20, 1) == 20

    def test_wait_time(self):
        port = IssuePort()
        port.reserve(0, 10)
        assert port.wait_time(4) == 6
        assert port.wait_time(15) == 0

    def test_issue_counter(self):
        port = IssuePort()
        for _ in range(3):
            port.reserve(0, 1)
        assert port.issues == 3


class TestTopology:
    def test_context_count(self):
        system = NDPSystem(smt_config(2), mechanism="syncron")
        assert len(system.cores) == 2 * 2 * 2  # units x cores x contexts

    def test_context_ids_unique_and_dense(self):
        system = NDPSystem(smt_config(3), mechanism="syncron")
        ids = [core.core_id for core in system.cores]
        assert ids == list(range(len(system.cores)))
        per_unit = {}
        for core in system.cores:
            per_unit.setdefault(core.unit_id, []).append(core.local_id)
        for locals_ in per_unit.values():
            assert sorted(locals_) == list(range(len(locals_)))

    def test_contexts_share_l1_and_port(self):
        system = NDPSystem(smt_config(2), mechanism="syncron")
        first, second = system.cores[0], system.cores[1]
        assert first.l1 is second.l1
        assert first.port is second.port
        third = system.cores[2]
        assert third.l1 is not first.l1

    def test_single_thread_has_no_port(self):
        system = NDPSystem(smt_config(1), mechanism="syncron")
        assert all(core.port is None for core in system.cores)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            smt_config(0).validate()


class TestTimingSemantics:
    def test_single_context_timing_unchanged_by_port_machinery(self):
        """threads_per_core=1 must be bit-identical to the original model."""
        def run(threads):
            system = NDPSystem(smt_config(threads), mechanism="syncron")
            lock = system.create_syncvar(unit=0)

            def worker():
                for _ in range(4):
                    yield api.lock_acquire(lock)
                    yield Compute(10)
                    yield api.lock_release(lock)

            # Only one context per physical slot participates, so the SMT
            # system runs the same program set on the same resources.
            participants = [
                core for core in system.cores
                if core.local_id % threads == 0
            ]
            return system.run_programs(
                {c.core_id: worker() for c in participants}
            )

        assert run(1) == run(2)

    def test_compute_serializes_on_shared_pipeline(self):
        """Two pure-compute contexts on one core take twice as long."""
        system = NDPSystem(smt_config(2), mechanism="ideal")
        first, second = system.cores[0], system.cores[1]

        def worker():
            yield Compute(1000)

        makespan = system.run_programs(
            {first.core_id: worker(), second.core_id: worker()}
        )
        assert makespan >= 2000

    def test_memory_latency_hides_behind_sibling_loads(self):
        """Two memory-bound contexts overlap their long-latency loads: each
        load needs one issue cycle, the ~hundreds of wait cycles run
        off-port, so the pair costs far less than twice one stream."""
        def memory_worker(system):
            remote = system.addrmap.alloc(unit=1, nbytes=8)

            def worker():
                for _ in range(50):
                    yield Load(remote, cacheable=False)

            return worker()

        solo = NDPSystem(smt_config(2), mechanism="ideal")
        alone = solo.run_programs(
            {solo.cores[0].core_id: memory_worker(solo)}
        )

        pair = NDPSystem(smt_config(2), mechanism="ideal")
        makespan = pair.run_programs({
            pair.cores[0].core_id: memory_worker(pair),
            pair.cores[1].core_id: memory_worker(pair),
        })
        # Near-perfect overlap: well under 1.5x one stream (serial would
        # be ~2x).
        assert makespan < 1.5 * alone

    def test_sync_wait_frees_the_pipeline(self):
        """While context A waits for a lock held remotely, context B's
        compute stream proceeds."""
        config = smt_config(2)
        system = NDPSystem(config, mechanism="syncron")
        lock = system.create_syncvar(unit=1)
        a, b = system.cores[0], system.cores[1]
        order = []

        def locker():
            yield api.lock_acquire(lock)
            yield Compute(4000)
            order.append("locker_done")
            yield api.lock_release(lock)

        def blocked_then_compute():
            yield api.lock_acquire(lock)
            order.append("second_acquire")
            yield api.lock_release(lock)

        def background():
            yield Compute(500)
            order.append("background_done")

        remote = system.cores_in_unit(1)[0]
        makespan = system.run_programs({
            remote.core_id: locker(),
            a.core_id: blocked_then_compute(),
            b.core_id: background(),
        })
        # b finished its compute while a was parked on the lock.
        assert order.index("background_done") < order.index("second_acquire")
        assert makespan > 4000

    def test_batch_reserves_issue_slots(self):
        system = NDPSystem(smt_config(2), mechanism="ideal")
        first, second = system.cores[0], system.cores[1]
        addr = system.addrmap.alloc(unit=0, nbytes=64)

        def worker():
            yield batch(Compute(5), Load(addr), Compute(5))

        system.run_programs(
            {first.core_id: worker(), second.core_id: worker()}
        )
        assert first.port.issues >= 2


class TestSynchronizationAcrossContexts:
    @pytest.mark.parametrize("mechanism", ("syncron", "central", "ideal"))
    def test_mutual_exclusion_between_sibling_contexts(self, mechanism):
        system = NDPSystem(smt_config(2), mechanism=mechanism)
        lock = system.create_syncvar()
        state = {"inside": 0, "max": 0, "count": 0}

        def worker():
            for _ in range(5):
                yield api.lock_acquire(lock)
                state["inside"] += 1
                state["max"] = max(state["max"], state["inside"])
                state["count"] += 1
                yield Compute(10)
                state["inside"] -= 1
                yield api.lock_release(lock)

        system.run_programs({c.core_id: worker() for c in system.cores})
        assert state["max"] == 1
        assert state["count"] == 5 * len(system.cores)

    def test_barrier_counts_contexts(self):
        """An across-units barrier over every context must include the
        sibling contexts in the per-unit aggregation."""
        system = NDPSystem(smt_config(2), mechanism="syncron")
        bar = system.create_syncvar()
        n = len(system.cores)
        phases = {"done": 0}

        def worker():
            for _ in range(3):
                yield api.barrier_wait_across_units(bar, n)
            phases["done"] += 1

        makespan = system.run_programs(
            {c.core_id: worker() for c in system.cores}
        )
        assert phases["done"] == n
        assert makespan > 0

    def test_smt_hides_sync_latency_on_real_mix(self):
        """Doubling contexts on a sync+compute mix should cut the makespan
        (not necessarily 2x, but real gains), because grant waits overlap
        with the sibling's compute."""
        def run(threads):
            system = NDPSystem(smt_config(threads), mechanism="syncron")
            lock = system.create_syncvar(unit=0)
            total_rounds = 48 // threads  # same total work per physical core

            def worker():
                for _ in range(total_rounds):
                    yield api.lock_acquire(lock)
                    yield Compute(5)
                    yield api.lock_release(lock)
                    yield Compute(200)

            system.run_programs({c.core_id: worker() for c in system.cores})
            return system.sim.now

        single = run(1)
        dual = run(2)
        assert dual < single
