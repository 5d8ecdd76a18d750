"""Primitive microbenchmarks (paper Fig. 10).

"We devise simple benchmarks, where cores repeatedly request a single
synchronization variable", varying the instruction interval between two
synchronization points:

- **lock**: empty critical section;
- **barrier**: all cores barrier every ``interval`` instructions;
- **semaphore**: half the cores ``sem_wait``, half ``sem_post``;
- **condition variable**: half ``cond_wait``, half ``cond_signal`` (with
  the associated lock, so synchronization intensity is highest here).
"""

from __future__ import annotations

from typing import Dict

from repro.core import api
from repro.sim.program import Compute
from repro.sim.system import NDPSystem
from repro.workloads.base import Workload

#: primitive -> the primitive families its programs issue (the condvar
#: benchmark holds the condition's lock around every wait and signal).
PRIMITIVE_FAMILIES = {
    "lock": ("lock",),
    "barrier": ("barrier",),
    "semaphore": ("semaphore",),
    "condvar": ("lock", "condvar"),
}

PRIMITIVES = tuple(PRIMITIVE_FAMILIES)


class PrimitiveMicrobench(Workload):
    """Repeatedly exercise one primitive on a single variable."""

    def __init__(self, primitive: str, interval: int, rounds: int = 50):
        if primitive not in PRIMITIVES:
            raise ValueError(f"primitive must be one of {PRIMITIVES}")
        if interval < 0 or rounds < 1:
            raise ValueError("interval must be >= 0 and rounds >= 1")
        self.name = f"microbench_{primitive}"
        self.primitive = primitive
        self.interval = interval
        self.rounds = rounds
        self._ops = 0
        self._counter = {"value": 0}
        self._expected = 0

    # ------------------------------------------------------------------
    def build(self, system: NDPSystem) -> Dict[int, object]:
        builder = getattr(self, f"_build_{self.primitive}")
        programs = builder(system)
        self._ops = sum(1 for _ in programs) * self.rounds
        return programs

    def _build_lock(self, system):
        lock = system.create_syncvar(name="ubench_lock")
        self._expected = self.rounds * len(system.cores)

        def worker():
            for _ in range(self.rounds):
                yield Compute(self.interval)
                yield api.lock_acquire(lock)
                self._counter["value"] += 1  # empty critical section
                yield api.lock_release(lock)

        return {core.core_id: worker() for core in system.cores}

    def _build_barrier(self, system):
        bar = system.create_syncvar(name="ubench_barrier")
        n = len(system.cores)
        self._expected = self.rounds * n

        def worker():
            for _ in range(self.rounds):
                yield Compute(self.interval)
                self._counter["value"] += 1
                yield api.barrier_wait_across_units(bar, n)

        return {core.core_id: worker() for core in system.cores}

    def _build_semaphore(self, system):
        sem = system.create_syncvar(name="ubench_sem")
        cores = system.cores
        self._expected = self.rounds * (len(cores) // 2) * 2

        def waiter():
            for _ in range(self.rounds):
                yield Compute(self.interval)
                yield api.sem_wait(sem, 0)
                self._counter["value"] += 1

        def poster():
            for _ in range(self.rounds):
                yield Compute(self.interval)
                self._counter["value"] += 1
                yield api.sem_post(sem)

        half = len(cores) // 2
        programs = {}
        for i, core in enumerate(cores[: 2 * half]):
            programs[core.core_id] = waiter() if i < half else poster()
        return programs

    def _build_condvar(self, system):
        lock = system.create_syncvar(name="ubench_cv_lock")
        cond = system.create_syncvar(name="ubench_cv")
        cores = system.cores
        half = len(cores) // 2
        self._expected = self.rounds * half * 2
        pending = {"waiting": 0}

        def waiter():
            for _ in range(self.rounds):
                yield Compute(self.interval)
                yield api.lock_acquire(lock)
                pending["waiting"] += 1
                yield api.cond_wait(cond, lock)
                self._counter["value"] += 1
                yield api.lock_release(lock)

        def signaler():
            # Exponential backoff on failed sends.  A tight re-acquire loop
            # livelocks the whole benchmark: with the Sec. 4.4.2 fairness
            # counter disabled (fairness_threshold=0, the default), the
            # signalers' unit keeps hierarchical control of the lock forever
            # and the woken waiters on the other unit can never re-acquire
            # it — so the signalers poll for waiters that cannot arrive.
            # Backing off lets the holding SE's local waitlist drain, which
            # hands control back to the Master SE between polls.
            sent = 0
            backoff = self.interval
            while sent < self.rounds:
                yield Compute(backoff)
                yield api.lock_acquire(lock)
                if pending["waiting"] > 0:
                    pending["waiting"] -= 1
                    self._counter["value"] += 1
                    yield api.cond_signal(cond)
                    sent += 1
                    backoff = self.interval
                else:
                    backoff = min(max(backoff, 1) * 2, 16 * max(self.interval, 1))
                yield api.lock_release(lock)

        programs = {}
        for i, core in enumerate(cores[: 2 * half]):
            programs[core.core_id] = waiter() if i < half else signaler()
        return programs

    # ------------------------------------------------------------------
    def verify(self, system: NDPSystem) -> None:
        if self._counter["value"] != self._expected:
            raise AssertionError(
                f"{self.name}: performed {self._counter['value']} rounds, "
                f"expected {self._expected}"
            )

    def operations(self) -> int:
        return self._ops
