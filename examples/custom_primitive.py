#!/usr/bin/env python3
"""Building on SynCron's API: a producer/consumer pipeline and lock fairness.

Shows the parts of the API the other examples don't touch:

1. semaphores + condition variables composing into a bounded buffer
   (producers and consumers on different NDP units);
2. the Sec. 4.4.2 lock-fairness knob.

Run:  python examples/custom_primitive.py
"""

from repro import NDPSystem, api, ndp_2_5d
from repro.sim import Compute


def bounded_buffer_demo() -> None:
    print("== bounded buffer: semaphores + mutex ==")
    system = NDPSystem(ndp_2_5d(), mechanism="syncron")
    CAPACITY = 4
    slots = system.create_syncvar(name="empty_slots")   # counts free slots
    items = system.create_syncvar(name="full_slots")    # counts queued items
    mutex = system.create_syncvar(name="buffer_mutex")
    buffer = []
    stats = {"produced": 0, "consumed": 0, "max_depth": 0}
    ROUNDS = 6

    def producer():
        for i in range(ROUNDS):
            yield Compute(40)
            yield api.sem_wait(slots, CAPACITY)   # wait for a free slot
            yield api.lock_acquire(mutex)
            buffer.append(i)
            stats["produced"] += 1
            stats["max_depth"] = max(stats["max_depth"], len(buffer))
            yield api.lock_release(mutex)
            yield api.sem_post(items)             # publish the item

    def consumer():
        for _ in range(ROUNDS):
            yield api.sem_wait(items, 0)          # wait for an item
            yield api.lock_acquire(mutex)
            buffer.pop(0)
            stats["consumed"] += 1
            yield api.lock_release(mutex)
            yield api.sem_post(slots)             # free the slot
            yield Compute(60)

    programs = {}
    half = len(system.cores) // 2
    for i, core in enumerate(system.cores[: 2 * half]):
        programs[core.core_id] = producer() if i < half else consumer()
    cycles = system.run_programs(programs)

    assert stats["produced"] == stats["consumed"] == ROUNDS * half
    assert stats["max_depth"] <= CAPACITY, "buffer bound violated!"
    print(f"  {stats['produced']} items through a {CAPACITY}-slot buffer, "
          f"max depth {stats['max_depth']}, {cycles} cycles\n")


def fairness_demo() -> None:
    print("== lock fairness threshold (Sec. 4.4.2) ==")
    for threshold in (0, 2):
        system = NDPSystem(ndp_2_5d(fairness_threshold=threshold), "syncron")
        lock = system.create_syncvar(unit=0, name="fair_lock")
        grants = []

        def worker(core):
            for _ in range(4):
                yield api.lock_acquire(lock)
                grants.append(core.unit_id)
                yield Compute(5)
                yield api.lock_release(lock)

        system.run_programs({c.core_id: worker(c) for c in system.cores})
        longest = streak = 1
        for a, b in zip(grants, grants[1:]):
            streak = streak + 1 if a == b else 1
            longest = max(longest, streak)
        label = "disabled" if threshold == 0 else f"threshold={threshold}"
        print(f"  fairness {label:12s}: longest same-unit grant streak = {longest}")


def main() -> None:
    bounded_buffer_demo()
    fairness_demo()


if __name__ == "__main__":
    main()
