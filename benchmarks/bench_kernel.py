"""Event-kernel throughput microbenchmark (events/sec) + end-to-end config.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--output BENCH_kernel.json]

Two measurements:

1. **Kernel microbenchmark** — pure ``Simulator`` throughput on four event
   patterns that mirror the shapes the messaging layers generate (timer
   chains, same-cycle fan-out bursts, a payload-carrying mix where each
   handler receives a message argument, and a sparse timeline with about
   one event per timestamp — the e2ebench workloads give the kernel
   1.03-1.19 events per timestamp).  The current kernel is compared
   against ``LegacySimulator`` — a faithful copy of the seed implementation
   (tuple heap + per-event ``step()`` + closure-only callbacks) — so the
   speedup is measured, not guessed.

2. **End-to-end** — a representative SynCron configuration (4 units, lock +
   barrier mix over the real SE protocol stack) timed wall-clock, reporting
   simulated cycles, events processed, and events/sec through the full model.

Results are written as JSON so the perf trajectory is recorded per-PR
(``BENCH_kernel.json`` at the repo root; CI uploads it as an artifact).
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.engine import Simulator  # noqa: E402


# ----------------------------------------------------------------------
# The seed kernel, kept verbatim as the comparison baseline.
# ----------------------------------------------------------------------
class LegacySimulator:
    """The seed ``Simulator`` (pre-overhaul), for before/after numbers."""

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0
        self._events_processed = 0
        self._running = False

    def schedule(self, delay, callback):
        if delay < 0:
            raise RuntimeError(f"cannot schedule {delay} cycles into the past")
        self.schedule_at(self.now + int(delay), callback)

    def schedule_at(self, time, callback):
        if time < self.now:
            raise RuntimeError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        heapq.heappush(self._queue, (int(time), self._seq, callback))
        self._seq += 1

    def step(self):
        if not self._queue:
            return False
        time, _seq, callback = heapq.heappop(self._queue)
        self.now = time
        self._events_processed += 1
        callback()
        return True

    def run(self, until=None, max_events=None):
        self._running = True
        processed = 0
        try:
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    self.now = until
                    break
                if max_events is not None and processed >= max_events:
                    raise RuntimeError(f"exceeded max_events={max_events}")
                self.step()
                processed += 1
        finally:
            self._running = False


# ----------------------------------------------------------------------
# Kernel workloads.  Each returns the number of events processed.
#
# The "legacy" variants drive LegacySimulator the way the seed codebase did:
# argument-carrying callbacks must be wrapped in a closure per event, because
# the old schedule() took a no-arg callable.  The "current" variants use the
# *args API.  That makes this an end-to-end comparison of kernel + idiom,
# which is what the repo actually pays per event.
# ----------------------------------------------------------------------
def _timer_chains_legacy(n_chains: int, n_ticks: int) -> int:
    sim = LegacySimulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < total:
            sim.schedule(3, tick)

    total = n_chains * n_ticks
    for c in range(n_chains):
        sim.schedule(c, tick)
    sim.run()
    return total


def _timer_chains_current(n_chains: int, n_ticks: int) -> int:
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < total:
            sim.schedule(3, tick)

    total = n_chains * n_ticks
    for c in range(n_chains):
        sim.schedule(c, tick)
    sim.run()
    return total


def _burst_once(sim, width, leaf):
    def burst():
        for _ in range(width):
            sim.schedule(0, leaf)
    return burst


def _fanout_legacy(n_rounds: int, width: int) -> int:
    sim = LegacySimulator()
    fired = [0]

    def leaf():
        fired[0] += 1

    for r in range(n_rounds):
        sim.schedule_at(5 * r, _burst_once(sim, width, leaf))
    sim.run()
    return fired[0]


def _fanout_current(n_rounds: int, width: int) -> int:
    sim = Simulator()
    fired = [0]

    def leaf():
        fired[0] += 1

    for r in range(n_rounds):
        sim.schedule_at(5 * r, _burst_once(sim, width, leaf))
    sim.run()
    return fired[0]


def _message_mix_legacy(n_messages: int) -> int:
    """Handlers that need their message payload: the seed idiom was a
    closure per event (``lambda: handle(msg)``), exactly like the SE
    receive/service/grant paths."""
    sim = LegacySimulator()
    handled = [0]

    def handle(value):
        handled[0] += 1
        if value > 0:
            sim.schedule(7, lambda v=value - 1: handle(v))

    for i in range(n_messages):
        sim.schedule(i % 13, lambda: handle(4))
    sim.run()
    return handled[0]


def _message_mix_current(n_messages: int) -> int:
    sim = Simulator()
    handled = [0]

    def handle(value):
        handled[0] += 1
        if value > 0:
            sim.schedule(7, handle, value - 1)

    for i in range(n_messages):
        sim.schedule(i % 13, handle, 4)
    sim.run()
    return handled[0]


def _lcg(state: int) -> int:
    return (state * 1103515245 + 12345) & 0x7FFFFFFF


def _sparse_timeline_legacy(n_chains: int, n_ticks: int) -> int:
    """Independent chains with pseudo-random delays 1-199: timestamps
    rarely collide, so nearly every schedule opens a new timestamp."""
    sim = LegacySimulator()
    fired = [0]

    def tick(state, left):
        fired[0] += 1
        if left > 1:
            state = _lcg(state)
            sim.schedule(1 + state % 199,
                         lambda s=state, n=left - 1: tick(s, n))

    for c in range(n_chains):
        sim.schedule(c, lambda s=c + 1: tick(s, n_ticks))
    sim.run()
    return fired[0]


def _sparse_timeline_current(n_chains: int, n_ticks: int) -> int:
    sim = Simulator()
    fired = [0]

    def tick(state, left):
        fired[0] += 1
        if left > 1:
            state = _lcg(state)
            sim.schedule(1 + state % 199, tick, state, left - 1)

    for c in range(n_chains):
        sim.schedule(c, tick, c + 1, n_ticks)
    sim.run()
    return fired[0]


# ----------------------------------------------------------------------
# Poll storm: N spinners on one contended flag — the shape the spin
# baselines (rmw_spin/bakery) generate.  Two implementations:
#
# - legacy:   free-running poll chains on the seed kernel (one event per
#             poll per waiter, the pre-wait-channel idiom),
# - elided:   wait-channels (no poll events at all; the skipped ticks are
#             counted in ``Simulator.elided_events``).
#
# Throughput is reported in LOGICAL events/sec — (processed + elided) per
# wall-clock second — so the two variants are compared on the same work.
# ----------------------------------------------------------------------
def _poll_storm_legacy(n_waiters: int, target: int,
                       period: int = 5, cs: int = 200) -> tuple:
    sim = LegacySimulator()
    flag = [0]
    acquired = [0]

    def poll(wid):
        if acquired[0] >= target:
            return
        if flag[0] == 0:
            flag[0] = 1
            acquired[0] += 1
            sim.schedule(cs, lambda w=wid: release(w))
        else:
            sim.schedule(period, lambda w=wid: poll(w))

    def release(wid):
        flag[0] = 0
        if acquired[0] < target:
            sim.schedule(period, lambda w=wid: poll(w))

    for wid in range(n_waiters):
        sim.schedule(1 + wid, lambda w=wid: poll(w))
    sim.run()
    return sim._events_processed, 0


def _poll_storm_channel(n_waiters: int, target: int,
                        period: int = 5, cs: int = 200) -> tuple:
    sim = Simulator()
    channel = sim.channel("storm")
    flag = [0]
    acquired = [0]

    def wake(_polls, wid):
        if acquired[0] >= target:
            return
        if flag[0] == 0:
            flag[0] = 1
            acquired[0] += 1
            sim.schedule(cs, release, wid)
        else:
            channel.wait(wake, period, period, wid)

    def release(wid):
        flag[0] = 0
        channel.signal()
        if acquired[0] < target:
            channel.wait(wake, period, period, wid)

    for wid in range(n_waiters):
        sim.schedule(1 + wid, wake, 0, wid)
    sim.run()
    return sim.events_processed, sim.elided_events


def poll_storm_bench(n_waiters: int = 32, target: int = 300) -> dict:
    """Legacy vs elided throughput on the spin-storm shape."""
    results = {}
    for name, fn in (("legacy", _poll_storm_legacy),
                     ("elided", _poll_storm_channel)):
        start = time.perf_counter()
        processed, elided = fn(n_waiters, target)
        elapsed = time.perf_counter() - start
        logical = processed + elided
        results[name] = {
            "events_processed": processed,
            "elided_events": elided,
            "logical_events": logical,
            "seconds": elapsed,
            "logical_events_per_sec": (
                logical / elapsed if elapsed > 0 else float("inf")
            ),
        }
    results["elision_speedup_vs_legacy"] = (
        results["elided"]["logical_events_per_sec"]
        / results["legacy"]["logical_events_per_sec"]
    )
    return results


def _time_events(fn, *args) -> dict:
    start = time.perf_counter()
    events = fn(*args)
    elapsed = time.perf_counter() - start
    return {"events": events, "seconds": elapsed,
            "events_per_sec": events / elapsed if elapsed > 0 else float("inf")}


def kernel_microbench(scale: int = 1) -> dict:
    """Compare legacy vs current kernel on the four event shapes."""
    chains = (200, 100 * scale)
    fanout = (400 * scale, 50)
    messages = 120_000 * scale
    sparse = (32, 1500 * scale)

    results = {}
    for name, legacy_fn, current_fn, args in (
        ("timer_chains", _timer_chains_legacy, _timer_chains_current, chains),
        ("same_cycle_fanout", _fanout_legacy, _fanout_current, fanout),
        ("message_mix", _message_mix_legacy, _message_mix_current, (messages,)),
        ("sparse_timeline", _sparse_timeline_legacy,
         _sparse_timeline_current, sparse),
    ):
        legacy = _time_events(legacy_fn, *args)
        current = _time_events(current_fn, *args)
        results[name] = {
            "legacy": legacy,
            "current": current,
            "speedup": current["events_per_sec"] / legacy["events_per_sec"],
        }

    total_legacy = sum(r["legacy"]["events"] for r in results.values())
    sec_legacy = sum(r["legacy"]["seconds"] for r in results.values())
    total_current = sum(r["current"]["events"] for r in results.values())
    sec_current = sum(r["current"]["seconds"] for r in results.values())
    results["overall"] = {
        "legacy_events_per_sec": total_legacy / sec_legacy,
        "current_events_per_sec": total_current / sec_current,
        "speedup": (total_current / sec_current) / (total_legacy / sec_legacy),
    }
    return results


# ----------------------------------------------------------------------
# End-to-end: a representative SynCron run through the full model stack.
# ----------------------------------------------------------------------
def end_to_end() -> dict:
    from repro.core import api
    from repro.sim.config import ndp_2_5d
    from repro.sim.system import NDPSystem

    config = ndp_2_5d(num_units=4, cores_per_unit=5, client_cores_per_unit=4)
    system = NDPSystem(config, mechanism="syncron")
    lock = system.create_syncvar(name="bench_lock")
    barrier = system.create_syncvar(name="bench_barrier")
    n_clients = config.total_clients
    counter = [0]

    def worker(rounds=150):
        for _ in range(rounds):
            yield api.lock_acquire(lock)
            counter[0] += 1
            yield api.lock_release(lock)
            yield api.barrier_wait_across_units(barrier, n_clients)

    programs = {core.core_id: worker() for core in system.cores}
    start = time.perf_counter()
    makespan = system.run_programs(programs)
    elapsed = time.perf_counter() - start
    events = system.sim.events_processed
    return {
        "config": "4 units x 4 clients, syncron, lock+barrier x150",
        "simulated_cycles": makespan,
        "events": events,
        "seconds": elapsed,
        "events_per_sec": events / elapsed if elapsed > 0 else float("inf"),
        "critical_sections": counter[0],
    }


# ----------------------------------------------------------------------
# End-to-end spin: a spin-baseline workload whose waits the kernel elides.
# ----------------------------------------------------------------------
def end_to_end_spin(rounds: int = 60, cs_cycles: int = 600) -> dict:
    from repro.core import api
    from repro.sim.config import ndp_2_5d
    from repro.sim.program import Compute
    from repro.sim.system import NDPSystem

    config = ndp_2_5d(num_units=2, cores_per_unit=5, client_cores_per_unit=4)
    system = NDPSystem(config, mechanism="rmw_spin")
    lock = system.create_syncvar(name="bench_spin")
    counter = [0]

    # A non-trivial critical section is the spin baselines' worst case:
    # every other core polls with backoff for the whole hold time.
    def worker():
        for _ in range(rounds):
            yield api.lock_acquire(lock)
            counter[0] += 1
            yield Compute(cs_cycles)
            yield api.lock_release(lock)

    programs = {core.core_id: worker() for core in system.cores}
    start = time.perf_counter()
    makespan = system.run_programs(programs)
    elapsed = time.perf_counter() - start
    return {
        "config": (f"2 units x 4 clients, rmw_spin, lock x{rounds} "
                   f"(cs={cs_cycles} cycles)"),
        "simulated_cycles": makespan,
        "events_processed": system.sim.events_processed,
        "elided_events": system.sim.elided_events,
        "seconds": elapsed,
        "critical_sections": counter[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_kernel.json")
    parser.add_argument("--scale", type=int, default=1,
                        help="multiply microbenchmark event counts (min 1)")
    args = parser.parse_args(argv)

    micro = kernel_microbench(scale=max(args.scale, 1))
    storm = poll_storm_bench()
    e2e = end_to_end()
    spin = end_to_end_spin()
    report = {"kernel_microbench": micro, "poll_storm": storm,
              "end_to_end": e2e, "end_to_end_spin": spin}

    overall = micro["overall"]
    print("kernel microbenchmark (events/sec):")
    for name, r in micro.items():
        if name == "overall":
            continue
        print(f"  {name:18s} legacy {r['legacy']['events_per_sec']:>12,.0f}"
              f"  current {r['current']['events_per_sec']:>12,.0f}"
              f"  speedup {r['speedup']:.2f}x")
    print(f"  {'overall':18s} legacy {overall['legacy_events_per_sec']:>12,.0f}"
          f"  current {overall['current_events_per_sec']:>12,.0f}"
          f"  speedup {overall['speedup']:.2f}x")
    print("poll storm (logical events/sec):")
    for name in ("legacy", "elided"):
        r = storm[name]
        print(f"  {name:18s} {r['logical_events_per_sec']:>14,.0f}"
              f"  ({r['events_processed']:,} processed"
              f" + {r['elided_events']:,} elided)")
    print(f"  elision speedup: {storm['elision_speedup_vs_legacy']:.1f}x"
          f" vs legacy")
    print(f"end-to-end: {e2e['events']:,} events in {e2e['seconds']:.2f}s"
          f" -> {e2e['events_per_sec']:,.0f} events/sec"
          f" ({e2e['simulated_cycles']:,} simulated cycles)")
    print(f"end-to-end spin (rmw_spin): {spin['events_processed']:,} events"
          f" + {spin['elided_events']:,} elided in {spin['seconds']:.2f}s"
          f" ({spin['simulated_cycles']:,} simulated cycles)")

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


# pytest entry point (collected via python_files = bench_*.py): one cheap
# smoke round so CI exercises the benchmark path itself.
def test_kernel_bench_smoke():
    micro = kernel_microbench(scale=1)
    assert micro["overall"]["current_events_per_sec"] > 0
    assert micro["overall"]["speedup"] > 1.0


def test_poll_storm_elision_speedup():
    """Elision must beat the seed kernel's poll chains by >= 3x on the
    storm shape."""
    storm = poll_storm_bench(n_waiters=32, target=150)
    assert storm["elided"]["logical_events"] > 0
    assert storm["elided"]["elided_events"] > storm["elided"]["events_processed"]
    assert storm["elision_speedup_vs_legacy"] >= 3.0


def test_end_to_end_spin_elides():
    """The rmw_spin workload runs every critical section with its polls
    elided."""
    spin = end_to_end_spin(rounds=8)
    assert spin["critical_sections"] == 8 * 8
    assert spin["elided_events"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
