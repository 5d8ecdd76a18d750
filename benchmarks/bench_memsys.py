"""Memory-system fast paths against their references: packets and bursts.

Run directly::

    PYTHONPATH=src python benchmarks/bench_memsys.py [--output BENCH_memsys.json]

Each fast path is timed beside a reference that composes the same work
from the model's building blocks.  Both sides run in this process on the
same tree, so each ratio compares the two paths on one host and needs no
host-speed correction.  Three measurements:

1. **Transfer** — single packets through ``Interconnect.transfer_latency``
   (one call per packet) and through ``repro.testing.per_hop_transfer``
   (crossbar step, each link's ``Link.reserve``, crossbar step, counters),
   on a 16-unit ``all_to_all`` and ``mesh2d`` fabric: host microseconds per
   packet on each path.
2. **Scan** — a bakery doorway or scan is a run of back-to-back
   uncacheable word accesses to one home unit.
   ``MemorySystem.uncacheable_burst`` resolves the run in one call;
   ``repro.testing.per_access_burst`` issues the same accesses one
   ``MemorySystem.access`` at a time.  60-load scans (a 30-client bakery)
   from unit 0 to a local and to a remote home on fresh 2-unit systems:
   host microseconds per access on each path.
3. **Bakery lock** — the Sec. 2.2.1 bakery lock microbenchmark on 2 units
   x 15 clients, run end to end with the bursts and again with every burst
   replaced by the per-access loop: host seconds on each path.

Each measurement asserts that both paths give the same simulated cycles
before it reports a speedup.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.config import ndp_2_5d  # noqa: E402
from repro.sim.memsys import MemorySystem  # noqa: E402
from repro.sim.network import Interconnect  # noqa: E402
from repro.sim.stats import SystemStats  # noqa: E402
from repro.testing import (  # noqa: E402
    build_system, per_access_burst, per_hop_transfer)
from repro.workloads.microbench import PrimitiveMicrobench  # noqa: E402

#: units of the transfer fabrics (a 4x4 grid as mesh2d).
TRANSFER_UNITS = 16
#: idle cycles between packets.
TRANSFER_GAP = 40
#: loads per scan: 2N for the N = 30 clients of a 2-unit system.
SCAN_LOADS = 60
#: idle cycles between scans (a backoff).
SCAN_GAP = 50
#: burst runs averaged into one scan trial: a single burst run lasts only
#: ~20 ms, short enough for one slow stretch of a shared host to halve the
#: speedup, while the averaged trial spans ~0.1 s.
BURST_REPEATS = 6


def _packets(send, topology: str, packets: int) -> tuple:
    """(host seconds, simulated cycles) of ``packets`` 64-byte packets sent
    via ``send``: local, neighbour and far pairs in a fixed rotation."""
    inter = Interconnect(
        ndp_2_5d(num_units=TRANSFER_UNITS, topology=topology), SystemStats())
    pairs = [(src, (src + stride) % TRANSFER_UNITS)
             for stride in (0, 1, 3, 7) for src in range(TRANSFER_UNITS)]
    cycles = now = 0
    start = time.perf_counter()
    for i in range(packets):
        src, dst = pairs[i % len(pairs)]
        cycles += send(inter, src, dst, now, 64)
        now += TRANSFER_GAP
    return time.perf_counter() - start, cycles


def transfer_bench(packets: int = 50_000, trials: int = 5) -> dict:
    """Per-packet host cost of the fused packet path and the per-hop
    reference on a single-link and a multi-hop fabric (best of ``trials``
    alternating runs each)."""
    results = {}
    paths = (("per_hop", per_hop_transfer),
             ("fused", Interconnect.transfer_latency))
    for topology in ("all_to_all", "mesh2d"):
        runs = {label: [] for label, _ in paths}
        for _ in range(trials):
            for label, send in paths:
                runs[label].append(_packets(send, topology, packets))
        best = {label: min(seconds for seconds, _ in timed)
                for label, timed in runs.items()}
        cycles = {label: timed[0][1] for label, timed in runs.items()}
        if cycles["per_hop"] != cycles["fused"]:
            raise AssertionError(
                f"{topology} packets: the fused path changed the simulated "
                f"time ({cycles['fused']} vs {cycles['per_hop']})")
        results[topology] = {
            "packets": packets,
            "per_hop_us": 1e6 * best["per_hop"] / packets,
            "fused_us": 1e6 * best["fused"] / packets,
            "speedup": best["per_hop"] / best["fused"],
            "simulated_cycles": cycles["fused"],
        }
    return results


def _scans(issue, home: int, scans: int) -> tuple:
    """(host seconds, simulated cycles) of ``scans`` scans via ``issue``."""
    system = build_system(ndp_2_5d(num_units=2), "bakery")
    addr = system.addrmap.alloc(home, 64)
    now = 0
    start = time.perf_counter()
    for _ in range(scans):
        now += issue(system.memsys, 0, addr, now, loads=SCAN_LOADS,
                     for_sync=True) + SCAN_GAP
    return time.perf_counter() - start, now


def _burst_scans(home: int, scans: int) -> tuple:
    """(host seconds per run, simulated cycles) of :data:`BURST_REPEATS`
    back-to-back burst runs of ``scans`` scans, each on a fresh system."""
    runs = [_scans(MemorySystem.uncacheable_burst, home, scans)
            for _ in range(BURST_REPEATS)]
    return sum(seconds for seconds, _ in runs) / BURST_REPEATS, runs[0][1]


def scan_bench(scans: int = 2000, trials: int = 3) -> dict:
    """Per-access host cost of a scan on each path, local and remote (best
    of ``trials`` alternating trials each)."""
    results = {}
    accesses = scans * SCAN_LOADS
    for route, home in (("local", 0), ("remote", 1)):
        runs = {"per_access": [], "burst": []}
        for _ in range(trials):
            runs["per_access"].append(
                _scans(per_access_burst, home, scans))
            runs["burst"].append(_burst_scans(home, scans))
        best = {label: min(seconds for seconds, _ in timed)
                for label, timed in runs.items()}
        cycles = {label: timed[0][1] for label, timed in runs.items()}
        if cycles["per_access"] != cycles["burst"]:
            raise AssertionError(
                f"{route} scans: burst changed the simulated time "
                f"({cycles['burst']} vs {cycles['per_access']})")
        results[route] = {
            "accesses": accesses,
            "per_access_us": 1e6 * best["per_access"] / accesses,
            "burst_us": 1e6 * best["burst"] / accesses,
            "speedup": best["per_access"] / best["burst"],
            "simulated_cycles": cycles["burst"],
        }
    return results


def _bakery_lock(rounds: int) -> tuple:
    """(host seconds, simulated cycles) of one bakery lock run."""
    system = build_system(ndp_2_5d(num_units=2), "bakery")
    start = time.perf_counter()
    metrics = PrimitiveMicrobench("lock", 200, rounds=rounds).run(system)
    return time.perf_counter() - start, metrics.cycles


def bakery_lock_bench(rounds: int = 6, trials: int = 2) -> dict:
    """End-to-end bakery lock with bursts vs with per-access scans (best of
    ``trials`` alternating runs each)."""
    original = MemorySystem.uncacheable_burst
    burst, per_access = [], []
    for _ in range(trials):
        burst.append(_bakery_lock(rounds))
        MemorySystem.uncacheable_burst = per_access_burst
        try:
            per_access.append(_bakery_lock(rounds))
        finally:
            MemorySystem.uncacheable_burst = original
    burst_seconds, burst_cycles = min(burst)
    per_access_seconds, per_access_cycles = min(per_access)
    if per_access_cycles != burst_cycles:
        raise AssertionError(
            f"bakery lock: burst changed the makespan ({burst_cycles} vs "
            f"{per_access_cycles})")
    return {
        "config": f"2 units x 15 clients, bakery, lock x{rounds} "
                  "(interval=200)",
        "per_access_seconds": per_access_seconds,
        "burst_seconds": burst_seconds,
        "speedup": per_access_seconds / burst_seconds,
        "simulated_cycles": burst_cycles,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_memsys.json")
    args = parser.parse_args(argv)

    report = {"transfer": transfer_bench(), "scan": scan_bench(),
              "bakery_lock": bakery_lock_bench()}
    for topology, row in report["transfer"].items():
        print(f"{topology:10s} packet: {row['per_hop_us']:.2f} us per hop by "
              f"hop, {row['fused_us']:.2f} fused ({row['speedup']:.2f}x, "
              f"cycles identical)")
    for route, row in report["scan"].items():
        print(f"{route:6s} scan: {row['per_access_us']:.2f} us/access per "
              f"access, {row['burst_us']:.2f} as a burst "
              f"({row['speedup']:.2f}x, cycles identical)")
    lock = report["bakery_lock"]
    print(f"bakery lock: {lock['per_access_seconds']:.2f} s per access, "
          f"{lock['burst_seconds']:.2f} s with bursts "
          f"({lock['speedup']:.2f}x, {lock['simulated_cycles']:,} cycles "
          f"either way)")
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


# pytest entry point (collected via python_files = bench_*.py): one cheap
# round so CI exercises the benchmark path itself.
def test_memsys_burst_bench_smoke():
    transfer = transfer_bench(packets=2000, trials=1)
    assert (transfer["mesh2d"]["simulated_cycles"]
            > transfer["all_to_all"]["simulated_cycles"])
    scan = scan_bench(scans=50, trials=1)
    assert scan["remote"]["simulated_cycles"] > scan["local"]["simulated_cycles"]
    lock = bakery_lock_bench(rounds=1, trials=1)
    assert lock["simulated_cycles"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
