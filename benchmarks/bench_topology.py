"""Interconnect-topology benchmark: routed-fabric cost and overhead.

Run directly::

    PYTHONPATH=src python benchmarks/bench_topology.py [--output BENCH_topology.json]

Two angles on the new :mod:`repro.sim.topo` subsystem:

1. **Simulated cost** — the ``topo_sensitivity`` table (lock microbenchmark,
   every fabric, 4 and 16 units): per-fabric slowdown vs the ideal
   all-to-all interconnect, plus each fabric's mean hop count and diameter.
   Asserts the physics before reporting: no routed fabric may beat
   all-to-all at 16 units.
2. **Host overhead** — raw ``transfer_latency`` calls/second per fabric on
   a 16-unit system (remote pairs only).  The routed path replaced the
   seed's direct per-pair link lookup, so this guards the interconnect hot
   path against regressions (all-to-all routes are 1 link; mesh routes
   average ~2.7).
3. **Graceful degradation** — an 8-unit ring loses both directions of one
   channel mid-run; per mechanism the run must complete by rerouting, and
   its slowdown / reroute / detour counters are recorded as deterministic
   physics for the regression gate.
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

from repro import NDPSystem, api  # noqa: E402
from repro.harness.experiments import ALL_TOPOLOGIES, topo_sensitivity  # noqa: E402
from repro.harness.runner import run_plan  # noqa: E402
from repro.sim import Compute  # noqa: E402
from repro.sim.config import ndp_2_5d  # noqa: E402
from repro.sim.network import Interconnect  # noqa: E402
from repro.sim.stats import SystemStats  # noqa: E402
from repro.sim.topo import build_topology  # noqa: E402

UNIT_STEPS = (4, 16)
MECHANISMS = ("hier", "syncron")

#: the degraded scenario: both directions of ring channel (0, 1) fail
#: permanently at cycle 400 — early enough to land mid-run.
DEGRADED_UNITS = 8
DEGRADED_FAULTS = ((0, 1, 400), (1, 0, 400))
DEGRADED_ROUNDS = 8


def bench_transfer_latency(topology: str, calls: int = 100_000) -> float:
    """transfer_latency calls/second over a fixed 16-unit remote pattern."""
    config = ndp_2_5d(num_units=16, topology=topology)
    inter = Interconnect(config, SystemStats())
    pairs = [(src, (src + stride) % 16)
             for stride in (1, 3, 7) for src in range(16)]
    start = time.perf_counter()
    now = 0
    for i in range(calls):
        src, dst = pairs[i % len(pairs)]
        inter.transfer_latency(src, dst, now, 64)
        now += 40
    elapsed = time.perf_counter() - start
    return calls / elapsed


def _run_ring_lock(mechanism: str, fault_links=()) -> tuple:
    """(stats, makespan) of the deterministic ring-lock microbenchmark."""
    config = ndp_2_5d(num_units=DEGRADED_UNITS, cores_per_unit=4,
                      client_cores_per_unit=3, topology="ring",
                      fault_links=fault_links)
    system = NDPSystem(config, mechanism=mechanism)
    lock = system.create_syncvar(name="bench_lock")

    def worker():
        for _ in range(DEGRADED_ROUNDS):
            yield api.lock_acquire(lock)
            yield Compute(20)
            yield api.lock_release(lock)

    cycles = system.run_programs(
        {core.core_id: worker() for core in system.cores})
    return system.stats, cycles


def bench_degraded() -> dict:
    """The graceful-degradation scenario, asserted before reporting."""
    out = {
        "scenario": {
            "workload": "ring lock microbenchmark",
            "num_units": DEGRADED_UNITS,
            "fault_links": [list(f) for f in DEGRADED_FAULTS],
            "rounds": DEGRADED_ROUNDS,
        },
    }
    for mech in MECHANISMS:
        _, pristine = _run_ring_lock(mech)
        stats, cycles = _run_ring_lock(mech, fault_links=DEGRADED_FAULTS)
        if not (cycles > pristine and stats.reroutes > 0):
            raise AssertionError(
                f"degraded ring did not reroute under {mech}: "
                f"{cycles} vs pristine {pristine} cycles, "
                f"{stats.reroutes} reroutes"
            )
        out[mech] = {
            "slowdown_vs_pristine": round(cycles / pristine, 4),
            "reroutes": stats.reroutes,
            "detour_bit_hops": stats.detour_bit_hops,
            "failed_link_cycles": stats.failed_link_cycles,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write results as JSON to this path")
    parser.add_argument("--calls", type=int, default=100_000,
                        help="transfer_latency calls per fabric (default 100k)")
    args = parser.parse_args(argv)

    wall_start = time.perf_counter()
    rows = run_plan(topo_sensitivity(topologies=ALL_TOPOLOGIES,
                                     unit_steps=UNIT_STEPS,
                                     mechanisms=MECHANISMS))
    sweep_seconds = time.perf_counter() - wall_start

    by_key = {(r["units"], r["topology"]): r for r in rows}
    for topology in ("ring", "mesh2d", "torus2d"):
        for mech in MECHANISMS:
            slowdown = by_key[(16, topology)][mech]
            if slowdown < 1.0:
                raise AssertionError(
                    f"{topology} beat all_to_all at 16 units ({mech}: "
                    f"{slowdown:.3f}x) — routed contention model is broken"
                )

    results = {
        "benchmark": "interconnect_topology",
        "scenario": {
            "workload": "primitive lock microbenchmark",
            "unit_steps": list(UNIT_STEPS),
            "mechanisms": list(MECHANISMS),
        },
        "sweep_seconds": round(sweep_seconds, 3),
        "fabrics": {},
    }
    for topology in ALL_TOPOLOGIES:
        topo16 = build_topology(ndp_2_5d(num_units=16, topology=topology))
        calls_per_sec = bench_transfer_latency(topology, calls=args.calls)
        fabric = {
            "mean_hops_16u": round(topo16.mean_hops(), 3),
            "diameter_16u": topo16.diameter(),
            "transfer_latency_calls_per_sec": round(calls_per_sec),
            "slowdown_vs_all_to_all": {
                f"{units}u": {
                    mech: round(by_key[(units, topology)][mech], 3)
                    for mech in MECHANISMS
                }
                for units in UNIT_STEPS
            },
        }
        results["fabrics"][topology] = fabric
        slow16 = fabric["slowdown_vs_all_to_all"]["16u"]
        print(f"{topology:10s} mean_hops={fabric['mean_hops_16u']:<5} "
              f"16u slowdown: hier {slow16['hier']:.3f}x / "
              f"syncron {slow16['syncron']:.3f}x, "
              f"{fabric['transfer_latency_calls_per_sec']:,} routed calls/s")

    results["degraded"] = bench_degraded()
    for mech in MECHANISMS:
        cell = results["degraded"][mech]
        print(f"degraded   ring {DEGRADED_UNITS}u, severed (0,1): {mech} "
              f"{cell['slowdown_vs_pristine']:.3f}x slower, "
              f"{cell['reroutes']} reroutes, "
              f"{cell['detour_bit_hops']} detour bit-hops")

    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
