"""Co-run benchmark: interference matrix, isolation identity, host overhead.

Run directly::

    PYTHONPATH=src python benchmarks/bench_corun.py [--output BENCH_corun.json]

Three angles on the multi-tenant subsystem:

1. **Isolation identity** — a single tenant owning the whole machine must be
   bit-identical (cycles/energy/bytes) to the plain single-workload run for
   every benchmarked mechanism; asserted before anything is reported.
2. **Interference matrix** — per-tenant slowdown vs running alone for a
   unit-partitioned pair (SynCron's per-unit SEs should isolate; Central's
   shared server should couple) and a core-interleaved pair (tenants share
   units, so even SynCron shows real contention).
3. **Host overhead** — simulated events/second of the two-tenant co-run vs
   the same workloads run back-to-back, so the co-run path (tenant views,
   merged programs, post-run per-tenant cycles) is guarded against
   regressions.
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

from repro.harness.experiments import interference, isolation_check  # noqa: E402
from repro.harness.runner import run_plan  # noqa: E402
from repro.sim.config import ndp_2_5d  # noqa: E402
from repro.sim.system import NDPSystem  # noqa: E402
from repro.workloads.corun import CorunWorkload, TenantSpec  # noqa: E402
from repro.workloads.microbench import PrimitiveMicrobench  # noqa: E402

MECHANISMS = ("central", "syncron")
ROUNDS = 6
INTERVAL = 100


def _tenants():
    return [
        TenantSpec("locky",
                   lambda: PrimitiveMicrobench("lock", INTERVAL, rounds=ROUNDS),
                   units=(0, 1)),
        TenantSpec("barry",
                   lambda: PrimitiveMicrobench("barrier", INTERVAL,
                                               rounds=ROUNDS),
                   units=(2, 3)),
    ]


def bench_events_per_second(mechanism: str):
    """Simulated events/s: co-run vs the same workloads back-to-back."""
    config = ndp_2_5d()

    start = time.perf_counter()
    system = NDPSystem(config, mechanism=mechanism)
    CorunWorkload(_tenants()).run(system)
    corun_elapsed = time.perf_counter() - start
    corun_events = system.sim.events_processed

    start = time.perf_counter()
    solo_events = 0
    for spec in _tenants():
        system = NDPSystem(config, mechanism=mechanism)
        CorunWorkload([spec]).run(system)
        solo_events += system.sim.events_processed
    solo_elapsed = time.perf_counter() - start

    return {
        "corun_events_per_sec": round(corun_events / corun_elapsed),
        "solo_events_per_sec": round(solo_events / solo_elapsed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write results as JSON to this path")
    args = parser.parse_args(argv)

    identity = run_plan(isolation_check(descs=("lock",), mechanisms=MECHANISMS,
                                        interval=INTERVAL, rounds=ROUNDS))
    broken = [r for r in identity if not r["identical"]]
    if broken:
        raise AssertionError(
            f"single-tenant co-run is not bit-identical to the plain run: "
            f"{[(r['workload'], r['mechanism']) for r in broken]}"
        )

    wall_start = time.perf_counter()
    unit_rows = run_plan(interference(groups=[("lock", "barrier")],
                                      mechanisms=MECHANISMS,
                                      topologies=("all_to_all", "ring"),
                                      interval=INTERVAL, rounds=ROUNDS))
    core_rows = run_plan(interference(groups=[("lock", "barrier")],
                                      mechanisms=MECHANISMS,
                                      topologies=("all_to_all",),
                                      interval=INTERVAL, rounds=ROUNDS,
                                      core_split=(10, 50)))
    sweep_seconds = time.perf_counter() - wall_start

    def cell(rows, mech, topo):
        row = next(r for r in rows
                   if r["mechanism"] == mech and r["topology"] == topo)
        return {
            "lock_slowdown": round(row["lock_slowdown"], 3),
            "barrier_slowdown": round(row["barrier_slowdown"], 3),
            "fairness": round(row["fairness"], 3),
            "makespan": row["makespan"],
        }

    results = {
        "benchmark": "corun",
        "scenario": {
            "tenants": "lock + barrier primitive microbenchmarks",
            "rounds": ROUNDS, "interval": INTERVAL,
            "mechanisms": list(MECHANISMS),
        },
        "isolation_identical": True,
        "sweep_seconds": round(sweep_seconds, 3),
        "unit_partitioned": {
            mech: {topo: cell(unit_rows, mech, topo)
                   for topo in ("all_to_all", "ring")}
            for mech in MECHANISMS
        },
        "core_interleaved_10_50": {
            mech: cell(core_rows, mech, "all_to_all") for mech in MECHANISMS
        },
        "host_overhead": {
            mech: bench_events_per_second(mech) for mech in MECHANISMS
        },
    }

    for mech in MECHANISMS:
        unit = results["unit_partitioned"][mech]["all_to_all"]
        core = results["core_interleaved_10_50"][mech]
        host = results["host_overhead"][mech]
        print(f"{mech:8s} unit-split lock slowdown {unit['lock_slowdown']}x, "
              f"core-split {core['lock_slowdown']}x, "
              f"{host['corun_events_per_sec']:,} corun events/s "
              f"({host['solo_events_per_sec']:,} solo)")

    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
