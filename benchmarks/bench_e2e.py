"""Host-normalized end-to-end benchmark: e2ebench's three workloads.

Run directly::

    PYTHONPATH=src python benchmarks/bench_e2e.py [--output BENCH_e2e.json]
        [--seed 0] [--seconds 23]

Runs ``python3 e2ebench/run.py --workload W --seed S --seconds N --trace 0``
three times and then one short ``--trace 1`` run for each of ``apps``,
``structures`` and ``spin``, each in its own process exactly as that script
is meant to be run, and records from their final JSON lines (each
end-to-end metric as the median of the three untraced runs, because one
run's reading moves by the host's run-to-run noise, 5-9% on a shared
2-vCPU host):

- ``wall_s`` — the median host time of one pass over the workload's spec
  list, and ``spec_p90_s`` — the 90th percentile of one spec's host time.
  e2ebench scales both to a reference host speed with its calibration
  probe (``e2ebench/calibrate.py``), so numbers taken on different hosts
  compare; ``benchmarks/check_regression.py`` gates them with
  ``max_ratio`` (lower is better), with a tolerance above the run-to-run
  spread of these medians.
- ``peak_rss_mb`` — the untraced run's peak resident memory of a pass.
- ``setup_s`` — the median host time from a pass's process start to its
  first spec (interpreter start, imports, spec planning), host-scaled like
  ``wall_s``.  Most of it is compiling ``repro`` when the process may not
  write bytecode, so the report's top-level ``writes_bytecode`` records
  whether e2ebench's processes could (``PYTHONDONTWRITEBYTECODE`` unset);
  the gate compares ``setup_s`` only between runs that agree on it.
- ``work`` — the traced run's deterministic work counts (kernel events,
  core dispatches, mechanism calls and dispatches, memory accesses, DRAM
  calls, packet transfers), and ``engine_elided`` — kernel events the
  elision path skipped.  A given tree repeats them exactly, so the gate
  lets the counts not rise and ``engine_elided`` not fall.  The traced
  run's self-seconds are not recorded: they spread about ±25% between runs
  of one tree on a shared host.
- ``attempted`` / ``failed`` — spec executions of all runs, and those
  whose physics digest differs from the committed
  ``e2ebench/digests.json``; the gate expects ``failed`` to be 0.

Nothing under ``e2ebench/`` is modified; this script only reads its output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = REPO_ROOT / "e2ebench" / "run.py"
WORKLOADS = ("apps", "structures", "spin")
#: untraced e2ebench runs per workload; the end-to-end metrics are their
#: medians.
RUNS = 3
#: end-to-end metrics recorded per workload from the untraced runs.
METRICS = ("wall_s", "spec_p90_s", "peak_rss_mb", "setup_s")
#: the traced run's work counts, recorded under ``work`` with ``_`` for
#: e2ebench's ``.`` (the gate's paths are dotted).
WORK_COUNTS = ("engine.events", "core.dispatches", "mechanism.calls",
               "mechanism.dispatches", "memsys.access_calls",
               "memsys.dram_calls", "interconnect.transfer_calls")


def e2ebench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The final JSON line of one e2ebench run."""
    completed = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 runs: int = RUNS) -> dict:
    """``runs`` untraced and one one-round traced e2ebench run; the median
    of each untraced metric, the traced work counts and all runs' digest
    counts."""
    results = [e2ebench(workload, seed, seconds, trace=0)
               for _ in range(runs)]
    # the traced run's budget is nominal: it always makes one round.
    traced = e2ebench(workload, seed, 1, trace=1)
    row = {name: statistics.median(r["metrics"][name]["value"]
                                   for r in results)
           for name in METRICS}
    row["work"] = {name.replace(".", "_"):
                   int(traced["metrics"][name]["value"])
                   for name in WORK_COUNTS}
    row["engine_elided"] = int(traced["metrics"]["engine.elided"]["value"])
    row["attempted"] = sum(r["attempted"] for r in results + [traced])
    row["failed"] = sum(r["failed"] for r in results + [traced])
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_e2e.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=23.0,
                        help="measuring budget of each workload's run")
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds,
              "units": "host seconds scaled to e2ebench's reference host",
              # e2ebench's processes inherit this environment.
              "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
              "workloads": {}}
    for workload in WORKLOADS:
        row = run_workload(workload, args.seed, args.seconds)
        report["workloads"][workload] = row
        print(f"{workload:10s} wall {row['wall_s']:.3f} s, spec p90 "
              f"{row['spec_p90_s']:.3f} s, setup {row['setup_s']:.3f} s, "
              f"peak RSS "
              f"{row['peak_rss_mb']:.1f} MB, {row['work']['engine_events']} "
              f"events, {row['failed']} of {row['attempted']} specs failed "
              f"their digest")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


# pytest entry point (collected via python_files = bench_*.py): one short
# run of the cheapest workload, so the benchmark path itself is exercised.
def test_e2e_bench_smoke():
    row = run_workload("spin", seed=0, seconds=1, runs=1)
    assert row["attempted"] > 0 and row["failed"] == 0
    assert row["wall_s"] > 0 and row["spec_p90_s"] > 0 and row["setup_s"] > 0
    assert row["peak_rss_mb"] > 0 and row["work"]["engine_events"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
