"""Host-normalized end-to-end benchmark: e2ebench's three workloads.

Run directly::

    PYTHONPATH=src python benchmarks/bench_e2e.py [--output BENCH_e2e.json]
        [--seed 0] [--seconds 23]

Runs ``python3 e2ebench/run.py --workload W --seed S --seconds N --trace 0``
once for each of ``apps``, ``structures`` and ``spin``, each in its own
process exactly as that script is meant to be run, and records from its
final JSON line:

- ``wall_s`` — the median host time of one pass over the workload's spec
  list, and ``spec_p90_s`` — the 90th percentile of one spec's host time.
  e2ebench scales both to a reference host speed with its calibration
  probe (``e2ebench/calibrate.py``), so numbers taken on different hosts
  compare; ``benchmarks/check_regression.py`` gates them with
  ``max_ratio`` (lower is better), with a tolerance above the run-to-run
  spread of these medians.
- ``attempted`` / ``failed`` — specs run, and specs whose physics digest
  differs from the committed ``e2ebench/digests.json``; the gate expects
  ``failed`` to be 0.

Nothing under ``e2ebench/`` is modified; this script only reads its output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = REPO_ROOT / "e2ebench" / "run.py"
WORKLOADS = ("apps", "structures", "spin")
#: end-to-end metrics recorded per workload (host-scaled seconds).
METRICS = ("wall_s", "spec_p90_s")


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    """One untraced e2ebench run; its recorded metrics and digest counts."""
    completed = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    row = {name: result["metrics"][name]["value"] for name in METRICS}
    row["attempted"] = result["attempted"]
    row["failed"] = result["failed"]
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
              "workloads": {}}
    for workload in WORKLOADS:
        row = run_workload(workload, args.seed, args.seconds)
        report["workloads"][workload] = row
        print(f"{workload:10s} wall {row['wall_s']:.3f} s, spec p90 "
              f"{row['spec_p90_s']:.3f} s, {row['failed']} of "
              f"{row['attempted']} specs failed their digest")
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


# pytest entry point (collected via python_files = bench_*.py): one short
# run of the cheapest workload, so the benchmark path itself is exercised.
def test_e2e_bench_smoke():
    row = run_workload("spin", seed=0, seconds=1)
    assert row["attempted"] > 0 and row["failed"] == 0
    assert row["wall_s"] > 0 and row["spec_p90_s"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
