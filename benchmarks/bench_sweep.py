"""Sweep-orchestration benchmark: worker pool and warm store.

Run directly::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--output BENCH_sweep.json]

Times a fixed Fig. 12 subset (4 app-input combos x 4 mechanisms = 16
independent simulations) through the sweep executor at 1, 2, and 4
workers — each against a fresh content-addressed store — then once more
against a warm store (zero simulations at any worker count).

Rows are asserted bit-identical across worker counts (the executor's
core guarantee) before any number is reported.  Worker speedup is
bounded by the host's core count: the assertion that extra workers help
is gated on ``cpu_count > 1``, and single-core hosts are annotated
rather than failed — on one core the pool's fork and pickling overhead
is the honest number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness import runner as runner_mod  # noqa: E402
from repro.harness.experiments import fig12  # noqa: E402
from repro.harness.runner import run_plan  # noqa: E402

#: the fixed Fig. 12 subset (one graph kernel per contention flavour + ts).
COMBOS = ("bfs.wk", "cc.sl", "tc.wk", "ts.air")
MECHANISMS = ("central", "hier", "syncron", "ideal")
WORKER_STEPS = (1, 2, 4)
MATRIX = len(COMBOS) * len(MECHANISMS)


def _timed_fig12(workers: int, store: str) -> tuple:
    runner_mod.STATS.reset()
    start = time.perf_counter()
    rows = run_plan(fig12(combos=COMBOS, mechanisms=MECHANISMS),
                    workers=workers, cache=True, store=store)
    elapsed = time.perf_counter() - start
    return rows, elapsed, runner_mod.STATS.executed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write results as JSON to this path")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per worker count (best kept)")
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    results = {
        "benchmark": "sweep_orchestration",
        "subset": {"figure": "fig12", "combos": list(COMBOS),
                   "mechanisms": list(MECHANISMS), "simulations": MATRIX},
        # worker speedup is bounded by the host's core count; record it so
        # the trajectory is interpretable across machines.
        "cpu_count": cpu_count,
        "workers": {},
    }
    if cpu_count == 1:
        results["parallelism"] = "not measurable (cpu_count=1)"

    baseline_rows = None
    serial_seconds = None
    with tempfile.TemporaryDirectory(prefix="bench-sweep-store-") as top:
        top = Path(top)
        fresh = 0
        for workers in WORKER_STEPS:
            best = None
            for _ in range(args.repeats):
                # a fresh store per repetition: every simulation is cold.
                fresh += 1
                store = f"dir:{top / f'cold{fresh}'}"
                rows, elapsed, executed = _timed_fig12(workers, store)
                if executed != MATRIX:
                    raise AssertionError(
                        f"cold run executed {executed}/{MATRIX} simulations"
                    )
                if baseline_rows is None:
                    baseline_rows = rows
                elif rows != baseline_rows:
                    raise AssertionError(
                        f"--workers {workers} rows differ from serial rows"
                    )
                best = elapsed if best is None else min(best, elapsed)
            if serial_seconds is None:
                serial_seconds = best
            results["workers"][str(workers)] = {
                "seconds": round(best, 4),
                "speedup_vs_serial": round(serial_seconds / best, 3),
            }
            print(f"--workers {workers}: {best:.3f}s "
                  f"({serial_seconds / best:.2f}x vs serial)")
        if cpu_count > 1:
            top_speedup = max(row["speedup_vs_serial"]
                              for row in results["workers"].values())
            if top_speedup < 1.05:
                raise AssertionError(
                    f"no worker speedup on a {cpu_count}-core host "
                    f"(best {top_speedup:.2f}x)"
                )

        # warm store: zero simulations at any worker count.
        warm_store = f"dir:{top / 'warm'}"
        _timed_fig12(1, warm_store)  # populate
        for workers in (1, max(WORKER_STEPS)):
            rows, elapsed, executed = _timed_fig12(workers, warm_store)
            if executed != 0:
                raise AssertionError(
                    f"warm run at --workers {workers} executed {executed}"
                )
            if rows != baseline_rows:
                raise AssertionError("warm rows differ from simulated rows")
            results[f"warm_workers{workers}"] = {
                "seconds": round(elapsed, 4),
                "speedup_vs_serial": round(serial_seconds / elapsed, 1),
                "simulations_executed": 0,
            }
            print(f"warm --workers {workers}: {elapsed:.3f}s "
                  f"({serial_seconds / elapsed:.0f}x vs serial), 0 simulated")

    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
