#!/usr/bin/env python
"""Perf-regression gate: compare fresh BENCH_*.json against committed baselines.

The benchmark suite (``benchmarks/bench_kernel.py``, ``bench_memsys.py``,
``bench_sweep.py``, ``bench_topology.py``, ``bench_corun.py``,
``bench_e2e.py``) writes
machine-readable artifacts; this script diffs a fresh set against the
committed baselines with per-metric tolerances and exits non-zero on
regression, so CI catches "the kernel got 3x slower" or "warm cache
re-simulates" before merge.

Gate kinds:

- ``min_ratio`` — fresh must be >= baseline * (1 - tol).  For speedups
  and throughputs, where *higher is better* and noise is expected; with
  tol 0, for counts that must not fall.
- ``max_ratio`` — fresh must be <= baseline * (1 + tol).  For host-scaled
  times and memory, where *lower is better* and noise is expected; with
  tol 0, for work counts that must not rise.
- ``within``    — |fresh - baseline| <= tol * |baseline|.  For
  deterministic simulated physics (slowdowns, fairness, makespans) where
  drift in either direction means behaviour changed.
- ``equals``    — exact match.  For integer event/cycle counts the
  simulator must reproduce bit-identically.
- ``expect``    — fresh must equal a literal value regardless of the
  baseline (e.g. warm-cache executions == 0).

Dotted paths address into the JSON; a ``*`` segment fans out over every
key of the dict at that level (resolved against the baseline document,
then looked up in the fresh one — a path that disappeared is a FAIL).

Wall-clock gates are skipped when either run says parallelism is "not
measurable (cpu_count=1)" — a 1-cpu CI box cannot show parallel speedup.
The e2e start-up gate is skipped when the two runs differ in whether their
processes could write bytecode: with it, start-up time roughly halves.
A BENCH file missing from the fresh directory SKIPs its gates with a
notice (partial benchmark runs stay usable).

Usage::

    python benchmarks/check_regression.py                   # repo root vs itself
    python benchmarks/check_regression.py --fresh fresh-bench/
    python benchmarks/check_regression.py --fresh fresh-bench/ --json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Gate table
# ----------------------------------------------------------------------
def _cpu1(fresh: Dict, base: Dict) -> Optional[str]:
    """Skip-reason when parallel speedup is not measurable on this box."""
    for doc, who in ((fresh, "fresh"), (base, "baseline")):
        if doc.get("cpu_count") == 1:
            return f"{who} run has cpu_count=1 (parallelism not measurable)"
        note = str(doc.get("parallelism", ""))
        if "not measurable" in note:
            return f"{who} run: {note}"
    return None


def _bytecode_differs(fresh: Dict, base: Dict) -> Optional[str]:
    """Skip-reason when only one run's processes could write bytecode."""
    if fresh.get("writes_bytecode") != base.get("writes_bytecode"):
        return (f"writes_bytecode differs (fresh "
                f"{fresh.get('writes_bytecode')}, baseline "
                f"{base.get('writes_bytecode')}): start-up not comparable")
    return None


#: file -> list of (kind, path, tolerance-or-expected, skip_if)
GATES: Dict[str, List[Tuple]] = {
    "BENCH_kernel.json": [
        # Kernel layer only: event-kernel throughput on microbenchmarks and
        # spin runs.  These gates say nothing about end-to-end regeneration
        # time, where the kernel is a small share of host time.
        ("min_ratio", "kernel_microbench.*.speedup", 0.5, None),
        ("min_ratio", "poll_storm.elision_speedup_vs_legacy", 0.5, None),
        # Deterministic physics: identical or the simulator changed.
        ("equals", "end_to_end.simulated_cycles", None, None),
        ("equals", "end_to_end.critical_sections", None, None),
        ("equals", "end_to_end_spin.simulated_cycles", None, None),
        ("equals", "end_to_end_spin.critical_sections", None, None),
        ("equals", "poll_storm.*.logical_events", None, None),
    ],
    "BENCH_memsys.json": [
        # A fused packet must stay faster than the per-hop composition, and
        # a burst faster than the same accesses issued one by one (both
        # paths timed in one process, so no host-speed correction).
        ("min_ratio", "transfer.*.speedup", 0.4, None),
        ("min_ratio", "scan.*.speedup", 0.4, None),
        ("min_ratio", "bakery_lock.speedup", 0.4, None),
        # Deterministic physics: identical or the memory/fabric model changed.
        ("equals", "transfer.*.simulated_cycles", None, None),
        ("equals", "scan.*.simulated_cycles", None, None),
        ("equals", "bakery_lock.simulated_cycles", None, None),
    ],
    "BENCH_e2e.json": [
        # End-to-end regeneration time per e2ebench workload, host-scaled
        # by e2ebench's calibration probe.  Medians of one tree spread by
        # 5.5-10.9% (IQR) on a noisy 2-vCPU host, so the ceiling sits well
        # above that.
        ("max_ratio", "workloads.*.wall_s", 0.3, None),
        ("max_ratio", "workloads.*.spec_p90_s", 0.3, None),
        # Process start to first spec, host-scaled; mostly compiling repro
        # unless bytecode may be cached, so only like runs compare.
        ("max_ratio", "workloads.*.setup_s", 0.3, _bytecode_differs),
        # Peak RSS spreads under 1% between runs (e2ebench/README.md).
        ("max_ratio", "workloads.*.peak_rss_mb", 0.1, None),
        # The traced run's work counts repeat exactly for a tree: work
        # must not rise, and the kernel must not elide fewer events.
        ("max_ratio", "workloads.*.work.*", 0.0, None),
        ("min_ratio", "workloads.*.engine_elided", 0.0, None),
        # Every spec's physics digest must match e2ebench/digests.json.
        ("expect", "workloads.*.failed", 0, None),
    ],
    "BENCH_sweep.json": [
        # A warm store must serve everything from cache.
        ("expect", "warm_workers1.simulations_executed", 0, None),
        ("expect", "warm_workers4.simulations_executed", 0, None),
        # The worker pool should beat serial — only on a multi-core box.
        ("min_ratio", "workers.4.speedup_vs_serial", 0.3, _cpu1),
    ],
    "BENCH_topology.json": [
        # Fabric slowdowns are deterministic simulated physics.
        ("within", "fabrics.*.slowdown_vs_all_to_all.*.*", 0.02, None),
        ("within", "fabrics.*.mean_hops_16u", 0.02, None),
        ("equals", "fabrics.*.diameter_16u", None, None),
        # Degraded-ring scenario: reroute behaviour is deterministic; the
        # * fans out over mechanisms (the scenario dict has none of these
        # keys, so wildcard expansion skips it).
        ("within", "degraded.*.slowdown_vs_pristine", 0.02, None),
        ("equals", "degraded.*.reroutes", None, None),
        ("equals", "degraded.*.detour_bit_hops", None, None),
    ],
    "BENCH_corun.json": [
        ("expect", "isolation_identical", True, None),
        ("within", "unit_partitioned.*.*.*", 0.02, None),
        ("within", "core_interleaved_10_50.*.*", 0.02, None),
    ],
}


# ----------------------------------------------------------------------
# Path resolution
# ----------------------------------------------------------------------
def expand_paths(doc: Dict, path: str) -> List[str]:
    """All concrete dotted paths a wildcard pattern matches in ``doc``."""
    concrete = [[]]
    for segment in path.split("."):
        grown = []
        for prefix in concrete:
            node = lookup(doc, ".".join(prefix)) if prefix else doc
            if not isinstance(node, dict):
                continue
            keys = sorted(node) if segment == "*" else (
                [segment] if segment in node else [])
            for key in keys:
                grown.append(prefix + [key])
        concrete = grown
    return [".".join(p) for p in concrete]


_MISSING = object()


def lookup(doc: Dict, path: str):
    node = doc
    for segment in path.split("."):
        if not isinstance(node, dict) or segment not in node:
            return _MISSING
        node = node[segment]
    return node


# ----------------------------------------------------------------------
# Gate evaluation
# ----------------------------------------------------------------------
def check_gate(kind: str, path: str, arg, fresh: Dict, base: Dict) -> Dict:
    fresh_value = lookup(fresh, path)
    base_value = lookup(base, path)
    entry = {"path": path, "gate": kind,
             "fresh": None if fresh_value is _MISSING else fresh_value,
             "baseline": None if base_value is _MISSING else base_value}
    if fresh_value is _MISSING:
        entry.update(status="FAIL",
                     detail="path missing from fresh artifact")
        return entry
    if kind == "expect":
        ok = fresh_value == arg
        entry.update(status="PASS" if ok else "FAIL",
                     detail=f"expected {arg!r}")
        return entry
    if base_value is _MISSING:
        entry.update(status="FAIL",
                     detail="path missing from baseline artifact")
        return entry
    if kind == "equals":
        ok = fresh_value == base_value
        entry.update(status="PASS" if ok else "FAIL",
                     detail="must equal baseline")
    elif kind == "min_ratio":
        floor = base_value * (1.0 - arg)
        ok = fresh_value >= floor
        entry.update(status="PASS" if ok else "FAIL",
                     detail=f"floor {floor:.4g} (baseline - {arg:.0%})")
    elif kind == "max_ratio":
        ceiling = base_value * (1.0 + arg)
        ok = fresh_value <= ceiling
        entry.update(status="PASS" if ok else "FAIL",
                     detail=f"ceiling {ceiling:.4g} (baseline + {arg:.0%})")
    elif kind == "within":
        band = abs(arg * base_value)
        ok = abs(fresh_value - base_value) <= band
        entry.update(status="PASS" if ok else "FAIL",
                     detail=f"baseline ± {arg:.0%}")
    else:  # pragma: no cover - gate-table typo guard
        entry.update(status="FAIL", detail=f"unknown gate kind {kind!r}")
    return entry


def check_file(name: str, fresh_dir: Path, base_dir: Path) -> List[Dict]:
    fresh_path = fresh_dir / name
    base_path = base_dir / name
    if not base_path.exists():
        return [{"file": name, "path": "-", "gate": "artifact",
                 "status": "SKIP",
                 "detail": f"no committed baseline at {base_path}"}]
    if not fresh_path.exists():
        return [{"file": name, "path": "-", "gate": "artifact",
                 "status": "SKIP",
                 "detail": f"fresh artifact not found at {fresh_path} "
                           "(benchmark not run)"}]
    fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
    base = json.loads(base_path.read_text(encoding="utf-8"))
    results: List[Dict] = []
    for kind, pattern, arg, skip_if in GATES[name]:
        reason = skip_if(fresh, base) if skip_if is not None else None
        if reason is not None:
            results.append({"path": pattern, "gate": kind, "status": "SKIP",
                            "detail": reason})
            continue
        paths = expand_paths(base, pattern)
        if not paths:
            results.append({"path": pattern, "gate": kind, "status": "FAIL",
                            "detail": "pattern matched nothing in baseline"})
            continue
        for path in paths:
            results.append(check_gate(kind, path, arg, fresh, base))
    for entry in results:
        entry["file"] = name
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate fresh BENCH_*.json artifacts against baselines.")
    parser.add_argument("--fresh", default=str(REPO_ROOT), metavar="DIR",
                        help="directory holding freshly generated artifacts "
                             "(default: repo root, i.e. the baselines "
                             "themselves — a self-check)")
    parser.add_argument("--baseline", default=str(REPO_ROOT), metavar="DIR",
                        help="directory holding committed baselines "
                             "(default: repo root)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    args = parser.parse_args(argv)

    fresh_dir = Path(args.fresh)
    base_dir = Path(args.baseline)
    results: List[Dict] = []
    for name in sorted(GATES):
        results.extend(check_file(name, fresh_dir, base_dir))

    failed = [r for r in results if r["status"] == "FAIL"]
    skipped = [r for r in results if r["status"] == "SKIP"]
    passed = [r for r in results if r["status"] == "PASS"]
    if args.json:
        print(json.dumps({"fresh": str(fresh_dir), "baseline": str(base_dir),
                          "passed": len(passed), "failed": len(failed),
                          "skipped": len(skipped), "results": results},
                         indent=2))
    else:
        width = max((len(f"{r['file']}:{r['path']}") for r in results),
                    default=10)
        for r in results:
            tag = f"{r['file']}:{r['path']}"
            line = f"[{r['status']:<4}] {tag:<{width}}  {r['detail']}"
            if r["status"] == "FAIL" and r.get("fresh") is not None:
                line += (f"  (fresh={r['fresh']!r} "
                         f"baseline={r.get('baseline')!r})")
            print(line)
        print(f"\nregression gate: {len(passed)} passed, "
              f"{len(failed)} failed, {len(skipped)} skipped")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
