"""End-to-end regeneration benchmark: host time to re-run paper workloads.

Each pass runs one workload's spec list (:mod:`suite`) in a fresh
interpreter (:mod:`worker`) through ``repro.harness.runner.run_specs`` with
one worker and an empty result store, so no in-process memoisation leaks
between passes.  A run makes several passes and reports medians; the last
line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``).

    python3 e2ebench/run.py --workload apps --seed 0 --seconds 23 --trace 0
    python3 e2ebench/run.py --workload apps --trace 1      # per-layer run
    python3 e2ebench/run.py --workload apps --validate     # vs cProfile
    python3 e2ebench/run.py --record --seed 0              # re-record digests

See ``e2ebench/README.md`` for the glossary and the layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench-work")
DIGESTS = os.path.join(HERE, "digests.json")

#: reference-speed seconds of one untraced pass per workload (the medians
#: of ``wall_s`` over ten seeds); used only to decide how many passes fit
#: in a run's ``--seconds``.
NOMINAL_PASS_S = {"apps": 7.4, "structures": 6.9, "spin": 6.1}
WORKLOADS = tuple(NOMINAL_PASS_S)
#: full passes per untraced run, at least (medians need more than one).
MIN_PASSES = 2
#: extra set-up-only passes per run, pooled with each pass's set-up time.
SETUP_PASSES = 5
#: cap on the predicted measuring time of one run (each run must finish
#: well inside three minutes).
HARD_BUDGET_S = 120.0
#: an untraced plus a traced pass, in nominal untraced passes.
TRACED_ROUND_COST = 2.8
#: a run's passes must all end this many seconds after it starts (the
#: command must exit within three minutes).
RUN_DEADLINE_S = 170.0
#: the host-speed probe's time at the reference speed (see calibrate.py);
#: every reported host time is scaled to it.
REF_PROBE_S = 0.006
#: the paper's Fig. 12 headlines (Sec. 6.1.3).
PAPER_HEADLINES = {"syncron_vs_central": 1.47, "syncron_vs_hier": 1.23,
                   "overhead_vs_ideal_pct": 9.5}


class PassError(RuntimeError):
    """A worker process failed; the run prints no result."""


def spawn(mode: str, workload: str, seed: int, deadline=None) -> dict:
    """One fresh-interpreter pass, killed at ``deadline`` (monotonic)."""
    os.makedirs(WORK, exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=WORK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
             str(seed), store, repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=None if deadline is None
            else max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass timed out after {exc.timeout:.0f} s")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise PassError(f"{mode} pass printed no report:\n{proc.stdout[-500:]}")


def load_references(workload: str, seed: int):
    """Committed digests for ``(workload, seed)``, or None if unrecorded."""
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def count_failures(passes, reference) -> tuple:
    """(attempted, failed, notes) over every spec execution of the run.

    A spec execution fails if it raised, or if its physics digest differs
    from the committed reference (when one exists for this seed) or from
    the run's first pass (fresh interpreters must agree bit for bit).
    """
    expected = dict(passes[0]["digests"])
    if reference is not None:
        expected = reference
    labels = sorted(set(expected) | set(passes[0]["digests"])
                    | {label for p in passes for label in p["errors"]})
    attempted = failed = 0
    notes = []
    for index, report in enumerate(passes):
        attempted += len(report["specs"])
        for label in labels:
            error = report["errors"].get(label)
            digest = report["digests"].get(label)
            if error is not None:
                notes.append(f"pass {index}: {label}: {error}")
            elif digest != expected.get(label):
                notes.append(f"pass {index}: {label}: physics digest "
                             f"{digest} != expected {expected.get(label)}")
            else:
                continue
            failed += 1
    return attempted, failed, notes


def rounds_for(workload: str, seconds: float, cost: float,
               least: int) -> int:
    """How many rounds fit in ``seconds``, from the nominal pass time.

    The count depends only on the arguments, never on measured times, so
    pooled percentiles always rest on the same number of samples.
    """
    fit = int(seconds / (cost * NOMINAL_PASS_S[workload]))
    return max(least, min(fit, int(HARD_BUDGET_S / (
        cost * NOMINAL_PASS_S[workload]))))


def run_passes(mode_cycle, args, rounds: int) -> dict:
    """``rounds`` rounds of one fresh pass per mode in ``mode_cycle``."""
    reports = {mode: [] for mode in mode_cycle}
    for _ in range(rounds):
        for mode in mode_cycle:
            reports[mode].append(
                spawn(mode, args.workload, args.seed, args.deadline))
    return reports


def headline(cycles: dict) -> dict:
    """Fig. 12 geomeans from an ``apps`` pass (simulated time)."""
    from repro.harness.experiments import headline_summary

    rows = {}
    for label, value in cycles.items():
        combo = label.split("combo=", 1)[1].split(")", 1)[0]
        mech = label.rsplit("/", 1)[1]
        rows.setdefault(combo, {})[mech] = value
    summary = headline_summary([
        {mech: row["central"] / c for mech, c in row.items()}
        for row in rows.values()])
    return {"syncron_vs_central": summary["syncron_vs_central"],
            "syncron_vs_hier": summary["syncron_vs_hier"],
            "overhead_vs_ideal_pct": summary["syncron_overhead_vs_ideal_pct"]}


def print_model(workload: str, model: dict) -> None:
    print("simulated time (model output, unvalidated against hardware):")
    for key in ("sim_cycles", "sync_requests", "overflow_pct",
                "l1_hit_ratio", "bytes_across_units", "link_bit_hops"):
        print(f"  model.{key:<22} {model[key]}")
    if workload == "apps":
        for key, value in headline(model["cycles"]).items():
            paper = PAPER_HEADLINES[key]
            print(f"  model.{key:<22} {value:.4f} (paper {paper}, "
                  f"log-ratio {math.log(value / paper):+.3f})")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def at_reference(seconds: float, probe: float) -> float:
    """Host seconds scaled to the reference host speed."""
    return seconds * REF_PROBE_S / probe


def scaled_pass(report: dict) -> dict:
    """One pass's times in reference-speed seconds, probe time excluded.

    Each spec is scaled by the mean of the probes taken just before it,
    while it ran, and just after it; the harness glue between specs (store
    writes, result decoding) by the pass's median probe.
    """
    probes = report["probes"]
    spec_s, net_total = [], 0.0
    for start, end in report["specs"]:
        inside = [d for t, d in probes if start <= t < end]
        before = [d for t, d in probes if t < start][-1]
        after = next(d for t, d in probes if t >= end)
        net = end - start - sum(inside)
        net_total += net
        spec_s.append(at_reference(
            net, statistics.mean([before, *inside, after])))
    raw_wall = report["wall_s"] - sum(d for t, d in probes
                                      if t < report["wall_s"])
    typical = statistics.median(d for _t, d in probes)
    return {"wall_s": sum(spec_s) + at_reference(raw_wall - net_total,
                                                 typical),
            "spec_s": spec_s, "scale": REF_PROBE_S / typical,
            "raw_wall_s": raw_wall}


def setup_seconds(report: dict) -> float:
    """Set-up time scaled by the probes taken as the first spec started."""
    first = [d for _t, d in report["probes"][:calibrate.START_PROBES]]
    return at_reference(report["setup_s"], statistics.median(first))


def untraced_run(args) -> dict:
    run_passes(("setup",), args, 1)  # fills bytecode caches
    rounds = rounds_for(args.workload, args.seconds, 1.0, MIN_PASSES)
    passes = run_passes(("plain",), args, rounds)["plain"]
    setups = [setup_seconds(p)
              for p in run_passes(("setup",), args, SETUP_PASSES)["setup"]]
    setups += [setup_seconds(p) for p in passes]
    scaled = [scaled_pass(p) for p in passes]
    spec_s = [s for p in scaled for s in p["spec_s"]]
    metrics = {
        "wall_s": metric(statistics.median(p["wall_s"] for p in scaled), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "spec_p50_s": metric(statistics.median(spec_s), "s"),
        "spec_p90_s": metric(statistics.quantiles(
            spec_s, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    print(f"{args.workload}: {len(passes)} passes, {len(setups)} set-up "
          f"samples, {len(spec_s)} spec samples (seed {args.seed})")
    for p in scaled:
        print(f"  pass: {p['raw_wall_s']:.3f} s measured, host speed "
              f"x{p['scale']:.3f} of reference -> {p['wall_s']:.3f} s")
    return {"passes": passes, "compare": passes, "metrics": metrics}


def span_sum(spans: dict, layer: str) -> float:
    return sum(v for k, v in spans.items() if k.partition(".")[0] == layer)


def traced_run(args) -> dict:
    import layers

    run_passes(("setup",), args, 1)  # fills bytecode caches
    rounds = rounds_for(args.workload, args.seconds, TRACED_ROUND_COST, 1)
    reports = run_passes(("plain", "trace"), args, rounds)
    plain, traced = reports["plain"], reports["trace"]
    scales = [scaled_pass(t)["scale"] for t in traced]
    self_s = {name: statistics.median(t["span_self_s"].get(name, 0.0) * scale
                                      for t, scale in zip(traced, scales))
              for name in traced[0]["span_self_s"]}
    calls = traced[0]["span_calls"]
    by_layer = {layer: span_sum(self_s, layer) for layer in layers.LAYERS}
    untraced_wall = statistics.median(scaled_pass(p)["wall_s"] for p in plain)
    traced_wall = statistics.median(scaled_pass(t)["wall_s"] for t in traced)
    coverage = statistics.median(
        sum(v for k, v in t["span_self_s"].items()
            if not k.startswith("other.")) / t["run_s"] for t in traced)
    first = traced[0]
    events, elided = first["events"], first["elided"]
    metrics = {
        "harness.self_s": (by_layer["harness"], "s"),
        "harness.store_s": (self_s.get("harness.store", 0.0), "s"),
        "harness.calls": (span_sum(calls, "harness"), "count"),
        "workloads.build_s": (self_s.get("workloads.build", 0.0), "s"),
        "workloads.verify_s": (self_s.get("workloads.verify", 0.0), "s"),
        "system.build_s": (self_s.get("system.build", 0.0), "s"),
        "system.collect_s": (self_s.get("system.collect", 0.0), "s"),
        "engine.self_s": (by_layer["engine"], "s"),
        "engine.events": (events, "count"),
        "engine.elided": (elided, "count"),
        "engine.elided_ratio": (elided / (events + elided)
                                if events + elided else 0.0, "ratio"),
        "engine.events_per_s": (events / untraced_wall, "1/s"),
        "core.self_s": (by_layer["core"], "s"),
        "core.dispatches": (calls.get("core.dispatch", 0), "count"),
        "mechanism.self_s": (by_layer["mechanism"], "s"),
        "mechanism.calls": (calls.get("mechanism.call", 0), "count"),
        "mechanism.dispatches": (calls.get("mechanism.dispatch", 0), "count"),
        "memsys.self_s": (by_layer["memsys"], "s"),
        "memsys.access_calls": (calls.get("memsys.access", 0), "count"),
        "memsys.dram_calls": (calls.get("memsys.dram", 0), "count"),
        "interconnect.self_s": (by_layer["interconnect"], "s"),
        "interconnect.transfer_calls": (calls.get("interconnect.transfer", 0),
                                        "count"),
        "interconnect.remote_calls": (calls.get("interconnect.remote", 0),
                                      "count"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead_pct": (100.0 * (traced_wall / untraced_wall - 1.0),
                               "%"),
    }
    model = first["model"]
    for key, unit in (("sim_cycles", "cycles"), ("sync_requests", "count"),
                      ("overflow_pct", "%"), ("l1_hit_ratio", "ratio"),
                      ("bytes_across_units", "B"),
                      ("link_bit_hops", "bit_hops")):
        metrics[f"model.{key}"] = (model[key], unit)
    print(f"{args.workload}: {len(plain)} untraced + {len(traced)} traced "
          f"passes (seed {args.seed}); host self-time by layer:")
    whole = sum(by_layer.values())
    for layer in layers.LAYERS:
        print(f"  {layer:<13} {by_layer[layer]:8.3f} s "
              f"{100 * by_layer[layer] / whole:5.1f}%")
    return {"passes": traced, "compare": plain + traced, "shares": {
                k: v / whole for k, v in by_layer.items()},
            "metrics": {k: metric(v, u) for k, (v, u) in metrics.items()}}


def validate(args) -> None:
    """Traced per-layer shares against cProfile, in share points."""
    import layers

    result = traced_run(args)
    profiled = run_passes(("profile",), args, 1)["profile"][0][
        "profile_shares"]
    print(f"tracer vs cProfile ({args.workload}, shares of self-time):")
    print(f"  {'layer':<13} {'traced':>7} {'cProfile':>9} {'dev (pts)':>10}")
    worst = 0.0
    for layer in layers.LAYERS:
        traced_share = result["shares"][layer]
        deviation = 100.0 * (traced_share - profiled[layer])
        worst = max(worst, abs(deviation))
        print(f"  {layer:<13} {100 * traced_share:6.1f}% "
              f"{100 * profiled[layer]:8.1f}% {deviation:+10.1f}")
    inner, outer = result["passes"][0]["span_cost_s"]
    print(f"  tracer cost per span removed from self-times: "
          f"{1e9 * inner:.0f} ns inside, {1e9 * outer:.0f} ns in the parent")
    for name in ("trace.coverage", "trace.overhead_pct"):
        print(f"  {name} = {result['metrics'][name]['value']:.4f}")
    print(f"  largest deviation: {worst:.1f} points")


def record(args) -> None:
    """Re-record the committed physics digests for ``--seed``."""
    with open(DIGESTS) as fh:
        table = json.load(fh)
    for workload in ([args.workload] if args.workload else WORKLOADS):
        report = spawn("plain", workload, args.seed)
        if report["errors"]:
            raise PassError(f"{workload}: specs failed: {report['errors']}")
        table.setdefault(workload, {})[str(args.seed)] = report["digests"]
        print(f"recorded {len(report['digests'])} digests for {workload} "
              f"seed {args.seed}")
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=23.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--validate", action="store_true",
                        help="compare traced layer shares with cProfile")
    parser.add_argument("--record", action="store_true",
                        help="re-record reference digests for --seed")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    if not (args.workload or args.record):
        parser.error("--workload is required")
    args.deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.record:
            record(args)
            return 0
        if args.validate:
            validate(args)
            return 0
        result = traced_run(args) if args.trace else untraced_run(args)
        # the model readout and the digest checks come from the passes
        sys.path.insert(0, SRC)
        print_model(args.workload, result["passes"][0]["model"])
        attempted, failed, notes = count_failures(
            result["compare"], load_references(args.workload, args.seed))
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for note in notes:
        print(f"FAILED {note}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} "
          f"spec executions)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
