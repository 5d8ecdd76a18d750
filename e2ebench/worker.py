"""One benchmark pass in a fresh interpreter (spawned by ``run.py``).

Runs a workload's spec list through the public harness path,
``repro.harness.runner.run_specs``, with one worker and an empty result
store, and prints one JSON object describing the pass.  Modes:

- ``plain``: untraced pass; per-spec host seconds, host-speed probes,
  physics digests, peak RSS.
- ``setup``: stop as the first spec starts (set-up time only).
- ``trace``: as ``plain`` with every layer's entry points wrapped in spans
  (:mod:`layers`), patched before any system is built.
- ``profile``: as ``plain`` under cProfile, grouped by the same layer map.

Usage: ``worker.py MODE WORKLOAD SEED STORE_DIR SPAWN_MONOTONIC``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import calibrate
import suite
from repro.harness import runner
from repro.workloads.base import RunMetrics

#: RunMetrics stats prefixes that describe simulation effort or host time,
#: not simulated physics; they stay out of the physics digest.
NON_PHYSICS_PREFIXES = ("kernel.", "telemetry.")


#: seconds between host-speed probes while a plain pass runs.
TICK_SECONDS = 0.2


class SetupDone(Exception):
    """Raised at the first spec start in ``setup`` mode."""


def physics_digest(metrics: RunMetrics) -> str:
    """SHA-256 over ``RunMetrics.as_dict()`` minus kernel/telemetry stats."""
    payload = metrics.as_dict()
    payload["stats"] = {k: v for k, v in payload["stats"].items()
                        if not k.startswith(NON_PHYSICS_PREFIXES)}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def model_readout(specs, results) -> dict:
    """Simulated-time counts summed over the workload (unvalidated model)."""
    ok = [r for r in results if isinstance(r, RunMetrics)]
    requests = sum(r.sync_requests for r in ok)
    overflowed = sum(r.overflow_request_pct * r.sync_requests / 100.0
                     for r in ok)
    hits = sum(r.stats.get("cache_hits", 0) for r in ok)
    misses = sum(r.stats.get("cache_misses", 0) for r in ok)
    return {
        "sim_cycles": sum(r.cycles for r in ok),
        "sync_requests": requests,
        "overflow_pct": 100.0 * overflowed / requests if requests else 0.0,
        "l1_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "bytes_across_units": sum(r.bytes_across_units for r in ok),
        "link_bit_hops": sum(r.stats.get("link_bit_hops", 0) for r in ok),
        "cycles": {spec.describe(): r.cycles
                   for spec, r in zip(specs, results)
                   if isinstance(r, RunMetrics)},
    }


def main(argv) -> None:
    mode, workload, seed, store_dir, spawned = argv
    spawned = float(spawned)
    specs = suite.build(workload, int(seed))

    timing = {"first_start": None, "specs": [], "errors": {}}
    probes = calibrate.ProbeLog()
    probing = mode != "profile"  # cProfile would book the probes as work
    execute = runner.execute_spec

    def timed_execute(spec):
        if timing["first_start"] is None:
            timing["first_start"] = probes.origin = time.monotonic()
            for _ in range(calibrate.START_PROBES if probing else 0):
                probes.take()
            if mode == "setup":
                raise SetupDone
            if mode == "plain":
                probes.start_ticking(TICK_SECONDS)
        elif probing:
            probes.take()
        start = time.monotonic()
        try:
            return execute(spec)
        except Exception as exc:  # a failed spec is counted, not fatal
            timing["errors"][spec.describe()] = f"{type(exc).__name__}: {exc}"
            return {"kind": "row", "result": {"error": repr(exc)},
                    "spec": spec.describe()}
        finally:
            origin = timing["first_start"]
            timing["specs"].append((start - origin, time.monotonic() - origin))

    tracer = profiler = None
    if mode == "trace":
        import layers

        tracer = layers.install()
        execute = runner.execute_spec  # now the traced entry point
    runner.execute_spec = timed_execute
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()

    run_specs = runner.run_specs
    called = time.monotonic()
    try:
        if profiler is not None:
            profiler.enable()
        results = run_specs(specs, workers=1, cache=True,
                            store=f"dir:{store_dir}")
    except SetupDone:
        results = None
    finally:
        if profiler is not None:
            profiler.disable()
        probes.stop_ticking()
    done = time.monotonic()
    if results is not None and probing:
        probes.take()
    probe_total = sum(d for t, d in probes.samples
                      if t < done - timing["first_start"])

    out = {"setup_s": timing["first_start"] - spawned,
           "probes": probes.samples}
    if results is not None:
        out.update(
            wall_s=done - timing["first_start"],
            run_s=done - called - probe_total,
            specs=timing["specs"],
            errors=timing["errors"],
            digests={spec.describe(): physics_digest(r)
                     for spec, r in zip(specs, results)
                     if isinstance(r, RunMetrics)},
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            events=sum(r.stats.get("kernel.events_processed", 0)
                       for r in results if isinstance(r, RunMetrics)),
            elided=sum(r.stats.get("kernel.elided_events", 0)
                       for r in results if isinstance(r, RunMetrics)),
            model=model_readout(specs, results),
        )
    if tracer is not None:
        # the probes between specs ran inside the run_specs span
        tracer.self_s["harness.run_specs"] -= probe_total
        out["span_self_s"] = dict(tracer.self_s)
        out["span_calls"] = dict(tracer.calls)
        out["span_cost_s"] = tracer.cost
    if profiler is not None:
        import layers

        out["profile_shares"] = layers.profile_shares(profiler)
    print(json.dumps(out))


if __name__ == "__main__":
    if len(sys.argv) != 6:
        sys.exit(__doc__)
    os.environ.setdefault("REPRO_SCALE", "small")
    main(sys.argv[1:])
