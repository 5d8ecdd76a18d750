"""What a spec-running process loads and keeps.

- A process that runs specs imports only the modules its specs execute:
  the package ``__init__``s re-export no figure planner, lint engine,
  co-run or tenancy code, :mod:`repro.harness.specs` imports each
  workload family where a spec first needs it, a system imports only its
  own mechanism, and a one-worker sweep never loads ``multiprocessing``.
- A finished system is freed by reference counting, not left as cyclic
  garbage for a full collection (:meth:`NDPSystem.release`).
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.system import NDPSystem
from repro.workloads.base import run_workload
from repro.workloads.microbench import PrimitiveMicrobench

REPO_ROOT = Path(__file__).resolve().parent.parent

#: modules no ``primitive`` spec executes.
UNUSED_BY_PRIMITIVE = (
    "repro.harness.experiments",
    "repro.analysis.engine",
    "repro.analysis.rules",
    "repro.core.area",
    "repro.sim.tenancy",
    "repro.sim.trace",
    "repro.workloads.corun",
    "repro.workloads.graphs",
    "repro.workloads.datastructures",
)

#: modules a one-worker ``primitive``/``syncron`` run never executes: the
#: pool machinery and the other mechanisms.
UNUSED_BY_SYNCRON_RUN = (
    "multiprocessing",
    "repro.sync.bakery",
    "repro.sync.remote_atomics",
    "repro.sync.overflow_alt",
)

_PLAN = """
import json, sys
from repro.harness.runner import RunSpec, run_specs
spec = RunSpec.make({workload!r}, mechanism="syncron", args={args!r})
if {run!r}:
    run_specs([spec], workers=1)
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(workload: str, args: dict, run: bool = False) -> set:
    """Modules a fresh interpreter holds after planning a spec and, if
    ``run``, running it with one worker."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = _PLAN.format(workload=workload, args=args, run=run)
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return set(json.loads(result.stdout.strip().splitlines()[-1]))


class TestStartupImports:
    def test_primitive_spec_imports_no_unused_module(self):
        loaded = _modules_after(
            "primitive", {"primitive": "lock", "interval": 200, "rounds": 5})
        assert "repro.workloads.microbench" in loaded
        assert sorted(loaded.intersection(UNUSED_BY_PRIMITIVE)) == []

    def test_one_worker_syncron_run_imports_only_its_mechanism(self):
        loaded = _modules_after(
            "primitive", {"primitive": "lock", "interval": 200, "rounds": 5},
            run=True)
        assert "repro.core.engine" in loaded
        assert sorted(loaded.intersection(
            UNUSED_BY_PRIMITIVE + UNUSED_BY_SYNCRON_RUN)) == []

    # Planning must import the family a spec runs, before the first spec
    # executes: a process that wraps the Workload subclasses between
    # planning and running (an external tracer) must find them all.
    @pytest.mark.parametrize("workload, args, family, absent", [
        ("app", {"combo": "bfs.wk"}, "repro.workloads.graphs",
         "repro.workloads.timeseries"),
        ("app", {"combo": "ts.air"}, "repro.workloads.timeseries",
         "repro.workloads.graphs"),
        ("structure", {"structure": "stack"},
         "repro.workloads.datastructures", "repro.workloads.graphs"),
    ])
    def test_planning_imports_only_the_spec_family(self, workload, args,
                                                   family, absent):
        loaded = _modules_after(workload, args)
        assert family in loaded
        assert absent not in loaded


def _lock_run(primitive="lock"):
    return PrimitiveMicrobench(primitive, 200, rounds=3)


def _cyclic_garbage(run) -> dict:
    """Counts of simulator objects a full collection finds unreachable
    after ``run()`` returned, with automatic collection off meanwhile."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        names = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return {name: names.count(name)
            for name in ("NDPSystem", "NDPCore", "SyncEngine", "Simulator")
            if name in names}


class TestReleasedSystems:
    # The spin baselines retry through wait-channel callbacks: a retry
    # loop built from self-referencing closures would hold every core and
    # the simulator in one cycle per request.
    @pytest.mark.parametrize("mechanism, primitive", [
        ("syncron", "lock"), ("central", "lock"), ("hier", "lock"),
        ("bakery", "lock"), ("rmw_spin", "lock"), ("rmw_spin", "semaphore"),
    ], ids=["syncron", "central", "hier", "bakery", "rmw_spin",
            "rmw_spin-semaphore"])
    def test_run_workload_leaves_no_cyclic_system(self, tiny_config,
                                                  mechanism, primitive):
        garbage = _cyclic_garbage(lambda: run_workload(
            lambda: _lock_run(primitive), tiny_config, mechanism))
        assert garbage == {}

    def test_unreleased_system_is_cyclic_garbage(self, tiny_config):
        # The check above can see cycles: a system run the same way but
        # never released is found by the full collection.
        def run():
            _lock_run().run(NDPSystem(tiny_config, mechanism="syncron"))

        garbage = _cyclic_garbage(run)
        assert garbage.get("NDPSystem") == 1
        assert garbage.get("SyncEngine") == tiny_config.num_units
