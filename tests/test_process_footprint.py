"""What a spec-running process loads and keeps.

- A process that runs specs imports only the modules its specs execute:
  the package ``__init__``s re-export no figure planner, lint engine,
  co-run or tenancy code, :mod:`repro.harness.specs` imports each
  workload family where a spec first needs it, a system imports only its
  own mechanism, and a one-worker sweep never loads ``multiprocessing``.
  The classes a spec builds are plain classes, so no spec loads
  ``dataclasses`` (nor the ``inspect`` it imports), and a system looks
  for a sanitizer session without importing the sanitizer.
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


#: plans one spec of each benchmark family and mechanism, then runs them
#: with one worker; prints the modules loaded after each step.
_EVERY_FAMILY = """
import json, sys
from repro.harness.runner import RunSpec, run_specs
lock = {"primitive": "lock", "interval": 200, "rounds": 3}
specs = [
    RunSpec.make("app", mechanism="central", args={"combo": "bfs.wk"}),
    RunSpec.make("app", mechanism="hier", args={"combo": "ts.air"}),
    RunSpec.make("app", mechanism="ideal", args={"combo": "bfs.wk"}),
    RunSpec.make("structure", mechanism="syncron",
                 args={"structure": "stack"},
                 overrides={"topology": "mesh2d", "num_units": 8}),
    RunSpec.make("structure", mechanism="syncron",
                 args={"structure": "hashtable"},
                 overrides={"st_entries": 8}),
    *(RunSpec.make("primitive", mechanism=mechanism, args=lock)
      for mechanism in ("bakery", "rmw_spin", "syncron")),
]
print(json.dumps(sorted(sys.modules)))
run_specs(specs, workers=1)
print(json.dumps(sorted(sys.modules)))
"""

#: modules no plain spec run needs: ``dataclasses`` (with the ``inspect``
#: it imports) and the sanitizer.
UNUSED_BY_ANY_SPEC = ("dataclasses", "inspect", "repro.analysis.sanitizer")


def _run_script(script: str) -> list:
    """Each line a fresh interpreter running ``script`` prints, parsed as
    JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return [json.loads(line) for line in result.stdout.strip().splitlines()]


def _modules_after(workload: str, args: dict, run: bool = False) -> set:
    """Modules a fresh interpreter holds after planning a spec and, if
    ``run``, running it with one worker."""
    script = _PLAN.format(workload=workload, args=args, run=run)
    return set(_run_script(script)[-1])


class TestStartupImports:
    def test_primitive_spec_imports_no_unused_module(self):
        loaded = _modules_after(
            "primitive", {"primitive": "lock", "interval": 200, "rounds": 5})
        assert "repro.workloads.microbench" in loaded
        assert sorted(loaded.intersection(UNUSED_BY_PRIMITIVE)) == []

    def test_no_spec_family_imports_dataclasses_or_the_sanitizer(self):
        planned, ran = _run_script(_EVERY_FAMILY)
        assert "repro.workloads.graphs" in planned
        assert "repro.sync.bakery" in ran
        for loaded in (planned, ran):
            assert sorted(set(loaded).intersection(UNUSED_BY_ANY_SPEC)) == []

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
