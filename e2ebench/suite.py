"""The benchmark's workloads: named lists of ``RunSpec``s.

Every workload is grounded in the paper's own evaluation (the related-work
retrievals offered no runnable reference):

- ``apps``: the Fig. 12/14/15 application subset, four mechanisms each;
  ``ideal`` is the mechanism-light control.
- ``structures``: the Fig. 16 high-contention data structures at 500 ns
  links, the Fig. 22/23 ST-overflow path (``st_entries=8``), and a
  routed ``mesh2d`` fabric beside the single-link all-to-all specs.
- ``spin``: the Sec. 2.2.1 spin-wait baselines, where memsys and the
  interconnect do most of the host work and the kernel does little.

The seed reaches only the seedable builders (``app``, ``structure``);
``primitive`` specs are seed-free, so every seed runs the same ``spin``.
"""

from __future__ import annotations

from typing import List

from repro.harness.specs import RunSpec

APP_COMBOS = ("bfs.wk", "cc.sx", "sssp.co", "pr.wk",
              "tf.sl", "tc.sx", "ts.air", "ts.pow")
APP_MECHANISMS = ("central", "hier", "syncron", "ideal")

STRUCTURES = ("stack", "priority_queue", "hashtable", "linkedlist",
              "skiplist")
OVERFLOW_STRUCTURES = ("hashtable", "linkedlist", "skiplist")
MESH_STRUCTURES = ("stack", "hashtable", "linkedlist")

SPIN_MECHANISMS = ("bakery", "rmw_spin", "syncron")


def _apps(seed: int) -> List[RunSpec]:
    return [RunSpec.make("app", mechanism=mech, args={"combo": combo},
                         seed=seed)
            for combo in APP_COMBOS for mech in APP_MECHANISMS]


def _structures(seed: int) -> List[RunSpec]:
    specs = [RunSpec.make("structure", mechanism=mech,
                          args={"structure": name},
                          overrides={"link_latency_ns": 500.0}, seed=seed)
             for name in STRUCTURES for mech in ("central", "hier", "syncron")]
    specs += [RunSpec.make("structure", mechanism="syncron",
                           args={"structure": name},
                           overrides={"link_latency_ns": 500.0,
                                      "st_entries": 8}, seed=seed)
              for name in OVERFLOW_STRUCTURES]
    specs += [RunSpec.make("structure", mechanism=mech,
                           args={"structure": name},
                           overrides={"topology": "mesh2d", "num_units": 8},
                           seed=seed)
              for name in MESH_STRUCTURES for mech in ("central", "syncron")]
    return specs


def _spin(seed: int) -> List[RunSpec]:
    lock = {"primitive": "lock", "interval": 200, "rounds": 15}
    specs = [RunSpec.make("primitive", mechanism=mech, args=lock,
                          overrides={"num_units": units}, seed=seed)
             for units in (1, 2) for mech in SPIN_MECHANISMS]
    specs += [RunSpec.make("primitive", mechanism="rmw_spin",
                           args={**lock, "primitive": primitive},
                           overrides={"num_units": 4}, seed=seed)
              for primitive in ("lock", "semaphore")]
    return specs


WORKLOADS = {"apps": _apps, "structures": _structures, "spin": _spin}


def build(workload: str, seed: int) -> List[RunSpec]:
    """The workload's spec list for ``seed``, in run order."""
    return WORKLOADS[workload](seed)

