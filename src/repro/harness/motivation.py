"""Motivational experiments on the coherence substrate (Table 1, Fig. 2).

These reproduce the paper's Section 2 evidence that coherence-based
synchronization does not fit NDP systems:

- :func:`table1` — TTAS and Hierarchical Ticket Lock operation throughput
  on a two-socket CPU (libslock-style microbenchmark): contention collapse
  from 1 → 14 threads and the same-socket vs different-socket gap.
- :func:`fig2` — slowdown of a coarse-lock stack using a MESI-based lock
  (``mesi-lock``) over an ideal zero-cost lock (``ideal-lock``), varying
  (a) cores within one NDP unit and (b) NDP units at constant core count.

Both are plans over the measurement functions in
:mod:`repro.harness.measurements`, executed (and cached/parallelized) by
:func:`~repro.harness.runner.run_plan`.
"""

from __future__ import annotations

from repro.harness.runner import Plan
from repro.harness.specs import RunSpec
from repro.workloads.base import scaled


def table1(ops_per_thread: int = None) -> Plan:
    """Throughput (Mops/s) for the four Table 1 configurations."""
    ops = ops_per_thread if ops_per_thread is not None else scaled(150)
    cases = [
        ("1 thread single-socket", (0,)),
        ("14 threads single-socket", tuple(range(14))),
        ("2 threads same-socket", (0, 1)),
        ("2 threads different-socket", (0, 14)),
    ]
    lock_kinds = ("ttas", "htl")
    spec = {
        (lock_kind, label): RunSpec.make(
            "coherence_lock", "coherent", preset="cpu_numa",
            args={"lock_kind": lock_kind, "core_ids": core_ids,
                  "ops_per_thread": ops})
        for lock_kind in lock_kinds
        for label, core_ids in cases
    }

    def render(results):
        return [{
            "lock": "TTAS lock" if lock_kind == "ttas" else "Hierarchical Ticket lock",
            **{label: results[spec[lock_kind, label]]["mops"]
               for label, _core_ids in cases},
        } for lock_kind in lock_kinds]

    return tuple(spec.values()), render


# ----------------------------------------------------------------------
# Fig. 2: coarse-lock stack, mesi-lock vs ideal-lock
# ----------------------------------------------------------------------
def _stack_spec(num_units: int, cores_per_unit: int, mechanism: str,
                ops_per_core: int) -> RunSpec:
    return RunSpec.make(
        "mesi_stack", mechanism,
        args={"ops_per_core": ops_per_core},
        overrides={
            "num_units": num_units,
            "cores_per_unit": cores_per_unit + 1,
            "client_cores_per_unit": cores_per_unit,
        },
    )


def fig2(ops_per_core: int = None) -> Plan:
    """Slowdown of mesi-lock over ideal-lock.

    Part (a): 15/30/45/60 cores in one NDP unit.
    Part (b): 1..4 NDP units at 60 total cores.
    """
    ops = ops_per_core if ops_per_core is not None else scaled(20)
    part_a = (15, 30, 45, 60)
    part_b = (1, 2, 3, 4)
    mechanisms = ("ideal", "mesi")
    spec = {("a", cores, mech): _stack_spec(1, cores, mech, ops)
            for cores in part_a for mech in mechanisms}
    spec.update({("b", units, mech): _stack_spec(units, 60 // units, mech, ops)
                 for units in part_b for mech in mechanisms})

    def render(results):
        def row(key, part, step):
            ideal = results[spec[part, step, "ideal"]]["cycles"]
            mesi = results[spec[part, step, "mesi"]]["cycles"]
            return {key: step, "slowdown": mesi / ideal,
                    "ideal_cycles": ideal, "mesi_cycles": mesi}

        return {"a_cores": [row("ndp_cores", "a", cores) for cores in part_a],
                "b_units": [row("ndp_units", "b", units) for units in part_b]}

    return tuple(spec.values()), render
