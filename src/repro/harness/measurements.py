"""Measurement functions the sweep runner can execute by registry name.

These are the experiment bodies that drive a system directly instead of
going through :func:`~repro.workloads.base.run_workload` — the Table 1
coherence-lock microbenchmark, the Fig. 2 mesi-lock stack, and the
fairness/SMT ablation points.  Each has the uniform signature

    fn(config: SystemConfig, mechanism: str, **args) -> Dict[str, number]

so :mod:`repro.harness.runner` can execute and cache them exactly like
workload runs.  This module deliberately imports no other harness module
(worker processes import it via the :data:`repro.harness.specs.MEASUREMENTS`
registry).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.coherence.driver import (
    CLoad,
    CoherentSystem,
    CStore,
    IdealAcquire,
    IdealRelease,
)
from repro.coherence.locks import (
    HierarchicalTicketLock,
    ticket_acquire,
    ticket_release,
    ttas_acquire,
    ttas_release,
)
from repro.core import api
from repro.sim.clock import seconds_from_core_cycles
from repro.sim.config import SystemConfig
from repro.sim.program import Compute
from repro.sim.system import NDPSystem


# ----------------------------------------------------------------------
# Table 1 — coherence-lock throughput on a NUMA CPU
# ----------------------------------------------------------------------
def coherence_lock_case(config: SystemConfig, mechanism: str,
                        lock_kind: str = "ttas",
                        core_ids: Sequence[int] = (0,),
                        ops_per_thread: int = 150) -> Dict[str, float]:
    """libslock-style benchmark: acquire, tiny CS, release; returns Mops/s.

    ``mechanism`` is unused (the coherence substrate has no SE mechanisms);
    it rides along so the spec shape stays uniform.
    """
    system = CoherentSystem(config)
    shared = {"count": 0}
    if lock_kind == "ttas":
        lock = system.alloc_line(0)

        def worker():
            for _ in range(ops_per_thread):
                yield from ttas_acquire(lock)
                shared["count"] += 1
                yield Compute(20)
                yield from ttas_release(lock)

        programs = {cid: worker() for cid in core_ids}
    elif lock_kind == "htl":
        htl = HierarchicalTicketLock(system, system.config.num_units)

        def worker(socket):
            for _ in range(ops_per_thread):
                yield from htl.acquire(socket)
                shared["count"] += 1
                yield Compute(20)
                yield from htl.release(socket)

        programs = {
            cid: worker(system.cores[cid].unit_id) for cid in core_ids
        }
    else:
        raise ValueError(f"unknown lock kind {lock_kind!r}")

    cycles = system.run_programs(programs)
    total = ops_per_thread * len(core_ids)
    if shared["count"] != total:
        raise AssertionError("lock microbenchmark lost operations")
    return {"mops": total / seconds_from_core_cycles(cycles) / 1e6}


# ----------------------------------------------------------------------
# Fig. 2 — coarse-lock stack, mesi-lock vs ideal-lock
# ----------------------------------------------------------------------
def mesi_stack_cycles(config: SystemConfig, mechanism: str,
                      ops_per_core: int = 20) -> Dict[str, int]:
    """Coarse-lock stack on the coherent NDP model; returns the makespan.

    ``mechanism`` selects the lock: ``"mesi"`` runs a fair ticket lock on
    the MESI directory, ``"ideal"`` a zero-cost lock.
    """
    if mechanism not in ("mesi", "ideal"):
        raise ValueError("mesi_stack mechanism must be 'mesi' or 'ideal'")
    use_mesi_lock = mechanism == "mesi"
    system = CoherentSystem(config)
    # mesi-lock: a fair coherence-based lock [Herlihy & Shavit] on the MESI
    # directory (ticket-based; a raw TAS lock degrades far worse and would
    # overstate Fig. 2's point).
    ticket_next = system.alloc_line(0)
    ticket_serving = system.alloc_line(0)
    top_addr = system.alloc_line(0)
    stack = [0] * 8
    LOCK_ID = 1

    def worker(core_id):
        unit = system.cores[core_id].unit_id
        # each core's nodes live in its own unit (thread-private data).
        nodes = [system.alloc_line(unit) for _ in range(ops_per_core)]
        for i in range(ops_per_core):
            # prepare the node outside the critical section.
            yield CStore(nodes[i], core_id)
            if use_mesi_lock:
                yield from ticket_acquire(ticket_next, ticket_serving)
            else:
                yield IdealAcquire(LOCK_ID)
            # push: read top, link node, update top.
            yield CLoad(top_addr)
            stack.append(core_id)
            yield CStore(nodes[i], len(stack))
            yield CStore(top_addr, len(stack))
            yield Compute(10)
            if use_mesi_lock:
                yield from ticket_release(ticket_serving)
            else:
                yield IdealRelease(LOCK_ID)

    programs = {c.core_id: worker(c.core_id) for c in system.cores}
    cycles = system.run_programs(programs)
    expected = 8 + ops_per_core * len(system.cores)
    if len(stack) != expected:
        raise AssertionError("stack lost pushes under the lock")
    return {"cycles": cycles}


# ----------------------------------------------------------------------
# Fairness ablation point (Sec. 4.4.2)
# ----------------------------------------------------------------------
def fairness_point(config: SystemConfig, mechanism: str,
                   rounds: int = 20) -> Dict[str, int]:
    """One fairness-threshold sample: makespan + cross-unit finish spread."""
    system = NDPSystem(config, mechanism=mechanism)
    lock = system.create_syncvar(unit=0, name="fair")
    state = {"count": 0}

    def worker():
        for _ in range(rounds):
            yield api.lock_acquire(lock)
            state["count"] += 1
            yield Compute(40)
            yield api.lock_release(lock)

    makespan = system.run_programs(
        {core.core_id: worker() for core in system.cores}
    )
    unit_finish = {
        unit: max(core.finish_time for core in system.cores_in_unit(unit))
        for unit in range(config.num_units)
    }
    return {
        "makespan": makespan,
        "unit_finish_spread": max(unit_finish.values()) - min(unit_finish.values()),
        "acquires": state["count"],
    }


# ----------------------------------------------------------------------
# SMT ablation point (Sec. 4's hardware-context note)
# ----------------------------------------------------------------------
def smt_point(config: SystemConfig, mechanism: str,
              rounds_per_core: int = 48) -> Dict[str, int]:
    """Makespan with fixed per-physical-core work split across contexts."""
    system = NDPSystem(config, mechanism=mechanism)
    lock = system.create_syncvar(unit=0, name="smt")
    rounds = max(rounds_per_core // config.threads_per_core, 1)

    def worker():
        for _ in range(rounds):
            yield api.lock_acquire(lock)
            yield Compute(5)
            yield api.lock_release(lock)
            yield Compute(120)

    makespan = system.run_programs(
        {core.core_id: worker() for core in system.cores}
    )
    return {"makespan": makespan}


# ----------------------------------------------------------------------
# Degraded-fabric geometry probe (no workload; pure routing)
# ----------------------------------------------------------------------
def fabric_probe(config: SystemConfig, mechanism: str) -> Dict[str, float]:
    """Route inflation of a fabric under its config's faults.

    Applies the deterministic :class:`~repro.sim.topo.faults.FaultPlan`'s
    failures instantly and compares every ordered pair's surviving route
    against the pristine table.  ``mechanism`` is unused — fabric
    geometry is mechanism-independent — and rides along so the spec shape
    stays uniform.
    """
    from repro.sim.network import Interconnect
    from repro.sim.stats import SystemStats
    from repro.sim.topo.faults import FaultPlan

    config.validate()
    stats = SystemStats()
    interconnect = Interconnect(config, stats)
    topology = interconnect.topology
    plan = FaultPlan.from_config(config, topology)
    for event in plan.events:
        interconnect.fail_link(event.channel, event.at)
    pairs = [
        (src, dst)
        for src in range(config.num_units)
        for dst in range(config.num_units)
        if src != dst
    ]
    pristine = sum(topology.hops(src, dst) for src, dst in pairs)
    degraded = sum(interconnect.remote_hops(src, dst) for src, dst in pairs)
    return {
        "pairs": len(pairs),
        "links_failed": len(interconnect.dead_channels),
        "plan_events": len(plan.events),
        "plan_skipped": len(plan.skipped),
        "mean_hops": pristine / len(pairs) if pairs else 0.0,
        "mean_hops_degraded": degraded / len(pairs) if pairs else 0.0,
        "hop_inflation": degraded / pristine if pristine else 1.0,
        "reroutes": stats.reroutes,
    }
