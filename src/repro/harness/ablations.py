"""Extension experiments beyond the paper's own figures.

Each function plans one of the repository's extension features against
the paper's mechanisms, returning ``(specs, render)`` like the plans in
:mod:`repro.harness.experiments`:

- :func:`spin_baselines` — the Sec. 2.2.1 argument, measured: remote-atomics
  spinning and Lamport-bakery software synchronization vs the paper's
  message-passing schemes under a contended lock.
- :func:`overflow_target_sweep` — the Sec. 4.6 conventional-system
  adaptation: ST-overflow state in DRAM vs in a shared cache.
- :func:`rwlock_read_ratio` — the reader-writer lock extension: speedup
  over a plain mutex as the read share of the operation mix grows.
- :func:`fairness_sweep` — the Sec. 4.4.2 fairness threshold: throughput
  cost vs cross-unit grant spread.

:func:`~repro.harness.runner.run_plan` executes a plan and renders its rows.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.harness.runner import Plan
from repro.harness.specs import RunSpec
from repro.workloads.base import scaled

#: mechanisms the spin-baseline comparison covers, slowest first.
SPIN_COMPARISON = ("bakery", "rmw_spin", "central", "hier", "syncron", "ideal")


def spin_baselines(
    core_steps: Sequence[int] = (15, 30, 45, 60),
    mechanisms: Sequence[str] = SPIN_COMPARISON,
    interval: int = 200,
    rounds: int = None,
) -> Plan:
    """Contended-lock throughput of shared-memory spinning vs messaging.

    The Sec. 2.2.1 claims, quantified: bakery pays O(N) loads per retry,
    remote atomics hammer the home unit, and both lose to hierarchical
    message passing as soon as multiple units contend.
    """
    rounds = rounds if rounds is not None else scaled(15)
    units = {cores: max(cores // 15, 1) for cores in core_steps}
    spec = {
        (cores, mech): RunSpec.make(
            "primitive", mech,
            args={"primitive": "lock", "interval": interval, "rounds": rounds},
            overrides={"num_units": units[cores]})
        for cores in core_steps
        for mech in mechanisms
    }

    def render(results):
        rows = []
        for cores in core_steps:
            row: Dict[str, object] = {"cores": cores, "units": units[cores]}
            for mech in mechanisms:
                metrics = results[spec[cores, mech]]
                row[mech] = metrics.ops_per_second / 1e6
                row[f"{mech}_global_msgs"] = metrics.stats["sync_messages_global"]
            rows.append(row)
        return rows

    return tuple(spec.values()), render


def overflow_target_sweep(
    st_sizes: Sequence[int] = (8, 16, 32, 64),
    targets: Sequence[str] = ("memory", "shared_cache"),
) -> Plan:
    """BST_FG throughput per overflow target and ST size (Sec. 4.6).

    Run on the DDR4 (conventional-memory) configuration, where the shared
    cache's latency advantage over a DRAM row access is what the adaptation
    banks on.
    """
    spec = {
        (st, target): RunSpec.make(
            "structure", "syncron", args={"structure": "bst_fg"},
            overrides={"st_entries": st, "overflow_target": target,
                       "memory": "DDR4"})
        for st in st_sizes
        for target in targets
    }

    def render(results):
        rows = []
        for st in st_sizes:
            row: Dict[str, object] = {"st_entries": st}
            for target in targets:
                metrics = results[spec[st, target]]
                row[target] = metrics.ops_per_ms
                row[f"{target}_overflow_pct"] = metrics.overflow_request_pct
            rows.append(row)
        return rows

    return tuple(spec.values()), render


def rwlock_read_ratio(
    read_pcts: Sequence[int] = (0, 50, 90, 100),
    mechanisms: Sequence[str] = ("syncron", "rmw_spin", "ideal"),
    rounds: int = None,
) -> Plan:
    """Reader-writer lock vs plain mutex across read ratios.

    The ``mutex`` column runs the same operation mix under a plain lock
    (every operation exclusive); the rw columns grant readers concurrently.
    The gap should widen as the read share grows.
    """
    rounds = rounds if rounds is not None else scaled(15)
    spec = {}
    for read_pct in read_pcts:
        spec[read_pct, "mutex"] = RunSpec.make(
            "rwbench", "syncron",
            args={"read_pct": read_pct, "rounds": rounds, "mutex_mode": True},
        )
        for mech in mechanisms:
            spec[read_pct, mech] = RunSpec.make(
                "rwbench", mech, args={"read_pct": read_pct, "rounds": rounds})

    def render(results):
        return [{
            "read_pct": read_pct,
            **{column: results[spec[read_pct, column]].ops_per_second / 1e6
               for column in ("mutex", *mechanisms)},
        } for read_pct in read_pcts]

    return tuple(spec.values()), render


def unionfind_connectivity(
    datasets: Sequence[str] = ("wk", "sl"),
    mechanisms: Sequence[str] = ("syncron", "ideal"),
    edge_limit: int = None,
) -> Plan:
    """Union-find edge-stream connectivity: rw lock vs mutex per dataset.

    The realistic rw-lock application: finds are read-locked pointer
    chases, unions are write-locked mutations, and dense real streams are
    read-dominated because most edges land inside an existing component.
    """
    edge_limit = edge_limit if edge_limit is not None else scaled(300)
    spec = {
        (dataset, mech, mutex_mode): RunSpec.make(
            "unionfind", mech,
            args={"dataset": dataset, "edge_limit": edge_limit,
                  "mutex_mode": mutex_mode})
        for dataset in datasets
        for mech in mechanisms
        for mutex_mode in (False, True)
    }

    def render(results):
        rows = []
        for dataset in datasets:
            row: Dict[str, object] = {"dataset": dataset}
            for mech in mechanisms:
                rw = results[spec[dataset, mech, False]]
                mutex = results[spec[dataset, mech, True]]
                row[f"{mech}_rw_ops_ms"] = rw.ops_per_ms
                row[f"{mech}_mutex_ops_ms"] = mutex.ops_per_ms
                row[f"{mech}_rw_speedup"] = mutex.cycles / rw.cycles
            rows.append(row)
        return rows

    return tuple(spec.values()), render


def fairness_sweep(
    thresholds: Sequence[int] = (0, 1, 4, 16),
    rounds: int = None,
) -> Plan:
    """Throughput vs cross-unit fairness as the Sec. 4.4.2 threshold varies.

    ``unit_finish_spread`` is the gap between the first and last unit to
    finish (in cycles): without fairness transfers, the lock's home unit
    hogs it and remote units finish late.
    """
    rounds = rounds if rounds is not None else scaled(20)
    spec = {
        threshold: RunSpec.make(
            "fairness", "syncron", args={"rounds": rounds},
            overrides={"num_units": 2, "fairness_threshold": threshold})
        for threshold in thresholds
    }

    def render(results):
        return [{"threshold": threshold, **results[spec[threshold]]}
                for threshold in thresholds]

    return tuple(spec.values()), render


def smt_sweep(
    thread_counts: Sequence[int] = (1, 2, 4),
    rounds_per_core: int = 48,
    mechanisms: Sequence[str] = ("syncron", "ideal"),
) -> Plan:
    """Hardware thread contexts per core (Sec. 4's SMT note), measured.

    Fixed total work per *physical* core, split across its contexts:
    makespan should drop as contexts overlap their synchronization and
    memory stalls, saturating once the shared pipeline (1 IPC) becomes
    the bottleneck.
    """
    spec = {
        (threads, mech): RunSpec.make(
            "smt", mech, args={"rounds_per_core": rounds_per_core},
            overrides={"num_units": 2, "threads_per_core": threads})
        for threads in thread_counts
        for mech in mechanisms
    }

    def render(results):
        return [{
            "threads_per_core": threads,
            **{mech: results[spec[threads, mech]]["makespan"]
               for mech in mechanisms},
        } for threads in thread_counts]

    return tuple(spec.values()), render


def se_vs_server_latency(
    se_cycles: Sequence[int] = (3, 12, 24, 48, 96),
) -> Plan:
    """How slow can the SE get before it degenerates into Hier?

    Sweeps the SPU's per-message service time on a contended stack and
    reports where SynCron's advantage over the software server disappears —
    the ablation DESIGN.md calls out for the paper's 12-cycle choice.
    """
    spec = {
        (cycles, mech): RunSpec.make(
            "structure", mech, args={"structure": "stack"},
            overrides={"se_service_se_cycles": cycles})
        for cycles in se_cycles
        for mech in ("syncron", "hier")
    }

    def render(results):
        rows = []
        for cycles in se_cycles:
            syncron = results[spec[cycles, "syncron"]]
            hier = results[spec[cycles, "hier"]]
            rows.append({
                "se_service_cycles": cycles,
                "syncron_ops_ms": syncron.ops_per_ms,
                "hier_ops_ms": hier.ops_per_ms,
                "syncron_vs_hier": hier.cycles / syncron.cycles,
            })
        return rows

    return tuple(spec.values()), render
