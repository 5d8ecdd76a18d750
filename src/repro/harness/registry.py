"""The registered experiments: one :class:`Experiment` record (a plan
returning ``(specs, render)``, a description, a plot) per ``repro run``
target.  ``specs, _render = find("fig12").plan()`` simulates nothing."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

from repro.harness import ablations, experiments, motivation
from repro.harness.experiments import MECHANISMS
from repro.harness.plotting import bar_chart, line_chart
from repro.harness.runner import Plan


class Experiment(NamedTuple):
    name: str
    plan: Callable[..., Plan]
    description: str
    #: ``(kind, key, series, log_x)``: a "line" chart of ``series`` over
    #: ``key``, or one "bars" chart per row titled by ``key``; None = no plot.
    plot: Optional[tuple] = None

    def chart(self, rows) -> Optional[str]:
        """Terminal chart of this experiment's rows, or None when unmapped."""
        if self.plot is None:
            return None
        kind, key, series, log_x = self.plot
        series = [s for s in series if rows and s in rows[0]]
        if not series:
            return None
        if kind == "line":
            return line_chart(rows, key, series, title=self.name, log_x=log_x)
        return "\n\n".join(
            bar_chart({s: float(row[s]) for s in series},
                      title=str(row.get(key, "")))
            for row in rows
        )


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("table1", motivation.table1, "coherence-lock throughput on a NUMA CPU"),
    Experiment("fig2", motivation.fig2, "mesi-lock stack slowdown vs ideal-lock"),
    Experiment("fig10", experiments.fig10,
               "primitive speedups vs interval (needs primitive=...)",
               ("line", "interval", MECHANISMS, True)),
    Experiment("fig11", experiments.fig11,
               "data-structure throughput (needs structure=...)",
               ("line", "cores", MECHANISMS, False)),
    Experiment("fig12", experiments.fig12, "real-application speedups over Central",
               ("bars", "app", ("hier", "syncron", "ideal"), False)),
    Experiment("fig13", experiments.fig13, "SynCron scalability across NDP units"),
    Experiment("fig14", experiments.fig14, "energy breakdown"),
    Experiment("fig15", experiments.fig15, "data movement"),
    Experiment("fig16", experiments.fig16, "high-contention link-latency sensitivity",
               ("line", "latency_ns", MECHANISMS, True)),
    Experiment("fig17", experiments.fig17, "low-contention link-latency sensitivity",
               ("line", "latency_ns", ("central", "hier", "syncron"), True)),
    Experiment("fig18", experiments.fig18, "memory-technology sweep"),
    Experiment("fig19", experiments.fig19, "graph-partitioning effect"),
    Experiment("fig20", experiments.fig20, "SynCron vs flat (graphs)"),
    Experiment("fig21a", experiments.fig21a, "SynCron vs flat (time series)"),
    Experiment("fig21b", experiments.fig21b, "SynCron vs flat (queue)"),
    Experiment("fig22", experiments.fig22, "ST size sensitivity",
               ("bars", "app", ("ST_64", "ST_32", "ST_8"), False)),
    Experiment("fig23", experiments.fig23, "overflow-management schemes"),
    Experiment("table7", experiments.table7, "ST occupancy per application"),
    # Extension experiments (beyond the paper's own figures).
    Experiment("ext_spin", ablations.spin_baselines,
               "spin-wait baselines (bakery / remote atomics) vs messaging",
               ("line", "cores", ("bakery", "rmw_spin", "syncron", "ideal"), False)),
    Experiment("ext_overflow", ablations.overflow_target_sweep,
               "Sec. 4.6 shared-cache vs memory overflow target"),
    Experiment("ext_rwlock", ablations.rwlock_read_ratio,
               "reader-writer lock vs plain mutex across read ratios",
               ("line", "read_pct", ("mutex", "syncron", "rmw_spin", "ideal"), False)),
    Experiment("ext_fairness", ablations.fairness_sweep,
               "Sec. 4.4.2 fairness threshold trade-off",
               ("line", "threshold", ("makespan", "unit_finish_spread"), False)),
    Experiment("ext_se_knee", ablations.se_vs_server_latency,
               "SE service-time knee vs the Hier software server",
               ("line", "se_service_cycles", ("syncron_ops_ms", "hier_ops_ms"), False)),
    Experiment("ext_smt", ablations.smt_sweep,
               "hardware thread contexts per core (Sec. 4 SMT note)",
               ("line", "threads_per_core", ("syncron", "ideal"), False)),
    Experiment("ext_unionfind", ablations.unionfind_connectivity,
               "rw-lock union-find connectivity vs mutex"),
    Experiment("topo_sensitivity", experiments.topo_sensitivity,
               "interconnect fabric slowdown (mechanism x topology x unit count)",
               ("bars", "label", MECHANISMS, False)),
    Experiment("interference", experiments.interference,
               "co-run tenant slowdown vs alone (tenant pairs x mechanisms x fabrics)"),
    Experiment("isolation", experiments.isolation_check,
               "whole-machine single tenant vs the plain run (bit-identity)"),
    Experiment("degradation", experiments.degradation,
               "graceful degradation under link faults (mechanism x fabric x "
               "fault severity)",
               ("bars", "label", ("central", "hier", "syncron"), False)),
    Experiment("sweep", experiments.sweep,
               "ad-hoc matrix: workloads x --vary config x mechanisms "
               "(needs workloads=...)"),
)


def find(name: str) -> Optional[Experiment]:
    """The registered experiment called ``name``, or None."""
    return next((e for e in EXPERIMENTS if e.name == name), None)
