"""Per-figure experiment reproductions (evaluation Section 6).

Every public function plans one table or figure of the paper: it
normalizes its arguments once and returns ``(specs, render)`` (a
:data:`~repro.harness.runner.Plan`), where ``render`` maps
``{spec: result}`` to the figure's rows by looking each result up by its
spec.  Planning simulates nothing; :func:`~repro.harness.runner.run_plan`
executes the specs (deduplicated, cached, across ``--workers``
processes) and renders, so parallel and serial execution produce
bit-identical rows.  ``benchmarks/`` wraps each in a pytest-benchmark
target and prints the same series the paper plots.  Absolute numbers
differ from the paper (different simulator, scaled-down inputs — see
EXPERIMENTS.md); the *shape* (who wins, crossover positions) is the
reproduction target.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.harness.runner import Plan
from repro.harness.specs import RunSpec, split_combo
from repro.sim.config import MEMORY_TECHNOLOGIES, PRESETS, ndp_2_5d
from repro.sim.topo.faults import parse_fault_spec, parse_link_profile
from repro.workloads.base import scaled
from repro.workloads.datastructures import ALL_STRUCTURES
from repro.workloads.graphs import bfs_partition, load_dataset, random_partition
from repro.workloads.graphs.partition import edge_cut
from repro.workloads.microbench import PRIMITIVES

#: the mechanisms Figs. 10-19 compare.
MECHANISMS = ("central", "hier", "syncron", "ideal")

#: the paper's 26 application-input combinations (Fig. 12).
GRAPH_DATASETS = ("wk", "sl", "sx", "co")
TS_DATASETS = ("air", "pow")
APP_INPUTS: List[str] = [
    f"{kernel}.{dataset}"
    for kernel in ("bfs", "cc", "sssp", "pr", "tf", "tc")
    for dataset in GRAPH_DATASETS
] + [f"ts.{dataset}" for dataset in TS_DATASETS]


def _app_spec(combo: str, mechanism: str, overrides: Optional[dict] = None,
              partitioner: Optional[str] = None) -> RunSpec:
    args = {"combo": combo}
    if partitioner is not None:
        args["partitioner"] = partitioner
    return RunSpec.make("app", mechanism, args=args, overrides=overrides)


def _app_grid(combos: Sequence[str],
              mechanisms: Sequence[str]) -> Dict[tuple, RunSpec]:
    """``(combo, mechanism) -> spec`` for every application run."""
    return {(combo, mech): _app_spec(combo, mech)
            for combo in combos for mech in mechanisms}


# ======================================================================
# Fig. 10 — synchronization primitives vs instruction interval
# ======================================================================
FIG10_INTERVALS = {
    "lock": (50, 100, 200, 400, 1000, 2000, 5000),
    "barrier": (20, 50, 100, 200, 500, 1000, 2000),
    "semaphore": (100, 200, 400, 1000, 2000, 5000, 10000),
    "condvar": (200, 400, 1000, 2000, 5000, 10000, 50000),
}


def fig10(primitive: str, intervals: Optional[Sequence[int]] = None,
          mechanisms: Sequence[str] = MECHANISMS,
          rounds: Optional[int] = None) -> Plan:
    """Speedup (vs Central) of each mechanism at each interval."""
    if primitive not in PRIMITIVES:
        raise ValueError(f"primitive must be one of {PRIMITIVES}")
    intervals = intervals or FIG10_INTERVALS[primitive]
    rounds = rounds if rounds is not None else scaled(25)
    spec = {
        (interval, mech): RunSpec.make(
            "primitive", mech,
            args={"primitive": primitive, "interval": interval,
                  "rounds": rounds})
        for interval in intervals
        for mech in mechanisms
    }

    def render(results):
        rows = []
        for interval in intervals:
            base = results[spec[interval, mechanisms[0]]].cycles
            row = {"interval": interval}
            for mech in mechanisms:
                metrics = results[spec[interval, mech]]
                row[mech] = base / metrics.cycles
                row[f"{mech}_cycles"] = metrics.cycles
            rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Fig. 11 — data-structure throughput vs core count
# ======================================================================
def fig11(structure: str, core_steps: Sequence[int] = (15, 30, 45, 60),
          mechanisms: Sequence[str] = MECHANISMS) -> Plan:
    """Throughput (Mops/s) per mechanism as NDP units are added."""
    units = {cores: max(cores // 15, 1) for cores in core_steps}
    spec = {
        (cores, mech): RunSpec.make(
            "structure", mech, args={"structure": structure},
            overrides={"num_units": units[cores]})
        for cores in core_steps
        for mech in mechanisms
    }

    def render(results):
        rows = []
        for cores in core_steps:
            row = {"cores": cores, "units": units[cores]}
            for mech in mechanisms:
                metrics = results[spec[cores, mech]]
                row[mech] = metrics.ops_per_second / 1e6
                row[f"{mech}_cycles"] = metrics.cycles
            rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Fig. 12 — real applications, speedup over Central
# ======================================================================
def fig12(combos: Sequence[str] = tuple(APP_INPUTS),
          mechanisms: Sequence[str] = MECHANISMS) -> Plan:
    spec = _app_grid(combos, mechanisms)

    def render(results):
        rows = []
        for combo in combos:
            runs = {mech: results[spec[combo, mech]] for mech in mechanisms}
            base = runs.get("central", runs[mechanisms[0]]).cycles
            row = {"app": combo}
            for mech, metrics in runs.items():
                row[mech] = base / metrics.cycles
                row[f"{mech}_cycles"] = metrics.cycles
            rows.append(row)
        return rows

    return tuple(spec.values()), render


def headline_summary(rows: List[Dict]) -> Dict[str, float]:
    """The Sec. 6.1.3 headline numbers from fig12-style rows."""
    import statistics

    def geo(values):
        return statistics.geometric_mean(values) if values else float("nan")

    return {
        "syncron_vs_central": geo([r["syncron"] / r["central"] for r in rows]),
        "syncron_vs_hier": geo([r["syncron"] / r["hier"] for r in rows]),
        "syncron_overhead_vs_ideal_pct": 100.0 * (
            geo([r["ideal"] / r["syncron"] for r in rows]) - 1.0
        ),
    }


# ======================================================================
# Fig. 13 — SynCron scalability with NDP units
# ======================================================================
def fig13(combos: Sequence[str] = ("bfs.sl", "cc.sx", "sssp.co", "pr.wk",
                                   "tf.sl", "tc.sx", "ts.air", "ts.pow"),
          unit_steps: Sequence[int] = (1, 2, 3, 4)) -> Plan:
    spec = {
        (combo, units): _app_spec(combo, "syncron",
                                  overrides={"num_units": units})
        for combo in combos
        for units in unit_steps
    }

    def render(results):
        rows = []
        for combo in combos:
            base = results[spec[combo, unit_steps[0]]].cycles
            row = {"app": combo}
            for units in unit_steps:
                row[f"{units}_units"] = base / results[spec[combo, units]].cycles
            rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Fig. 14 / Fig. 15 — energy breakdown and data movement
# ======================================================================
def fig14(combos: Sequence[str] = ("bfs.sl", "cc.sx", "sssp.co", "pr.wk",
                                   "tf.sl", "tc.sx", "ts.air", "ts.pow"),
          mechanisms: Sequence[str] = MECHANISMS) -> Plan:
    """Energy by component, normalized to Central's total per app."""
    spec = _app_grid(combos, mechanisms)

    def render(results):
        rows = []
        for combo in combos:
            baseline = results[spec[combo, "central"]].energy
            row = {"app": combo}
            for mech in mechanisms:
                row[mech] = results[spec[combo, mech]].energy.normalized(baseline)
            rows.append(row)
        return rows

    return tuple(spec.values()), render


def fig15(combos: Sequence[str] = ("bfs.sl", "cc.sx", "sssp.co", "pr.wk",
                                   "tf.sl", "tc.sx", "ts.air", "ts.pow"),
          mechanisms: Sequence[str] = MECHANISMS) -> Plan:
    """Bytes moved inside/across NDP units, normalized to Central."""
    spec = _app_grid(combos, mechanisms)

    def render(results):
        rows = []
        for combo in combos:
            base_total = results[spec[combo, "central"]].total_bytes or 1
            row = {"app": combo}
            for mech in mechanisms:
                metrics = results[spec[combo, mech]]
                row[mech] = {
                    "inside": metrics.bytes_inside_units / base_total,
                    "across": metrics.bytes_across_units / base_total,
                    "total": metrics.total_bytes / base_total,
                }
            rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Fig. 16 / Fig. 17 — sensitivity to inter-unit link latency
# ======================================================================
FIG16_LATENCIES_NS = (40, 100, 200, 500, 1000, 2000, 4500, 9000)


def fig16(structures: Sequence[str] = ("stack", "priority_queue"),
          latencies_ns: Sequence[float] = FIG16_LATENCIES_NS,
          mechanisms: Sequence[str] = MECHANISMS) -> Plan:
    spec = {
        (structure, latency, mech): RunSpec.make(
            "structure", mech, args={"structure": structure},
            overrides={"link_latency_ns": float(latency)})
        for structure in structures
        for latency in latencies_ns
        for mech in mechanisms
    }

    def render(results):
        rows = []
        for structure in structures:
            for latency in latencies_ns:
                row = {"structure": structure, "latency_ns": latency}
                for mech in mechanisms:
                    row[mech] = results[
                        spec[structure, latency, mech]].ops_per_second / 1e6
                rows.append(row)
        return rows

    return tuple(spec.values()), render


def fig17(latencies_ns: Sequence[float] = (40, 100, 200, 500),
          mechanisms: Sequence[str] = ("central", "hier", "syncron"),
          combo: str = "pr.wk") -> Plan:
    """Slowdown vs Ideal (lower is better), per link latency."""
    spec = {
        (latency, mech): _app_spec(
            combo, mech, overrides={"link_latency_ns": float(latency)})
        for latency in latencies_ns
        for mech in ("ideal", *mechanisms)
    }

    def render(results):
        rows = []
        for latency in latencies_ns:
            ideal = results[spec[latency, "ideal"]]
            row = {"latency_ns": latency, "ideal_cycles": ideal.cycles}
            for mech in mechanisms:
                row[mech] = results[spec[latency, mech]].cycles / ideal.cycles
            rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Fig. 18 — memory technologies
# ======================================================================
def fig18(combos: Sequence[str] = ("cc.wk", "pr.wk", "ts.pow"),
          mechanisms: Sequence[str] = MECHANISMS) -> Plan:
    memories = tuple(MEMORY_TECHNOLOGIES)
    spec = {
        (combo, memory_name, mech): _app_spec(
            combo, mech, overrides={"memory": memory_name})
        for combo in combos
        for memory_name in memories
        for mech in mechanisms
    }

    def render(results):
        rows = []
        for combo in combos:
            for memory_name in memories:
                base = results[spec[combo, memory_name, "central"]].cycles
                row = {"app": combo, "memory": memory_name}
                for mech in mechanisms:
                    row[mech] = base / results[spec[combo, memory_name, mech]].cycles
                rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Fig. 19 — data placement (METIS-substitute partitioning)
# ======================================================================
def fig19(datasets: Sequence[str] = GRAPH_DATASETS,
          mechanisms: Sequence[str] = MECHANISMS) -> Plan:
    partitionings = ("random", "metis")
    spec = {
        (dataset, label, mech): _app_spec(f"pr.{dataset}", mech,
                                          partitioner=label)
        for dataset in datasets
        for label in partitionings
        for mech in mechanisms
    }

    def render(results):
        num_units = ndp_2_5d().num_units
        rows = []
        for dataset in datasets:
            graph = load_dataset(dataset)
            cut_random = edge_cut(graph, random_partition(graph, num_units, seed=7))
            cut_metis = edge_cut(graph, bfs_partition(graph, num_units))
            for label in partitionings:
                runs = {mech: results[spec[dataset, label, mech]]
                        for mech in mechanisms}
                base = runs["central"].cycles
                row = {
                    "dataset": dataset,
                    "partitioning": label,
                    "edge_cut_random": cut_random,
                    "edge_cut_metis": cut_metis,
                }
                for mech, metrics in runs.items():
                    row[mech] = base / metrics.cycles
                row["max_st_occupancy_pct"] = runs["syncron"].st_occupancy_max_pct
                rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Fig. 20 / Fig. 21 — hierarchical vs flat
# ======================================================================
def fig20(combos: Optional[Sequence[str]] = None) -> Plan:
    """SynCron speedup normalized to flat on graph workloads."""
    combos = combos or [c for c in APP_INPUTS if not c.startswith("ts.")]
    spec = _app_grid(combos, ("syncron_flat", "syncron"))

    def render(results):
        return [{
            "app": combo,
            "syncron_vs_flat": (results[spec[combo, "syncron_flat"]].cycles
                                / results[spec[combo, "syncron"]].cycles),
        } for combo in combos]

    return tuple(spec.values()), render


def fig21a(latencies_ns: Sequence[float] = (40, 100, 200, 500)) -> Plan:
    spec = {
        (dataset, latency, mech): _app_spec(
            f"ts.{dataset}", mech,
            overrides={"link_latency_ns": float(latency)})
        for dataset in TS_DATASETS
        for latency in latencies_ns
        for mech in ("syncron_flat", "syncron")
    }

    def render(results):
        return [{
            "app": f"ts.{dataset}",
            "latency_ns": latency,
            "syncron_vs_flat": (
                results[spec[dataset, latency, "syncron_flat"]].cycles
                / results[spec[dataset, latency, "syncron"]].cycles),
        } for dataset in TS_DATASETS for latency in latencies_ns]

    return tuple(spec.values()), render


def fig21b(latencies_ns: Sequence[float] = (40, 100, 200, 500),
           core_counts: Sequence[int] = (30, 60)) -> Plan:
    spec = {
        (cores, latency, mech): RunSpec.make(
            "structure", mech, args={"structure": "queue"},
            overrides={"num_units": cores // 15,
                       "link_latency_ns": float(latency)})
        for cores in core_counts
        for latency in latencies_ns
        for mech in ("syncron_flat", "syncron")
    }

    def render(results):
        return [{
            "cores": cores,
            "latency_ns": latency,
            "syncron_vs_flat": (
                results[spec[cores, latency, "syncron_flat"]].cycles
                / results[spec[cores, latency, "syncron"]].cycles),
        } for cores in core_counts for latency in latencies_ns]

    return tuple(spec.values()), render


# ======================================================================
# Fig. 22 — ST size sensitivity
# ======================================================================
def fig22(combos: Sequence[str] = ("cc.wk", "pr.wk", "ts.air", "ts.pow"),
          st_sizes: Sequence[int] = (64, 48, 32, 16, 8)) -> Plan:
    spec = {
        (combo, st): _app_spec(combo, "syncron", overrides={"st_entries": st})
        for combo in combos
        for st in st_sizes
    }

    def render(results):
        rows = []
        for combo in combos:
            base = results[spec[combo, st_sizes[0]]].cycles
            row = {"app": combo}
            for st in st_sizes:
                metrics = results[spec[combo, st]]
                row[f"ST_{st}"] = metrics.cycles / base
                row[f"ST_{st}_overflow_pct"] = metrics.overflow_request_pct
            rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Fig. 23 — overflow management schemes
# ======================================================================
def fig23(st_sizes: Sequence[int] = (16, 32, 48, 64, 128, 256)) -> Plan:
    schemes = ("syncron", "syncron_central_ovrfl", "syncron_distrib_ovrfl")
    spec = {
        (st, scheme): RunSpec.make(
            "structure", scheme, args={"structure": "bst_fg"},
            overrides={"st_entries": st})
        for st in st_sizes
        for scheme in schemes
    }

    def render(results):
        rows = []
        for st in st_sizes:
            row = {"st_entries": st}
            for scheme in schemes:
                metrics = results[spec[st, scheme]]
                row[scheme] = metrics.ops_per_ms
                row[f"{scheme}_overflow_pct"] = metrics.overflow_request_pct
            rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Topology sensitivity — mechanism x fabric x unit count (extension)
# ======================================================================
#: every fabric the topology subsystem provides (repro.sim.topo).
ALL_TOPOLOGIES = ("all_to_all", "ring", "mesh2d", "torus2d")


def topo_sensitivity(topologies: Sequence[str] = ALL_TOPOLOGIES,
                     unit_steps: Sequence[int] = (4, 16),
                     mechanisms: Sequence[str] = ("hier", "syncron"),
                     interval: int = 200,
                     rounds: Optional[int] = None) -> Plan:
    """Slowdown of each fabric vs the ideal all-to-all interconnect.

    The paper evaluates on an implicit all-to-all fabric (a dedicated
    channel per unit pair); this extension re-runs a cross-unit-heavy
    lock microbenchmark on routed ring/mesh/torus fabrics at growing unit
    counts, where multi-hop distance and shared-channel contention are
    real.  Units are slimmed to 3 clients each so the 16-unit points stay
    tractable; the traffic pattern (every unit hammering unit 0's master
    SE) is the worst case for route sharing.

    Rows: one per (units, topology); per mechanism, ``<mech>`` is the
    slowdown relative to all-to-all at the same unit count (1.0 for
    all-to-all itself) and ``<mech>_cycles`` the raw makespan.
    """
    if "all_to_all" not in topologies:  # the normalization baseline
        topologies = ("all_to_all", *topologies)
    rounds = rounds if rounds is not None else scaled(8)
    spec = {
        (units, topo, mech): RunSpec.make(
            "primitive", mech,
            args={"primitive": "lock", "interval": interval, "rounds": rounds},
            overrides={"cores_per_unit": 4, "client_cores_per_unit": 3,
                       "num_units": int(units), "topology": topo})
        for units in unit_steps
        for topo in topologies
        for mech in mechanisms
    }

    def render(results):
        rows = []
        for units in unit_steps:
            for topo in topologies:
                row: Dict[str, object] = {
                    "units": units,
                    "topology": topo,
                    "label": f"{topo}@{units}u",
                }
                for mech in mechanisms:
                    makespan = results[spec[units, topo, mech]].cycles
                    baseline = results[spec[units, "all_to_all", mech]].cycles
                    row[mech] = makespan / baseline if baseline else float("inf")
                    row[f"{mech}_cycles"] = makespan
                rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Graceful degradation — mechanism x fabric x fault severity (extension)
# ======================================================================
#: default severities: fraction of physical channels failed permanently.
DEGRADATION_SEVERITIES = (0.0, 0.0625, 0.125, 0.25)


def degradation(topologies: Sequence[str] = ("ring", "mesh2d"),
                severities: Sequence[float] = DEGRADATION_SEVERITIES,
                mechanisms: Sequence[str] = ("central", "syncron"),
                num_units: int = 8,
                interval: int = 200,
                rounds: Optional[int] = None,
                fault_seed: int = 1,
                window: int = 8_000,
                faults: Optional[str] = None,
                link_profile: Optional[str] = None) -> Plan:
    """How each mechanism degrades as the fabric loses links.

    Sweeps mechanism x fabric x fault severity over the cross-unit-heavy
    lock microbenchmark of :func:`topo_sensitivity`.  Severity is the
    fraction of physical channels failed permanently at seed-derived times
    within ``window`` cycles (early enough to land mid-run at these sizes);
    all mechanisms at one (topology, severity) share the exact same
    seed-derived :class:`~repro.sim.topo.faults.FaultPlan`, so the
    comparison isolates the mechanism.  Rate-derived plans are
    connectivity-guarded — the fabric degrades but never partitions.

    Rows: one per (topology, severity).  Per mechanism, ``<mech>`` is the
    slowdown vs the same mechanism on the same fabric with no faults, plus
    ``<mech>_cycles`` / ``<mech>_reroutes`` / ``<mech>_detour_bit_hops``
    from the run's counters; ``links_failed`` / ``hop_inflation`` describe
    the surviving geometry (via the ``fabric_probe`` measurement).

    ``faults`` / ``link_profile`` expose the CLI knobs: an explicit
    ``--faults`` spec (parsed, applied to *every* cell on top of the
    severity) and a ``--link-profile`` spec.
    """
    severities = tuple(float(s) for s in severities)
    if 0.0 not in severities:  # the normalization baseline
        severities = (0.0, *severities)
    rounds = rounds if rounds is not None else scaled(6)
    base: Dict[str, object] = {
        "num_units": int(num_units),
        "cores_per_unit": 4,
        "client_cores_per_unit": 3,
        "fault_seed": int(fault_seed),
        "fault_window_cycles": int(window),
    }
    if faults:
        base.update(parse_fault_spec(faults))
    if link_profile:
        base["link_profile"] = parse_link_profile(link_profile)
    cells = [(topo, severity) for topo in topologies for severity in severities]
    spec = {
        (topo, severity, mech): RunSpec.make(
            "primitive", mech,
            args={"primitive": "lock", "interval": interval, "rounds": rounds},
            overrides={**base, "topology": topo, "fault_link_rate": severity})
        for topo, severity in cells
        for mech in mechanisms
    }
    probe = {
        (topo, severity): RunSpec.make(
            "fabric_probe", mechanism=mechanisms[0],
            overrides={**base, "topology": topo, "fault_link_rate": severity})
        for topo, severity in cells
    }

    def render(results):
        rows = []
        for topo, severity in cells:
            geometry = results[probe[topo, severity]]
            row: Dict[str, object] = {
                "topology": topo,
                "severity": severity,
                "label": f"{topo}@{severity:g}",
                "links_failed": int(geometry["links_failed"]),
                "hop_inflation": round(geometry["hop_inflation"], 4),
            }
            for mech in mechanisms:
                run = results[spec[topo, severity, mech]]
                healthy = results[spec[topo, 0.0, mech]]
                row[mech] = (run.cycles / healthy.cycles
                             if healthy.cycles else float("inf"))
                row[f"{mech}_cycles"] = run.cycles
                row[f"{mech}_reroutes"] = int(run.stats["reroutes"])
                row[f"{mech}_detour_bit_hops"] = int(
                    run.stats["detour_bit_hops"])
            rows.append(row)
        return rows

    return (*spec.values(), *probe.values()), render


# ======================================================================
# Co-run interference — tenant groups x mechanisms x fabrics (extension)
# ======================================================================
#: default mechanisms for the interference matrix: Central funnels every
#: tenant through one shared server core (strong interference), SynCron's
#: per-unit SEs isolate unit-aligned tenants (the contrast worth plotting).
CORUN_MECHANISMS = ("central", "syncron")


def tenant_desc(desc: str, interval: int = 200, rounds: int = 25) -> Dict:
    """Shorthand workload description (co-run tenants, :func:`sweep`
    workloads): ``lock`` (primitive), ``bfs.wk`` (application combo),
    ``stack`` (data structure)."""
    if desc in PRIMITIVES:
        return {"workload": "primitive",
                "args": {"primitive": desc, "interval": interval,
                         "rounds": rounds}}
    if "." in desc:
        split_combo(desc)  # validates, raises a friendly error
        return {"workload": "app", "args": {"combo": desc}}
    if desc in ALL_STRUCTURES:
        return {"workload": "structure", "args": {"structure": desc}}
    raise ValueError(
        f"unknown workload {desc!r}; choose from a primitive "
        f"({sorted(PRIMITIVES)}), an app combo like 'bfs.wk', or a "
        f"structure ({sorted(ALL_STRUCTURES)})"
    )


def _unit_slices(num_units: int, counts: Sequence[int]) -> List[tuple]:
    """Contiguous unit slices of the given sizes (must sum to <= units)."""
    if sum(counts) > num_units:
        raise ValueError(
            f"unit split {tuple(counts)} exceeds the {num_units}-unit system"
        )
    slices, start = [], 0
    for count in counts:
        if count < 1:
            raise ValueError("every tenant needs at least one unit")
        slices.append(tuple(range(start, start + count)))
        start += count
    return slices


def _even_unit_split(num_units: int, n_tenants: int) -> List[int]:
    share, extra = divmod(num_units, n_tenants)
    if share == 0:
        raise ValueError(
            f"{n_tenants} tenants need at least {n_tenants} units, "
            f"got {num_units}"
        )
    return [share + (1 if i < extra else 0) for i in range(n_tenants)]


def _tenant_group(descs: Sequence[str], interval: int, rounds: int,
                  unit_slices: Optional[Sequence[tuple]] = None,
                  core_slices: Optional[Sequence[tuple]] = None) -> List[Dict]:
    """Named tenant descriptions for one co-run group.

    Partitioned either unit-granularly (``unit_slices``) or core-granularly
    (``core_slices``, explicit core-id tuples — tenants then share units,
    SEs, crossbars, and DRAM, the interference-heavy shape).  Slices are
    explicit so a tenant's solo baseline can run on *exactly* the cores it
    occupied in the co-run.
    """
    tenants = []
    for i, desc in enumerate(descs):
        name = desc if descs.index(desc) == i else f"{desc}#{i}"
        tenant = {"name": name,
                  **tenant_desc(desc, interval=interval, rounds=rounds)}
        if unit_slices is not None:
            tenant["units"] = list(unit_slices[i])
        elif core_slices is not None:
            tenant["core_ids"] = list(core_slices[i])
        tenants.append(tenant)
    return tenants


def interference(groups: Sequence = (("lock", "bfs.wk"), ("lock", "stack")),
                 mechanisms: Sequence[str] = CORUN_MECHANISMS,
                 topologies: Sequence[str] = ("all_to_all", "ring"),
                 interval: int = 200,
                 rounds: Optional[int] = None,
                 unit_split: Optional[Sequence[int]] = None,
                 core_split: Optional[Sequence[int]] = None,
                 preset: str = "ndp_2_5d",
                 base_overrides: Optional[Dict] = None) -> Plan:
    """Per-tenant slowdown vs running alone, across mechanisms x fabrics.

    Each *group* is a tuple of tenant shorthands (see :func:`tenant_desc`);
    a group may also be given as a ``+``-joined string (``"lock+bfs.wk"``,
    the CLI form).  The machine's units are split contiguously among the
    group's tenants (evenly unless ``unit_split`` gives explicit counts;
    ``core_split`` instead assigns client-core counts, making tenants share
    units — and therefore SEs, ST capacity, crossbars, and DRAM banks).
    Every cell simulates the co-run plus each tenant *alone on the same
    slice*, so the reported slowdown isolates interference through the
    shared resources from the capacity loss of partitioning itself.  All
    runs are cacheable ``corun`` specs; solo runs shared between cells
    deduplicate automatically.
    """
    groups = [
        tuple(g.split("+")) if isinstance(g, str) else tuple(g)
        for g in groups
    ]
    if unit_split is not None and core_split is not None:
        raise ValueError("give unit_split or core_split, not both")
    rounds = rounds if rounds is not None else scaled(10)
    overrides = dict(base_overrides or {})
    base_cfg = PRESETS[preset]()
    num_units = overrides.get("num_units", base_cfg.num_units)
    total_clients = (
        num_units
        * overrides.get("client_cores_per_unit",
                        base_cfg.client_cores_per_unit)
        * overrides.get("threads_per_core", base_cfg.threads_per_core)
    )

    def corun_spec(tenants, mech, topo):
        return RunSpec.make(
            "corun", mech, args={"tenants": tenants}, preset=preset,
            overrides={**overrides, "topology": topo},
        )

    cells = []  # (group, tenants, topo, mech, co-run spec, solo specs)
    for group in groups:
        if core_split is not None:
            if len(core_split) != len(group):
                raise ValueError(
                    f"core split {tuple(core_split)} does not match "
                    f"group {group}"
                )
            if any(count < 1 for count in core_split):
                raise ValueError("every tenant needs at least one core")
            if sum(core_split) > total_clients:
                raise ValueError(
                    f"core split {tuple(core_split)} exceeds the "
                    f"{total_clients} client cores of this configuration"
                )
            # Explicit contiguous id ranges (what the deterministic
            # partitioner would assign) so each solo baseline reuses the
            # tenant's exact co-run slice.
            starts = [sum(core_split[:i]) for i in range(len(core_split))]
            core_slices = [
                tuple(range(start, start + count))
                for start, count in zip(starts, core_split)
            ]
            tenants = _tenant_group(group, interval, rounds,
                                    core_slices=core_slices)
        else:
            counts = list(unit_split) if unit_split else _even_unit_split(
                num_units, len(group))
            if len(counts) != len(group):
                raise ValueError(
                    f"unit split {counts} does not match group {group}"
                )
            tenants = _tenant_group(
                group, interval, rounds,
                unit_slices=_unit_slices(num_units, counts),
            )
        cells.extend(
            (group, tenants, topo, mech, corun_spec(tenants, mech, topo),
             [corun_spec([tenant], mech, topo) for tenant in tenants])
            for topo in topologies
            for mech in mechanisms
        )

    def render(results):
        rows = []
        for group, tenants, topo, mech, together_spec, solo_specs in cells:
            corun = results[together_spec]
            row: Dict[str, object] = {
                "pair": "+".join(group),
                "topology": topo,
                "mechanism": mech,
                "makespan": corun.cycles,
                "fairness": corun.stats.get("tenant_summary.fairness", 1.0),
            }
            for tenant, solo_spec in zip(tenants, solo_specs):
                name = tenant["name"]
                together = corun.stats[f"tenant.{name}.cycles"]
                alone = results[solo_spec].stats[f"tenant.{name}.cycles"]
                row[f"{name}_slowdown"] = together / alone if alone else float("inf")
                row[f"{name}_cycles"] = together
                row[f"{name}_alone_cycles"] = alone
            rows.append(row)
        return rows

    return tuple(spec for *_, together, solos in cells
                 for spec in (together, *solos)), render


def isolation_check(descs: Sequence[str] = ("lock",),
                    mechanisms: Sequence[str] = ("syncron", "hier", "central"),
                    topologies: Sequence[str] = ("all_to_all",),
                    interval: int = 200,
                    rounds: Optional[int] = None,
                    preset: str = "ndp_2_5d",
                    base_overrides: Optional[Dict] = None) -> Plan:
    """Bit-identity of a whole-machine single tenant vs the plain run.

    The co-run path's sanity anchor: one tenant owning all cores must
    reproduce the single-workload simulation exactly — same cycles, same
    energy breakdown, same byte counters — under every requested mechanism
    and fabric.  Renders one row per (workload, mechanism, topology) with
    an ``identical`` verdict (``repro run isolation``); the CI smoke run
    fails when any row is False.
    """
    rounds = rounds if rounds is not None else scaled(10)
    cells = []  # (desc, mech, topo, plain spec, co-run spec)
    for desc in descs:
        tenant = {"name": desc, **tenant_desc(desc, interval, rounds)}
        for topo in topologies:
            overrides = {**(base_overrides or {}), "topology": topo}
            cells.extend((
                desc, mech, topo,
                RunSpec.make(tenant["workload"], mech, args=tenant["args"],
                             preset=preset, overrides=overrides),
                RunSpec.make("corun", mech, args={"tenants": [tenant]},
                             preset=preset, overrides=overrides),
            ) for mech in mechanisms)

    def render(results):
        rows = []
        for desc, mech, topo, solo_spec, corun_spec in cells:
            solo, corun = results[solo_spec], results[corun_spec]
            identical = (
                solo.cycles == corun.cycles
                and solo.energy == corun.energy
                and solo.bytes_inside_units == corun.bytes_inside_units
                and solo.bytes_across_units == corun.bytes_across_units
            )
            rows.append({
                "workload": desc,
                "mechanism": mech,
                "topology": topo,
                "solo_cycles": solo.cycles,
                "corun_cycles": corun.cycles,
                "identical": identical,
            })
        return rows

    return tuple(spec for *_, solo, corun in cells
                 for spec in (solo, corun)), render


# ======================================================================
# Ad-hoc scenario matrices — workloads x config combos x mechanisms
# ======================================================================
def sweep(workloads: Sequence[str],
          mechanisms: Sequence[str] = MECHANISMS,
          vary: Optional[Mapping[str, tuple]] = None,
          interval: int = 200,
          rounds: int = 25,
          preset: str = "ndp_2_5d",
          seed: Optional[int] = None,
          faults: Optional[str] = None,
          link_profile: Optional[str] = None) -> Plan:
    """A scenario matrix no figure hard-codes.

    ``workloads`` are :func:`tenant_desc` shorthands (``lock``, ``bfs.wk``,
    ``stack``); ``interval``/``rounds`` size the primitives and ``seed``
    goes to the seedable workloads.  ``vary`` maps SystemConfig fields (or
    their ``CONFIG_ALIASES``) to the values to sweep, crossed in the given
    order (the CLI's ``--vary FIELD=V1,V2``); ``faults``/``link_profile``
    apply to every run, as in :func:`degradation`.

    Rows: one per (workload, vary combo) with the combo's fields and, per
    mechanism, ``<mech>_cycles`` and ``<mech>_speedup`` over the first.
    """
    if not workloads or not mechanisms:
        raise ValueError("sweep needs at least one workload and mechanism")
    base: Dict[str, object] = {}
    if faults:
        base.update(parse_fault_spec(faults))
    if link_profile:
        base["link_profile"] = parse_link_profile(link_profile)
    combos: List[Dict] = [{}]
    for field, values in (vary or {}).items():
        values = values if isinstance(values, tuple) else (values,)
        combos = [{**combo, field: value}
                  for combo in combos for value in values]
    cells = [(desc, combo) for desc in workloads for combo in combos]
    spec = {}
    for cell, (desc, combo) in enumerate(cells):
        workload = tenant_desc(desc, interval, rounds)
        for mech in mechanisms:
            spec[cell, mech] = RunSpec.make(
                workload["workload"], mech, args=workload["args"],
                preset=preset, overrides={**base, **combo}, seed=seed)

    def render(results):
        rows = []
        for cell, (desc, combo) in enumerate(cells):
            row: Dict[str, object] = {"workload": desc, **combo}
            base_cycles = results[spec[cell, mechanisms[0]]].cycles
            for mech in mechanisms:
                cycles = results[spec[cell, mech]].cycles
                row[f"{mech}_cycles"] = cycles
                row[f"{mech}_speedup"] = (base_cycles / cycles if cycles
                                          else float("inf"))
            rows.append(row)
        return rows

    return tuple(spec.values()), render


# ======================================================================
# Table 7 — ST occupancy across real applications
# ======================================================================
def table7(combos: Sequence[str] = tuple(APP_INPUTS)) -> Plan:
    spec = {combo: _app_spec(combo, "syncron") for combo in combos}

    def render(results):
        return [{
            "app": combo,
            "max_pct": results[spec[combo]].st_occupancy_max_pct,
            "avg_pct": results[spec[combo]].st_occupancy_avg_pct,
        } for combo in combos]

    return tuple(spec.values()), render
