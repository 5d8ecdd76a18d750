"""Multi-programmed execution: N tenants co-run on one NDP system.

The paper's story is contention for shared synchronization resources, yet
its experiments run one application alone on the whole machine.  Real NDP
deployments co-locate workloads that interfere through shared SEs, ST
capacity, memory, and (since the topology subsystem) shared fabric links.
This module adds that scenario axis:

- a :class:`TenantSpec` names one tenant: a workload factory plus its share
  of the machine (an explicit unit slice, explicit client core ids, or an
  equal share of whatever remains);
- :class:`CorunWorkload` partitions the system's cores deterministically,
  builds each tenant's workload against a
  :class:`~repro.sim.tenancy.TenantView` of its slice, merges the per-core
  programs, and runs them all on the one shared system;
- after the run, :meth:`CorunWorkload.run` adds each tenant's cycles (the
  latest finish time of its cores) and operations to ``RunMetrics.stats``
  as ``tenant.<name>.cycles``/``operations``, plus ``tenant_summary.*``
  (tenant count, makespan, fairness), so co-run results cache and
  round-trip like any other run.  Shared-resource counters stay
  whole-machine: the simulator never learns which tenant issued what.

Isolation property: a single tenant owning all cores is an identity mapping
— same allocations, same programs, bit-identical cycles/energy/bytes to
running the workload directly (pinned by ``tests/test_corun.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.system import NDPSystem
from repro.sim.tenancy import TenantView, derive_units
from repro.workloads.base import RunMetrics, Workload, collect_metrics


@dataclass
class TenantSpec:
    """One tenant: a workload factory bound to a share of the machine.

    At most one of the partition knobs may be set:

    - ``units`` — unit-granular slice: the tenant gets *all* client cores of
      those physical units (the shape per-unit workloads like the graph
      kernels want);
    - ``core_ids`` — an explicit list of client core ids (what the
      interference experiment uses to run a tenant *alone on exactly the
      slice it occupied in a co-run*);
    - none — an equal share of whatever cores remain after the explicit
      tenants are placed.
    """

    name: str
    factory: Callable[[], Workload]
    units: Optional[Tuple[int, ...]] = None
    core_ids: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.units is not None and self.core_ids is not None:
            raise ValueError(
                f"tenant {self.name!r}: give at most one of units=, core_ids="
            )


def partition_cores(system: NDPSystem, tenants: Sequence[TenantSpec]
                    ) -> List[Tuple[list, Tuple[int, ...]]]:
    """Deterministically split the system's client cores among tenants.

    Returns one ``(cores, units)`` pair per tenant, in declaration order.
    Fully-determined tenants claim first (explicit ``units`` take whole
    units, explicit ``core_ids`` take exactly those cores), then the
    unconstrained tenants split what is left evenly (earlier tenants get the
    odd cores).
    """
    if not tenants:
        raise ValueError("a co-run needs at least one tenant")
    num_units = system.config.num_units
    pool = list(system.cores)  # ordered by core_id
    claimed: Dict[int, str] = {}  # core_id -> tenant name
    assignments: List[Optional[Tuple[list, Tuple[int, ...]]]] = [None] * len(tenants)

    def claim(cores: list, spec: TenantSpec) -> None:
        if not cores:
            raise ValueError(f"tenant {spec.name!r} would get no cores")
        for core in cores:
            other = claimed.get(core.core_id)
            if other is not None:
                raise ValueError(
                    f"tenants {other!r} and {spec.name!r} both claim "
                    f"core {core.core_id}"
                )
            claimed[core.core_id] = spec.name

    by_id = {c.core_id: c for c in pool}
    for i, spec in enumerate(tenants):
        if spec.units is not None:
            units = tuple(int(u) for u in spec.units)
            bad = [u for u in units if not 0 <= u < num_units]
            if bad or len(set(units)) != len(units):
                raise ValueError(
                    f"tenant {spec.name!r}: invalid unit slice {units} for a "
                    f"{num_units}-unit system"
                )
            cores = [c for c in pool if c.unit_id in set(units)]
            claim(cores, spec)
            assignments[i] = (cores, units)
        elif spec.core_ids is not None:
            ids = [int(c) for c in spec.core_ids]
            unknown = [c for c in ids if c not in by_id]
            if unknown or len(set(ids)) != len(ids):
                raise ValueError(
                    f"tenant {spec.name!r}: invalid core ids {ids} for this "
                    f"{len(pool)}-client system"
                )
            cores = [by_id[c] for c in sorted(ids)]
            claim(cores, spec)
            assignments[i] = (cores, derive_units(cores))

    rest = [i for i, a in enumerate(assignments) if a is None]
    if rest:
        free = [c for c in pool if c.core_id not in claimed]
        share, extra = divmod(len(free), len(rest))
        cursor = 0
        for rank, i in enumerate(rest):
            take = share + (1 if rank < extra else 0)
            cores = free[cursor: cursor + take]
            cursor += take
            claim(cores, tenants[i])
            assignments[i] = (cores, derive_units(cores))

    return assignments  # type: ignore[return-value]


class CorunWorkload(Workload):
    """Run several independent workloads on one shared system."""

    name = "corun"

    def __init__(self, tenants: Sequence[TenantSpec]):
        if not tenants:
            raise ValueError("a co-run needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self.tenants = list(tenants)
        self.views: List[TenantView] = []
        self.inner: List[Workload] = []
        self._program_cores: List[set] = []

    # ------------------------------------------------------------------
    def build(self, system: NDPSystem) -> Dict[int, object]:
        if self.views:
            raise RuntimeError("CorunWorkload instances are single-use")
        assignments = partition_cores(system, self.tenants)
        programs: Dict[int, object] = {}
        for spec, (cores, units) in zip(self.tenants, assignments):
            view = TenantView(system, spec.name, cores, units)
            workload = spec.factory()
            tenant_programs = workload.build(view)
            own = {c.core_id for c in cores}
            alien = set(tenant_programs) - own
            if alien:
                raise RuntimeError(
                    f"tenant {spec.name!r} built programs for cores "
                    f"{sorted(alien)[:8]} outside its slice"
                )
            programs.update(tenant_programs)
            self.views.append(view)
            self.inner.append(workload)
            self._program_cores.append(set(tenant_programs))
        return programs

    # ------------------------------------------------------------------
    def run(self, system: NDPSystem, max_events: Optional[int] = None) -> RunMetrics:
        programs = self.build(system)
        cycles = system.run_programs(programs, max_events=max_events)
        for view, workload in zip(self.views, self.inner):
            workload.verify(view)
        metrics = collect_metrics(system, cycles, self.operations())
        stats = metrics.stats
        makespans = []
        for view, workload, core_ids in zip(self.views, self.inner,
                                            self._program_cores):
            makespan = max(
                (system.cores[cid].finish_time for cid in core_ids), default=0
            )
            makespans.append(makespan)
            stats[f"tenant.{view.name}.cycles"] = makespan
            stats[f"tenant.{view.name}.operations"] = workload.operations()
        # fairness: min/max of the tenant makespans (1.0 = all finished
        # together, near 0 = one tenant was starved).
        makespan = max(makespans)
        stats["tenant_summary.tenants"] = len(makespans)
        stats["tenant_summary.makespan"] = makespan
        stats["tenant_summary.fairness"] = (
            min(makespans) / makespan if makespan else 1.0
        )
        return metrics

    def verify(self, system: NDPSystem) -> None:
        """Per-tenant verification happens inside :meth:`run` (each inner
        workload verifies against its own view)."""

    def operations(self) -> int:
        return sum(workload.operations() for workload in self.inner)
