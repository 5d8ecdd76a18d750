"""Tenant partitioning layer: the machine slice one co-running workload sees.

Multi-programmed execution (:mod:`repro.workloads.corun`) hosts several
independent *tenants* on one :class:`~repro.sim.system.NDPSystem`.  Each
tenant's workload is built unchanged against a :class:`TenantView` instead
of the full system: the view exposes the same surface workloads already use
(``cores``, ``config``, ``addrmap``, ``create_syncvar``) but restricted to
the tenant's core slice and unit set, with unit indices *remapped to a
logical 0..k-1 space* so per-unit placement logic (graph partitioning,
striped arrays, per-unit sync variables) works untouched on a slice of the
machine.

The interconnect, memory system, and synchronization mechanism stay shared —
that sharing is the whole point of co-run interference studies.  Allocation
goes through a :class:`TenantArena` facade that forwards to the system
:class:`~repro.sim.memmap.AddressMap`, so tenant arenas interleave in the
single physical address space.  The simulator never learns which tenant
issued what: a co-run reports per-tenant cycles from core finish times
after the run (:mod:`repro.workloads.corun`).

A view over *all* units with *all* cores is an identity mapping: it produces
bit-identical allocations, placements, and programs to building against the
system directly — the isolation property the co-run tests pin down.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sim.syncif import SyncVar


class TenantCoreHandle:
    """A client core as seen from inside a tenant: logical unit id.

    Workload ``build`` methods only read identity attributes; anything else
    falls through to the physical core.
    """

    __slots__ = ("physical", "core_id", "unit_id", "local_id")

    def __init__(self, physical, logical_unit: int):
        self.physical = physical
        self.core_id = physical.core_id  # globally unique — program dict key
        self.unit_id = logical_unit
        self.local_id = physical.local_id

    def __getattr__(self, name):
        return getattr(self.physical, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TenantCoreHandle(core={self.core_id}, "
                f"logical_unit={self.unit_id})")


class TenantArena:
    """Allocation facade over the system address map for one tenant.

    Logical unit indices (0..k-1) map onto the tenant's physical units;
    allocations land in the shared bump allocator, so tenants interleave in
    physical memory exactly like co-located applications would.
    """

    def __init__(self, addrmap, units: Sequence[int]):
        self._map = addrmap
        self.units = tuple(units)
        self.num_units = len(self.units)
        self.unit_memory_bytes = addrmap.unit_memory_bytes
        self.line_bytes = addrmap.line_bytes
        self._unit_index = {u: i for i, u in enumerate(self.units)}

    # ------------------------------------------------------------------
    def physical_unit(self, unit: int) -> int:
        if not 0 <= unit < self.num_units:
            raise ValueError(
                f"no such tenant unit: {unit} (tenant owns {self.num_units})"
            )
        return self.units[unit]

    def unit_of(self, addr: int) -> int:
        """Logical unit owning ``addr`` (must lie in this tenant's units)."""
        physical = self._map.unit_of(addr)
        logical = self._unit_index.get(physical)
        if logical is None:
            raise ValueError(
                f"address {addr:#x} lives in unit {physical}, outside this "
                f"tenant's units {self.units}"
            )
        return logical

    def line_of(self, addr: int) -> int:
        return self._map.line_of(addr)

    def base_of(self, unit: int) -> int:
        return self._map.base_of(self.physical_unit(unit))

    # ------------------------------------------------------------------
    def alloc(self, unit: int, nbytes: int, align: int = 8) -> int:
        return self._map.alloc(self.physical_unit(unit), nbytes, align=align)

    def alloc_line(self, unit: int) -> int:
        return self.alloc(unit, self.line_bytes, align=self.line_bytes)

    def alloc_array(self, unit: int, count: int, elem_bytes: int = 8) -> int:
        return self.alloc(unit, count * elem_bytes, align=self.line_bytes)

    def alloc_striped_array(self, count: int, elem_bytes: int = 8) -> List[int]:
        """Stripe across the *tenant's* units (same owned-slot sizing as
        :meth:`repro.sim.memmap.AddressMap.alloc_striped_array`)."""
        if count <= 0:
            raise ValueError("striped array needs a positive element count")
        base_slots, extra = divmod(count, self.num_units)
        bases: List[Optional[int]] = []
        for u in range(self.num_units):
            slots = base_slots + (1 if u < extra else 0)
            bases.append(self.alloc_array(u, slots, elem_bytes) if slots else None)
        return [
            bases[i % self.num_units] + (i // self.num_units) * elem_bytes
            for i in range(count)
        ]

    def bytes_used(self, unit: int) -> int:
        return self._map.bytes_used(self.physical_unit(unit))


class TenantView:
    """What one tenant's workload builds against: a slice of the machine.

    ``cores`` are handles over the tenant's physical cores with logical unit
    ids; ``config`` mirrors the system configuration with ``num_units``
    narrowed to the tenant's unit count (identical object when the tenant
    spans the whole machine, so the single-tenant path is bit-identical);
    ``create_syncvar`` round-robins over the tenant's units.
    """

    def __init__(self, system, name: str, cores: Sequence,
                 units: Sequence[int]):
        self.system = system
        self.name = name
        self.units = tuple(units)
        if len(set(self.units)) != len(self.units):
            raise ValueError(f"duplicate units in tenant slice: {self.units}")
        self.physical_cores = list(cores)
        if not self.physical_cores:
            raise ValueError(f"tenant {name!r} has no cores")
        self._unit_index = {u: i for i, u in enumerate(self.units)}
        uncovered = {c.unit_id for c in self.physical_cores} - set(self.units)
        if uncovered:
            raise ValueError(
                f"tenant {name!r} has cores in units {sorted(uncovered)} "
                f"outside its unit slice {self.units}"
            )
        identity = self.units == tuple(range(system.config.num_units))
        self.config = (
            system.config if identity
            else system.config.with_(num_units=len(self.units))
        )
        self.addrmap = TenantArena(system.addrmap, self.units)
        self.cores = [
            TenantCoreHandle(c, self._unit_index[c.unit_id])
            for c in self.physical_cores
        ]
        self.sim = system.sim
        self.stats = system.stats
        self._next_var_unit = 0

    # ------------------------------------------------------------------
    @property
    def mechanism(self):
        return self.system.mechanism

    @property
    def mechanism_name(self) -> str:
        return self.system.mechanism_name

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def cores_in_unit(self, unit: int) -> List[TenantCoreHandle]:
        return [c for c in self.cores if c.unit_id == unit]

    # ------------------------------------------------------------------
    def create_syncvar(self, unit: Optional[int] = None, name: str = "") -> SyncVar:
        """Allocate a variable in a (logical) unit's memory."""
        if unit is None:
            unit = self._next_var_unit
            self._next_var_unit = (self._next_var_unit + 1) % len(self.units)
        if not 0 <= unit < len(self.units):
            raise ValueError(
                f"no such tenant unit: {unit} (tenant owns {len(self.units)})"
            )
        return self.system.create_syncvar(unit=self.units[unit], name=name)

    def destroy_syncvar(self, var: SyncVar) -> None:
        self.system.destroy_syncvar(var)

    def run_programs(self, *_args, **_kwargs):
        raise RuntimeError(
            "tenant views never run programs; the co-run workload drives "
            "the shared system (see repro.workloads.corun)"
        )


def derive_units(cores: Sequence) -> Tuple[int, ...]:
    """Ordered distinct unit ids covered by a core slice."""
    units: List[int] = []
    seen = set()
    for core in cores:
        if core.unit_id not in seen:
            seen.add(core.unit_id)
            units.append(core.unit_id)
    return tuple(units)
