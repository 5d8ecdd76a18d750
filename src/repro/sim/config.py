"""System configuration (the paper's Table 5) and named presets.

Everything an experiment can vary lives in :class:`SystemConfig`:
topology (units, cores), memory technology, network/link parameters,
SE parameters (ST size, service cycles, indexing counters), server-core cost
model for the Central/Hier baselines, and energy constants.

Presets:

- :func:`ndp_2_5d`  — HBM-based 2.5D NDP (the paper's default evaluation).
- :func:`ndp_3d`    — HMC-based 3D NDP.
- :func:`ndp_2d`    — DDR4-based 2D NDP.
- :func:`cpu_numa`  — 2-socket CPU used for the Table 1 substitution.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.sim.clock import core_cycles_from_ns
from repro.sim.frozen import Frozen


def _float_or_none(value) -> Optional[float]:
    return None if value is None else float(value)


def _norm_link_profile(entries) -> Tuple:
    """Canonical ``(src, dst, gbps|None, latency_ns|None)`` tuples."""
    out = []
    for entry in entries:
        entry = tuple(entry)
        if len(entry) != 4:
            raise ValueError(
                "link_profile entries must be (src, dst, bandwidth_gbps, "
                f"latency_ns), got {entry!r}"
            )
        src, dst, gbps, lat = entry
        out.append((int(src), int(dst), _float_or_none(gbps), _float_or_none(lat)))
    return tuple(out)


def _norm_fault_links(entries) -> Tuple:
    """Canonical ``(src, dst, at_cycle)`` int tuples."""
    out = []
    for entry in entries:
        entry = tuple(entry)
        if len(entry) != 3:
            raise ValueError(
                f"fault_links entries must be (src, dst, at_cycle), got {entry!r}"
            )
        out.append(tuple(int(v) for v in entry))
    return tuple(out)


class DramTiming(Frozen):
    """First-order DRAM timing (per Table 5, in nanoseconds).

    ``act_ns`` models the activation (row open, tRCD), ``restore_ns`` the
    row-cycle residual (tRAS), ``write_recovery_ns`` tWR, and ``cas_ns`` the
    column access.  A row-buffer hit pays only ``cas_ns``.
    """

    def __init__(self, name: str, act_ns: float, restore_ns: float,
                 write_recovery_ns: float, cas_ns: float, channels: int,
                 banks_per_channel: int, row_size_bytes: int = 2048,
                 energy_pj_per_bit: float = 7.0):
        self.__dict__.update(
            name=name, act_ns=act_ns, restore_ns=restore_ns,
            write_recovery_ns=write_recovery_ns, cas_ns=cas_ns,
            channels=channels, banks_per_channel=banks_per_channel,
            row_size_bytes=row_size_bytes,
            energy_pj_per_bit=energy_pj_per_bit)

    @property
    def row_hit_cycles(self) -> int:
        return core_cycles_from_ns(self.cas_ns)

    @property
    def row_miss_cycles(self) -> int:
        return core_cycles_from_ns(self.act_ns + self.cas_ns)

    @property
    def row_conflict_cycles(self) -> int:
        return core_cycles_from_ns(self.restore_ns + self.act_ns + self.cas_ns)


# Table 5 memory technologies.  HBM: nRCDR/nRCDW/nRAS/nWR 7/6/17/8 ns.
HBM = DramTiming(
    name="HBM", act_ns=7.0, restore_ns=17.0, write_recovery_ns=8.0, cas_ns=7.0,
    channels=8, banks_per_channel=16, energy_pj_per_bit=7.0,
)
# HMC: nRCD/nRAS/nWR 17/34/19 ns; 32 vaults per stack.
HMC = DramTiming(
    name="HMC", act_ns=17.0, restore_ns=34.0, write_recovery_ns=19.0, cas_ns=8.0,
    channels=32, banks_per_channel=8, energy_pj_per_bit=7.0,
)
# DDR4: nRCD/nRAS/nWR 16/39/18 ns; 4 DIMMs → model as fewer channels.
DDR4 = DramTiming(
    name="DDR4", act_ns=16.0, restore_ns=39.0, write_recovery_ns=18.0, cas_ns=14.0,
    channels=2, banks_per_channel=16, energy_pj_per_bit=12.0,
)

MEMORY_TECHNOLOGIES: Dict[str, DramTiming] = {"HBM": HBM, "HMC": HMC, "DDR4": DDR4}


class EnergyParams(Frozen):
    """Energy constants from Table 5 (picojoules)."""

    def __init__(self, cache_hit_pj: float = 23.0,
                 cache_miss_pj: float = 47.0,
                 local_network_pj_per_bit_hop: float = 0.4,
                 link_pj_per_bit: float = 4.0):
        self.__dict__.update(
            cache_hit_pj=cache_hit_pj, cache_miss_pj=cache_miss_pj,
            local_network_pj_per_bit_hop=local_network_pj_per_bit_hop,
            link_pj_per_bit=link_pj_per_bit)


class SystemConfig(Frozen):
    """Full simulated-system configuration.

    The defaults reproduce the paper's evaluated configuration: 4 NDP units,
    16 cores each (15 clients + 1 server/SE slot), HBM, 40 ns inter-unit
    links, 64-entry ST.

    Each annotated class attribute below is a field and its default
    (:data:`CONFIG_FIELDS` lists them in order).  The constructor takes
    fields by keyword only; every instance holds all of them in its
    ``__dict__``, in declaration order, which :meth:`as_dict` copies whole.
    """

    # --- topology -----------------------------------------------------
    num_units: int = 4
    cores_per_unit: int = 16
    #: cores per unit that run application code; the paper keeps 15 clients
    #: and dedicates the 16th slot to the server core (Central/Hier) or
    #: disables it (SynCron) for fair comparison.
    client_cores_per_unit: int = 15
    #: hardware thread contexts per physical core (Sec. 4: waiting lists
    #: grow to 1 bit per context; contexts share the core's pipeline + L1).
    threads_per_core: int = 1

    # --- memory -------------------------------------------------------
    memory: DramTiming = HBM
    #: bytes per NDP unit of address space (only used for placement math).
    unit_memory_bytes: int = 1 << 30
    cache_line_bytes: int = 64

    # --- L1 cache (private, per core) ----------------------------------
    l1_size_bytes: int = 16 * 1024
    l1_ways: int = 2
    l1_hit_cycles: int = 4

    # --- local network (per-unit buffered crossbar) ---------------------
    hop_cycles: int = 1
    arbiter_cycles: int = 1
    local_hops: int = 2  # core <-> memory/SE inside a unit
    #: per-unit crossbar service bandwidth in bytes/cycle used by the M/D/1
    #: queueing model of Table 5.
    crossbar_bytes_per_cycle: float = 32.0

    # --- inter-unit links ----------------------------------------------
    link_latency_ns: float = 40.0
    link_bandwidth_gbps: float = 12.8  # GB/s per direction (Table 5)
    #: physical fabric between NDP units (see :mod:`repro.sim.topo`):
    #: ``"all_to_all"`` (a dedicated channel per ordered unit pair — the
    #: paper's implicit ideal fabric and the default), ``"ring"``,
    #: ``"mesh2d"``, or ``"torus2d"``.  Non-default fabrics route packets
    #: over shared multi-hop channels, so contention and distance emerge.
    topology: str = "all_to_all"
    #: grid rows for ``mesh2d``/``torus2d``; 0 picks the squarest
    #: factorization of ``num_units`` (16 -> 4x4, 12 -> 3x4).  Non-grid
    #: fabrics ignore rows, so ``__init__`` normalizes them to 0 there
    #: — otherwise two configs describing the same machine would hash (and
    #: therefore cache) differently.
    topo_rows: int = 0
    #: per-channel overrides for heterogeneous fabrics: a tuple of
    #: ``(src, dst, bandwidth_gbps, latency_ns)`` entries, one per directed
    #: channel.  ``None`` in either slot keeps the global value
    #: (``link_bandwidth_gbps`` / ``link_latency_ns``).  Channels not listed
    #: use the globals, so ``()`` — the default — is the uniform fabric.
    link_profile: Tuple = ()

    # --- fault injection (see :mod:`repro.sim.topo.faults`) -------------
    # Every fault is a permanent link failure; routes detour around it.
    #: seed for the rate-derived part of the fault plan.
    fault_seed: int = 0
    #: explicit link faults: ``(src, dst, at_cycle)`` per directed channel.
    fault_links: Tuple = ()
    #: fraction of physical channels that fail at a seed-derived time
    #: within ``fault_window_cycles``.
    fault_link_rate: float = 0.0
    #: rate-derived fault times are drawn uniformly from [0, window).
    fault_window_cycles: int = 20_000

    # --- Synchronization Engine ------------------------------------------
    st_entries: int = 64
    indexing_counters: int = 256
    #: SE service occupancy per message, in SE cycles @1GHz (Sec. 5: "each
    #: message is served in 12 cycles").
    se_service_se_cycles: int = 12
    #: lock fairness threshold (Sec. 4.4.2); 0 disables the fairness counter.
    fairness_threshold: int = 0
    #: core-side cycles to issue a fire-and-forget ``req_async`` before the
    #: program continues (Sec. 4.1: the request commits once issued).
    async_issue_cycles: int = 1
    #: where ST-overflow state lives (Sec. 4.6): ``"memory"`` is the paper's
    #: NDP design (syncronVar in the Master SE's DRAM); ``"shared_cache"``
    #: models the conventional-NUMA adaptation that falls back to a
    #: low-latency shared cache instead.
    overflow_target: str = "memory"
    #: shared-cache access latency used by the ``"shared_cache"`` target.
    shared_cache_hit_cycles: int = 30

    # --- spin-wait baselines (remote atomics / bakery, Sec. 2.2.1) ------
    #: cycles a spinning core waits between failed retries.
    spin_backoff_cycles: int = 32

    # --- server-core cost model (Central/Hier baselines) ----------------
    #: instructions a server core spends decoding/handling one message.
    server_handler_instructions: int = 24
    #: memory accesses (through the server's L1) per handled message.
    server_handler_accesses: int = 2

    # --- energy ---------------------------------------------------------
    energy: EnergyParams = EnergyParams()

    # --- misc -------------------------------------------------------------
    seed: int = 0

    def __init__(self, **fields) -> None:
        unknown = fields.keys() - CONFIG_FIELDS.keys()
        if unknown:
            raise TypeError(
                f"unknown SystemConfig field(s): {sorted(unknown)}")
        values = self.__dict__
        values.update(CONFIG_FIELDS)
        values.update(fields)
        # Canonicalize before anything hashes us.  JSON round-trips
        # deliver lists where the canonical form is tuples, and rows set on
        # a non-grid fabric describe the same machine as rows unset; both
        # must serialize identically or cache keys split on phantom state.
        # Unconditional: an empty list from JSON must become () too, or
        # the restored config compares unequal to the one that was cached.
        values["link_profile"] = _norm_link_profile(self.link_profile)
        values["fault_links"] = _norm_fault_links(self.fault_links)
        if self.topo_rows > 0:
            # negative rows stay as-is for validate() to reject.
            from repro.sim.topo.regular import TOPOLOGIES

            cls = TOPOLOGIES.get(self.topology)
            if cls is not None and not cls.GRID:
                values["topo_rows"] = 0

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.num_units * self.cores_per_unit

    @property
    def client_contexts_per_unit(self) -> int:
        """Client hardware thread contexts per unit (what SEs see)."""
        return self.client_cores_per_unit * self.threads_per_core

    @property
    def total_clients(self) -> int:
        return self.num_units * self.client_contexts_per_unit

    @property
    def link_latency_cycles(self) -> int:
        return core_cycles_from_ns(self.link_latency_ns)

    @property
    def link_bytes_per_cycle(self) -> float:
        # GB/s -> bytes/ns -> bytes/core-cycle (2.5 cycles per ns).
        return self.link_bandwidth_gbps / 2.5

    # ------------------------------------------------------------------
    # Serialization (RunSpec.cache_key hashes it)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        """Plain-data dict of every field, ``memory``/``energy`` as dicts.

        The output is JSON-serializable and covers *all* configuration
        state: ``__dict__`` holds every field, so two configs with any
        differing field (including nested ``memory``/``energy``
        parameters) serialize differently.
        """
        return {**self.__dict__, "memory": dict(self.memory.__dict__),
                "energy": dict(self.energy.__dict__)}

    def validate(self) -> None:
        # imported here: repro.sim.topo has no module-level config import,
        # but keeping this lazy makes the layering obvious and cycle-proof.
        from repro.sim.topo import build_topology

        if self.num_units < 1:
            raise ValueError("need at least one NDP unit")
        if self.topo_rows < 0:
            raise ValueError("topo_rows must be non-negative")
        # raises for unknown topology names (and, for grid fabrics, rows
        # that don't divide num_units).  Non-grid fabrics can't reach here
        # with rows set: __init__ normalized them to 0.
        self._validate_fabric_overrides(build_topology(self))
        if not 0 < self.client_cores_per_unit <= self.cores_per_unit:
            raise ValueError("client cores must be in (0, cores_per_unit]")
        if self.threads_per_core < 1:
            raise ValueError("need at least one hardware thread context")
        if self.st_entries < 1:
            raise ValueError("ST needs at least one entry")
        if self.indexing_counters < 1:
            raise ValueError("need at least one indexing counter")
        if self.overflow_target not in ("memory", "shared_cache"):
            raise ValueError(
                "overflow_target must be 'memory' or 'shared_cache', "
                f"got {self.overflow_target!r}"
            )
        if self.shared_cache_hit_cycles < 1:
            raise ValueError("shared-cache latency must be positive")
        if self.async_issue_cycles < 1:
            raise ValueError("async issue cost must be at least one cycle")
        if self.l1_size_bytes % (self.l1_ways * self.cache_line_bytes):
            raise ValueError("L1 size must be a multiple of ways*line")
        self._validate_timing_and_seeds()

    def _validate_timing_and_seeds(self) -> None:
        """Range/type checks for the remaining knobs (RP003 coverage).

        Every field gets at least a sanity check here so a typo'd override
        (negative latency, float seed) fails at construction instead of
        producing a silently wrong simulation.
        """
        if not isinstance(self.memory, DramTiming):
            raise ValueError("memory must be a DramTiming instance")
        if not isinstance(self.energy, EnergyParams):
            raise ValueError("energy must be an EnergyParams instance")
        if self.unit_memory_bytes < self.cache_line_bytes:
            raise ValueError("unit memory must hold at least one cache line")
        if self.l1_hit_cycles < 1:
            raise ValueError("L1 hit latency must be at least one cycle")
        if self.hop_cycles < 0 or self.arbiter_cycles < 0:
            raise ValueError("hop/arbiter cycle costs must be non-negative")
        if self.local_hops < 0:
            raise ValueError("local_hops must be non-negative")
        if self.crossbar_bytes_per_cycle <= 0:
            raise ValueError("crossbar bandwidth must be positive")
        if self.link_latency_ns < 0:
            raise ValueError("link_latency_ns must be non-negative")
        if self.link_bandwidth_gbps <= 0:
            raise ValueError("link_bandwidth_gbps must be positive")
        if self.se_service_se_cycles < 0:
            raise ValueError("se_service_se_cycles must be non-negative")
        if self.fairness_threshold < 0:
            raise ValueError("fairness_threshold must be >= 0 (0 disables)")
        if self.spin_backoff_cycles < 0:
            raise ValueError("spin_backoff_cycles must be non-negative")
        if self.server_handler_instructions < 0:
            raise ValueError("server handler instruction count must be >= 0")
        if self.server_handler_accesses < 0:
            raise ValueError("server handler access count must be >= 0")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an int")
        if not isinstance(self.fault_seed, int) \
                or isinstance(self.fault_seed, bool):
            raise ValueError("fault_seed must be an int")

    def _validate_fabric_overrides(self, topology) -> None:
        """Shape/range checks for link_profile and the fault fields, and
        that every profiled or faulted channel exists in ``topology``."""
        n = self.num_units
        if not 0.0 <= self.fault_link_rate <= 1.0:
            raise ValueError(
                f"fault_link_rate must be in [0, 1], got {self.fault_link_rate}"
            )
        if self.fault_window_cycles < 1:
            raise ValueError("fault_window_cycles must be positive")
        seen = set()
        for src, dst, gbps, lat in self.link_profile:
            if src == dst or not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"link_profile channel ({src}, {dst}) is not an ordered "
                    f"pair of distinct units in [0, {n})"
                )
            if (src, dst) in seen:
                raise ValueError(
                    f"duplicate link_profile entry for channel ({src}, {dst})"
                )
            seen.add((src, dst))
            if gbps is None and lat is None:
                raise ValueError(
                    f"link_profile entry for ({src}, {dst}) overrides nothing"
                )
            if gbps is not None and gbps <= 0:
                raise ValueError("link_profile bandwidth must be positive")
            if lat is not None and lat < 0:
                raise ValueError("link_profile latency must be non-negative")
        for src, dst, at in self.fault_links:
            if src == dst or not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"fault_links channel ({src}, {dst}) is not an ordered "
                    f"pair of distinct units in [0, {n})"
                )
            if at < 0:
                raise ValueError("fault times must be >= 0")
        if not (self.link_profile or self.fault_links):
            return  # skip forcing the full routing table
        channels = set(topology.channels())
        for field_name, entries in (("link_profile", self.link_profile),
                                    ("fault_links", self.fault_links)):
            for entry in entries:
                if entry[:2] not in channels:
                    raise ValueError(
                        f"{field_name} channel {entry[:2]} does not exist "
                        f"in the {topology.name!r} fabric"
                    )


#: every SystemConfig field and its default, in declaration order.
CONFIG_FIELDS: Dict[str, object] = {
    name: getattr(SystemConfig, name) for name in SystemConfig.__annotations__
}


def ndp_2_5d(**overrides) -> SystemConfig:
    """The paper's default 2.5D NDP configuration (HBM)."""
    return SystemConfig(memory=HBM).with_(**overrides) if overrides else SystemConfig(memory=HBM)


def ndp_3d(**overrides) -> SystemConfig:
    """3D NDP configuration (HMC logic layer)."""
    return SystemConfig(memory=HMC).with_(**overrides)


def ndp_2d(**overrides) -> SystemConfig:
    """2D NDP configuration (DDR4 DIMMs)."""
    return SystemConfig(memory=DDR4).with_(**overrides)


def ndp_mesh(**overrides) -> SystemConfig:
    """16-unit HBM NDP with a 4x4 mesh fabric (topology-subsystem showcase).

    Same per-unit parameters as :func:`ndp_2_5d`, but the inter-unit
    traffic crosses a routed mesh instead of dedicated pairwise channels,
    so cross-unit latency depends on placement and load.

    Shape caveat: with ``topo_rows`` unset the grid is the squarest
    factorization of ``num_units`` (16 -> 4x4).  A *prime* ``num_units``
    has no non-trivial factorization, so
    :func:`~repro.sim.topo.mesh_shape` degenerates to a 1xN line — twice
    the diameter of a near-square grid — and emits a ``RuntimeWarning``
    rather than failing.  Pick a composite unit count (or pass
    ``topo_rows``) when the mesh geometry matters.
    """
    cfg = SystemConfig(memory=HBM, num_units=16, topology="mesh2d")
    return cfg.with_(**overrides) if overrides else cfg


def cpu_numa(**overrides) -> SystemConfig:
    """Two-socket CPU stand-in used for the Table 1 substitution.

    A "unit" models a socket of 14 cores; inter-unit link latency models the
    QPI/UPI socket crossing.  Caches are bigger and coherent (the coherence
    substrate runs on top).
    """
    cfg = SystemConfig(
        num_units=2,
        cores_per_unit=14,
        client_cores_per_unit=14,
        memory=DDR4,
        l1_size_bytes=32 * 1024,
        l1_ways=8,
        link_latency_ns=80.0,
        link_bandwidth_gbps=38.4,
    )
    return cfg.with_(**overrides) if overrides else cfg


#: named base configurations a :class:`~repro.harness.specs.RunSpec` can
#: reference by string (keeps specs picklable and hash-stable).
PRESETS: Dict[str, Callable[..., SystemConfig]] = {
    "ndp_2_5d": ndp_2_5d,
    "ndp_3d": ndp_3d,
    "ndp_2d": ndp_2d,
    "ndp_mesh": ndp_mesh,
    "cpu_numa": cpu_numa,
}
