"""Workload plumbing shared by every benchmark.

A *workload* builds one program generator per client core of an
:class:`~repro.sim.system.NDPSystem`, runs them, and reports
:class:`RunMetrics`: makespan, throughput, energy breakdown and traffic.
Functional correctness (the data structure's final state, the graph
kernel's output, the matrix profile) is checked by the workload itself so a
protocol bug can never masquerade as a speedup.

Scale control: experiment sizes honour the ``REPRO_SCALE`` environment
variable — ``small`` (default; minutes for the whole suite), ``medium``, or
``full`` — because pure-Python cycle simulation is ~10^5-10^6 events/s.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, Optional

from repro.sim.clock import seconds_from_core_cycles
from repro.sim.config import SystemConfig
from repro.sim.energy import EnergyBreakdown, compute_energy
from repro.sim.system import NDPSystem
from repro.telemetry import get_telemetry

SCALES = ("small", "medium", "full")
_SCALE_FACTORS = {"small": 1, "medium": 3, "full": 10}


def stable_name_seed(name: str) -> int:
    """Deterministic seed for a named input (dataset, series, ...).

    Python's builtin ``hash(str)`` is randomized per interpreter launch
    (PYTHONHASHSEED), which would make generated inputs differ between
    worker processes — fatal for the parallel sweep runner's
    serial-vs-parallel bit-identity and for result caching across runs.
    CRC32 is stable everywhere.
    """
    return zlib.crc32(name.encode("utf-8")) % (2 ** 31)


def scale() -> str:
    """The active experiment scale (``REPRO_SCALE`` env var)."""
    value = os.environ.get("REPRO_SCALE", "small").lower()
    if value not in SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {SCALES}, got {value!r}")
    return value


def scaled(base: int, per_step_factor: float = 1.0) -> int:
    """Scale a size knob by the active REPRO_SCALE."""
    factor = _SCALE_FACTORS[scale()]
    if per_step_factor != 1.0:
        factor = per_step_factor ** (SCALES.index(scale()))
    return max(int(base * factor), 1)


class RunMetrics:
    """Everything a figure needs from one simulation run.

    Two results compare equal when every field does.
    """

    def __init__(self, mechanism: str, cycles: int, operations: int,
                 energy: EnergyBreakdown, bytes_inside_units: int,
                 bytes_across_units: int, sync_requests: int,
                 overflow_request_pct: float, st_occupancy_max_pct: float,
                 st_occupancy_avg_pct: float, stats: Dict[str, float]):
        self.mechanism = mechanism
        self.cycles = cycles
        self.operations = operations
        self.energy = energy
        self.bytes_inside_units = bytes_inside_units
        self.bytes_across_units = bytes_across_units
        self.sync_requests = sync_requests
        self.overflow_request_pct = overflow_request_pct
        self.st_occupancy_max_pct = st_occupancy_max_pct
        self.st_occupancy_avg_pct = st_occupancy_avg_pct
        self.stats = stats

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    @property
    def seconds(self) -> float:
        return seconds_from_core_cycles(self.cycles)

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.seconds if self.cycles else 0.0

    @property
    def ops_per_ms(self) -> float:
        return self.ops_per_second / 1e3

    @property
    def total_bytes(self) -> int:
        return self.bytes_inside_units + self.bytes_across_units

    def speedup_over(self, other: "RunMetrics") -> float:
        """Makespan speedup of self relative to ``other``.

        A zero-cycle baseline is a degenerate comparison (the old code
        quietly returned ``0.0``, reading as "infinitely slower"): two empty
        runs compare equal, an empty baseline against real work is NaN.
        """
        if other.cycles == 0:
            return 1.0 if self.cycles == 0 else float("nan")
        if self.cycles == 0:
            return float("inf")
        return other.cycles / self.cycles

    # ------------------------------------------------------------------
    # JSON round-trip (the sweep runner's on-disk result cache)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        return {
            "mechanism": self.mechanism,
            "cycles": self.cycles,
            "operations": self.operations,
            "energy": {
                "cache_pj": self.energy.cache_pj,
                "network_pj": self.energy.network_pj,
                "memory_pj": self.energy.memory_pj,
            },
            "bytes_inside_units": self.bytes_inside_units,
            "bytes_across_units": self.bytes_across_units,
            "sync_requests": self.sync_requests,
            "overflow_request_pct": self.overflow_request_pct,
            "st_occupancy_max_pct": self.st_occupancy_max_pct,
            "st_occupancy_avg_pct": self.st_occupancy_avg_pct,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunMetrics":
        payload = dict(data)
        payload["energy"] = EnergyBreakdown(**payload["energy"])
        return cls(**payload)


def collect_metrics(system: NDPSystem, cycles: int, operations: int) -> RunMetrics:
    """Snapshot a finished system into :class:`RunMetrics`."""
    stats = system.stats
    occupancy = stats.st_occupancy_summary(system.config.st_entries)
    counters = stats.as_dict()
    # Kernel-side cost counters ride along under a reserved prefix: how many
    # events the engine actually dispatched vs. accounted analytically.
    # They describe simulation effort, not simulated physics, so they are
    # the one part of RunMetrics allowed to differ between elision modes.
    counters["kernel.events_processed"] = float(system.sim.events_processed)
    counters["kernel.elided_events"] = float(system.sim.elided_events)
    # Host cost goes to the telemetry bus only: the result never depends
    # on whether someone was watching.
    tel = get_telemetry()
    if tel.enabled:
        tel.count("sim.runs")
        tel.count("sim.events_processed", system.sim.events_processed)
        tel.count("sim.elided_events", system.sim.elided_events)
        tel.count("sim.wall_seconds", system.sim.wall_seconds)
    return RunMetrics(
        mechanism=system.mechanism_name,
        cycles=cycles,
        operations=operations,
        energy=compute_energy(stats, system.config),
        bytes_inside_units=stats.bytes_inside_units,
        bytes_across_units=stats.bytes_across_units,
        sync_requests=stats.sync_requests_total,
        overflow_request_pct=stats.overflow_request_pct,
        st_occupancy_max_pct=occupancy["max_pct"],
        st_occupancy_avg_pct=occupancy["avg_pct"],
        stats=counters,
    )


class Workload:
    """Base class: build programs, run, verify, report."""

    name = "workload"

    def build(self, system: NDPSystem) -> Dict[int, object]:
        """Return {core_id: program generator}."""
        raise NotImplementedError

    def verify(self, system: NDPSystem) -> None:
        """Raise if the functional outcome is wrong (default: nothing)."""

    def operations(self) -> int:
        """Number of application-level operations performed (for throughput)."""
        raise NotImplementedError

    def run(self, system: NDPSystem, max_events: Optional[int] = None) -> RunMetrics:
        programs = self.build(system)
        cycles = system.run_programs(programs, max_events=max_events)
        self.verify(system)
        return collect_metrics(system, cycles, self.operations())


def run_workload(
    workload_factory,
    config: SystemConfig,
    mechanism: str,
    max_events: Optional[int] = None,
) -> RunMetrics:
    """Build a fresh system + workload instance and run it once.

    ``workload_factory`` is a zero-argument callable returning a fresh
    :class:`Workload`; instances are single-use (they allocate addresses and
    synchronization variables during :meth:`Workload.build`).  The system
    is released (:meth:`NDPSystem.release`) once its metrics are taken.
    """
    system = NDPSystem(config, mechanism=mechanism)
    workload = workload_factory()
    metrics = workload.run(system, max_events=max_events)
    system.release()
    return metrics
