"""Time-series analysis: SCRIMP matrix profile (paper Sec. 5 "Workloads").

The paper runs SCRIMP [Matrix Profile, ICDM'16/'18] on real air-quality and
power-consumption series.  We generate synthetic series with planted motifs
(same access/sync pattern; see DESIGN.md for the substitution note) and
compute the matrix profile by diagonals:

- the input series is replicated per NDP unit (shared read-only →
  cacheable), exactly as the paper replicates input data;
- the output profile is partitioned across units (read-write) and each
  entry update takes that entry's fine-grained lock;
- cores process diagonals round-robin and meet at a final barrier.

Synchronization intensity is high — every improved minimum takes a lock —
which is why the paper singles out ts as its most sync-intensive real
application (Fig. 12/14/21a).

The programs yield ops that :meth:`TimeSeriesWorkload.build` constructs
once per run: each profile entry's lock acquire/release and uncacheable
load/store, each unit's series loads and the step's ``Compute(8)``.  Sharing
one op object between yields and cores is safe because ops are value
objects the core model only reads (:mod:`repro.sim.program`).  The pair
distances and the brute-force reference profile are memoized per process on
``(dataset, length, seed, window)``, the inputs that fix the series, so the
four mechanisms of one input compute them once.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core import api
from repro.sim.program import Batch, Compute, Load, Store
from repro.sim.system import NDPSystem
from repro.workloads.base import Workload, scaled, stable_name_seed

DATASETS = ("air", "pow")


def generate_series(name: str, length: int, seed: int = 0) -> List[float]:
    """Synthetic series with planted motifs (so the profile is non-trivial).

    ``air``: daily-cycle-like smooth signal + noise; ``pow``: blocky
    load-step signal + noise — loosely matching the character of the
    paper's air-quality and power-consumption inputs.
    """
    # hash(str) is per-process randomized; a crc-derived fallback keeps the
    # series identical across worker processes and interpreter launches.
    rng = random.Random(seed or stable_name_seed(name))
    series = []
    for i in range(length):
        if name == "air":
            base = math.sin(2 * math.pi * i / 24) + 0.5 * math.sin(2 * math.pi * i / 7)
        else:
            base = 1.0 if (i // 16) % 2 == 0 else -1.0
        series.append(base + 0.25 * rng.random())
    # plant a repeated motif so a true nearest neighbour exists.
    motif = [2.0 * math.sin(i / 2.0) for i in range(8)]
    for start in (length // 5, (3 * length) // 5):
        for i, value in enumerate(motif):
            if start + i < length:
                series[start + i] = value
    return series


def matrix_profile_reference(series: List[float], window: int) -> List[float]:
    """Brute-force z-normalized-free matrix profile (squared distances)."""
    n = len(series) - window + 1
    profile = [float("inf")] * n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(i - j) < window:  # exclusion zone
                continue
            dist = sum(
                (series[i + k] - series[j + k]) ** 2 for k in range(window)
            )
            if dist < profile[i]:
                profile[i] = dist
            if dist < profile[j]:
                profile[j] = dist
    return profile


@lru_cache(maxsize=2)
def pair_distances(dataset: str, length: int, seed: int,
                   window: int) -> Tuple[Optional[memoryview], ...]:
    """Squared distance of every pair the SCRIMP program visits, by diagonal.

    Entry ``k`` (``k >= window``) holds, at index ``i``, the distance of the
    subsequences starting at ``i`` and ``i + k``, as a read-only view of an
    ``array('d')`` (one table serves every run on the same input); the
    entries below ``window`` are ``None`` (the exclusion zone, never read).
    Only two tables are kept, as one is ~3.6 MB at ``REPRO_SCALE=full``;
    fig12 runs each input's mechanisms back to back.
    """
    series = generate_series(dataset, length, seed)
    profile_len = length - window + 1
    diagonals: List[Optional[memoryview]] = [None] * profile_len
    for k in range(window, profile_len):
        diagonals[k] = memoryview(array("d", (
            sum((series[i + t] - series[i + k + t]) ** 2
                for t in range(window))
            for i in range(profile_len - k)))).toreadonly()
    return tuple(diagonals)


@lru_cache(maxsize=16)
def reference_profile(dataset: str, length: int, seed: int,
                      window: int) -> Tuple[float, ...]:
    """:func:`matrix_profile_reference` of the generated series, memoized;
    computed from the series alone, never from :func:`pair_distances`."""
    return tuple(matrix_profile_reference(
        generate_series(dataset, length, seed), window))


class TimeSeriesWorkload(Workload):
    """SCRIMP: diagonal-order matrix profile with per-entry locks."""

    name = "ts"

    def __init__(self, dataset: str = "air", length: int = None, window: int = 8,
                 seed: int = 0):
        if dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}")
        self.dataset = dataset
        self.length = length if length is not None else scaled(96)
        self.window = window
        self.seed = seed
        self.profile_len = self.length - window + 1
        self.profile = [float("inf")] * self.profile_len
        self._updates = 0
        self._steps = 0

    # ------------------------------------------------------------------
    def build(self, system: NDPSystem) -> Dict[int, object]:
        units = system.config.num_units
        # replicated input series: one copy per unit (cacheable reads).
        self.series_addr = [
            system.addrmap.alloc_array(u, self.length, 8) for u in range(units)
        ]
        # partitioned output profile + per-entry locks.
        self.profile_addr = [0] * self.profile_len
        self.profile_lock = [None] * self.profile_len
        for i in range(self.profile_len):
            unit = i % units
            self.profile_addr[i] = system.addrmap.alloc(unit, 8)
            self.profile_lock[i] = system.create_syncvar(unit=unit)

        # ops whose fields are fixed for the run, shared by every program.
        self._acquire = [api.lock_acquire(lock) for lock in self.profile_lock]
        self._release = [api.lock_release(lock) for lock in self.profile_lock]
        self._read = [Load(addr, cacheable=False) for addr in self.profile_addr]
        self._write = [Store(addr, cacheable=False)
                       for addr in self.profile_addr]
        self._series_loads = [
            [Load(base + 8 * index) for index in range(self.length)]
            for base in self.series_addr
        ]
        self._step_compute = Compute(8)
        self._distances = pair_distances(self.dataset, self.length,
                                         self.seed, self.window)

        self.barrier = system.create_syncvar(unit=0, name="ts_barrier")
        cores = system.cores
        participants = len(cores)

        # diagonals k = window .. profile_len-1, dealt round-robin.
        diagonals = list(range(self.window, self.profile_len))
        per_core: Dict[int, List[int]] = {c.core_id: [] for c in cores}
        for index, k in enumerate(diagonals):
            per_core[cores[index % len(cores)].core_id].append(k)

        return {
            core.core_id: self._core_program(core, per_core[core.core_id],
                                             participants)
            for core in cores
        }

    def _core_program(self, core, diagonals: List[int], participants: int):
        loads = self._series_loads[core.unit_id]

        def program():
            acquire, release = self._acquire, self._release
            read, write = self._read, self._write
            compute = self._step_compute
            profile = self.profile
            last = self.window - 1
            for k in diagonals:
                distances = self._distances[k]
                # walk diagonal k: pairs (i, i+k).
                for i in range(0, self.profile_len - k):
                    j = i + k
                    self._steps += 1
                    # incremental update: two multiplies, two adds + the
                    # two new sample loads (cacheable, replicated input).
                    yield Batch((loads[i + last], loads[j + last], compute))
                    dist = distances[i]
                    # SCRIMP's min-update: the comparison itself reads the
                    # shared profile entry, so it happens under that entry's
                    # lock — this is what makes ts the paper's most
                    # synchronization-intensive application (Sec. 6.1.3,
                    # Table 7's 44% average ST occupancy).
                    for target in (i, j):
                        yield acquire[target]
                        yield read[target]
                        if dist < profile[target]:
                            profile[target] = dist
                            self._updates += 1
                            yield write[target]
                        yield release[target]
            yield api.barrier_wait_across_units(self.barrier, participants)

        return program()

    # ------------------------------------------------------------------
    def verify(self, system: NDPSystem) -> None:
        reference = reference_profile(self.dataset, self.length, self.seed,
                                      self.window)
        for mine, ref in zip(self.profile, reference):
            if not math.isclose(mine, ref, rel_tol=1e-9, abs_tol=1e-12):
                raise AssertionError("matrix profile does not match brute force")

    def operations(self) -> int:
        return self._steps
