"""Shared test/benchmark helpers, importable as ``repro.testing``.

Historically these lived in ``tests/conftest.py`` and test modules did
``from conftest import build_system`` — which pytest resolved against
*whichever* ``conftest.py`` it imported first (``benchmarks/conftest.py``
under prepend import mode), breaking collection of the whole suite.  Keeping
them in the installed package means both ``tests/`` and ``benchmarks/``
can import them unambiguously, and so can ad-hoc scripts.
"""

from __future__ import annotations

from repro.sim.config import SystemConfig
from repro.sim.system import NDPSystem


def build_system(config: SystemConfig, mechanism: str = "syncron") -> NDPSystem:
    """Construct an :class:`NDPSystem` for one mechanism under test."""
    return NDPSystem(config, mechanism=mechanism)


#: every mechanism with POSIX-style synchronization semantics.
ALL_MECHANISMS = (
    "syncron",
    "syncron_flat",
    "central",
    "hier",
    "ideal",
    "syncron_central_ovrfl",
    "syncron_distrib_ovrfl",
)

#: Sec. 2.2.1 spin-wait baselines.  Kept out of ALL_MECHANISMS because their
#: condition-variable semantics differ deliberately (credits persist instead
#: of POSIX lost signals) — see test_spin_baselines.py for their coverage.
SPIN_MECHANISMS = ("rmw_spin", "bakery")


def per_access_burst(memsys, src_unit: int, addr: int, now: int,
                     stores: int = 0, loads: int = 0, size: int = 8,
                     for_sync: bool = False) -> int:
    """Reference for :meth:`MemorySystem.uncacheable_burst
    <repro.sim.memsys.MemorySystem.uncacheable_burst>`: the same stores then
    loads issued one :meth:`~repro.sim.memsys.MemorySystem.access` at a time,
    each when the previous one completes (at least one cycle later)."""
    cursor = now
    for is_write in [True] * stores + [False] * loads:
        cursor += max(memsys.access(src_unit, None, addr, is_write,
                                    cacheable=False, now=cursor, size=size,
                                    for_sync=for_sync), 1)
    return cursor - now
