"""Shared test/benchmark helpers, importable as ``repro.testing``.

Historically these lived in ``tests/conftest.py`` and test modules did
``from conftest import build_system`` — which pytest resolved against
*whichever* ``conftest.py`` it imported first (``benchmarks/conftest.py``
under prepend import mode), breaking collection of the whole suite.  Keeping
them in the installed package means both ``tests/`` and ``benchmarks/``
can import them unambiguously, and so can ad-hoc scripts.
"""

from __future__ import annotations

import copy
import types

from repro.sim.config import SystemConfig
from repro.sim.memsys import REQUEST_BYTES
from repro.sim.system import NDPSystem


class NullObserver:
    """A kernel drain observer that only counts the events it saw.

    Appending one to ``sim._observers`` routes :meth:`Simulator.run
    <repro.sim.engine.Simulator.run>` through the observed drain without
    changing anything it runs, so tests can hold that drain against the
    fast one.
    """

    def __init__(self):
        self.events = 0

    def before_event(self, callback, origin) -> None:
        pass

    def after_event(self, callback) -> None:
        self.events += 1

    def end_cycle(self, time) -> None:
        pass


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

#: Sec. 2.2.1 spin-wait baselines.  Kept out of ALL_MECHANISMS because they
#: implement only the primitives their experiments measure: the bakery its
#: lock, ``rmw_spin`` its lock, semaphore and reader-writer lock — see
#: test_spin_baselines.py for their coverage.
SPIN_MECHANISMS = ("rmw_spin", "bakery")


#: ``ndp_2_5d`` overrides for the fabrics the fused packet and burst paths
#: must match their references on: the pristine single-path table, routed
#: multi-hop fabrics, and heterogeneous links.
FABRICS = {
    "all_to_all": dict(num_units=4),
    "ring": dict(num_units=4, topology="ring"),
    "mesh2d": dict(num_units=8, topology="mesh2d"),
    "profiled": dict(num_units=4, link_profile=((0, 2, 3.2, 100.0),)),
}


def fabric_snapshot(system) -> tuple:
    """Every piece of state a transfer or burst touches: a copy of every
    counter, each crossbar's load estimate, each link's reservation, and
    each DRAM's banks."""
    interconnect = system.interconnect
    return (
        copy.deepcopy(system.stats),
        [(x._rate, x._last_time) for x in interconnect.crossbars],
        sorted((channel, link._next_free)
               for channel, link in interconnect._links.items()),
        [(list(d._open_row), list(d._next_free)) for d in system.memsys.drams],
    )


def charge_transfers(stats, nbytes: int, local: bool, link_hops: int) -> None:
    """Traffic counters of one ``nbytes`` transfer as the reference packet
    path books them: the source crossbar (+ fabric links + destination
    crossbar when remote), computed from the hop count rather than read
    from a packet plan."""
    if local:
        stats.bytes_inside_units += nbytes
    else:
        # Both endpoint crossbars see the packet; links carry it once.
        stats.bytes_inside_units += 2 * nbytes
        stats.bytes_across_units += nbytes
        stats.link_bit_hops += nbytes * 8 * link_hops


def per_hop_transfer(interconnect, src_unit: int, dst_unit: int, now: int,
                     nbytes: int) -> int:
    """Reference for :meth:`Interconnect.transfer_latency
    <repro.sim.network.Interconnect.transfer_latency>`, composed hop by hop:
    the source crossbar step, each link of the pair's current route
    (``Interconnect._routed``) via :meth:`~repro.sim.network.Link.reserve`,
    the destination crossbar step, then the counters of one transfer via
    :func:`charge_transfers` plus any detour bits."""
    stats = interconnect.stats
    local = src_unit == dst_unit
    xbar = interconnect.crossbars[src_unit]
    latency = xbar._base_cycles + xbar.queue_wait(now, nbytes)
    route = ()
    if not local:
        route, extra = interconnect._routed(src_unit, dst_unit)
        stats.detour_bit_hops += nbytes * 8 * extra
        for link in route:
            latency += link.reserve(now + latency, nbytes)
        xbar = interconnect.crossbars[dst_unit]
        latency += xbar._base_cycles + xbar.queue_wait(now + latency, nbytes)
    charge_transfers(stats, nbytes, local, len(route))
    return latency


def per_access_reference(memsys, src_unit: int, l1, addr: int,
                         is_write: bool, cacheable: bool, now: int,
                         size: int = 8, for_sync: bool = False) -> int:
    """Reference for :meth:`MemorySystem.access
    <repro.sim.memsys.MemorySystem.access>`, composed from its building
    blocks: :meth:`L1Cache.access <repro.sim.cache.L1Cache.access>` for a
    cacheable access (a miss then fills the line from the home DRAM and
    writes any dirty victim back off the critical path), else a word-grain
    request / :meth:`DramDevice.access <repro.sim.dram.DramDevice.access>`
    / response exchange; every packet is one :func:`per_hop_transfer`."""
    interconnect = memsys.interconnect
    addrmap = memsys.addrmap
    line_bytes = memsys.config.cache_line_bytes
    if for_sync:
        memsys.stats.sync_memory_accesses += 1
    if cacheable and l1 is not None:
        result = l1.access(addr, is_write)
        if result.hit:
            return l1.hit_cycles
        latency = l1.hit_cycles
        home = addrmap.unit_of(addr)
        latency += per_hop_transfer(interconnect, src_unit, home,
                                    now + latency, REQUEST_BYTES)
        latency += memsys.drams[home].access(addr, False, now + latency)
        latency += per_hop_transfer(interconnect, home, src_unit,
                                    now + latency, line_bytes)
        if result.writeback_line is not None:
            victim = result.writeback_line * line_bytes
            victim_home = addrmap.unit_of(victim)
            per_hop_transfer(interconnect, src_unit, victim_home, now,
                             line_bytes)
            memsys.drams[victim_home].access(victim, True, now)
        return latency
    home = addrmap.unit_of(addr)
    payload = size if size > 8 else 8
    request = REQUEST_BYTES + (payload if is_write else 0)
    response = REQUEST_BYTES + (0 if is_write else payload)
    latency = per_hop_transfer(interconnect, src_unit, home, now, request)
    latency += memsys.drams[home].access(addr, is_write, now + latency)
    latency += per_hop_transfer(interconnect, home, src_unit, now + latency,
                                response)
    return latency


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


def _queued_enqueue(se, msg) -> None:
    se._queue.append(msg)
    if not se._busy:
        se._busy = True
        se._start_next()


def _queued_start_next(se) -> None:
    if not se._queue:
        se._busy = False
        return
    msg = se._queue.popleft()
    se.sim.schedule(se.service_cycles, se._finish, msg)


def _queued_finish(se, msg) -> None:
    se._extra = 0
    se.stats.record_st_occupancy(se.se_id, len(se.st))
    se.dispatch(msg)
    if se._extra > 0:
        se.sim.schedule(se._extra, se._start_next)
    else:
        se._start_next()


def engines(system) -> list:
    """Every distinct SE / server engine of ``system``'s mechanism, the
    abort-overflow variants' fallback servers included."""
    mech = system.mechanism
    found = list(mech.ses) + list(getattr(mech, "_fallbacks", ()))
    return list({id(se): se for se in found}.values())


def queued_intake(system) -> None:
    """Reference for the SE intake loop of :class:`SyncEngine
    <repro.core.engine.SyncEngine>`: patch every engine of ``system``'s
    mechanism to queue each arriving message, pop it in a separate
    ``_start_next`` step, and sample its ST's occupancy straight into
    :meth:`SystemStats.record_st_occupancy
    <repro.sim.stats.SystemStats.record_st_occupancy>` before every
    message, instead of folding the samples per ST change.  Events,
    timestamps and same-timestamp order must equal the engine's own loop.
    """
    for se in engines(system):
        se._enqueue = types.MethodType(_queued_enqueue, se)
        se._start_next = types.MethodType(_queued_start_next, se)
        se._finish = types.MethodType(_queued_finish, se)
