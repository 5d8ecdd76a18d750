"""Interconnect models: per-unit crossbar and a routed inter-unit fabric.

Per Table 5 the paper models (i) a buffered crossbar inside each NDP unit
with a 1-cycle arbiter, 1-cycle hops and an **M/D/1** queueing model for
queueing latency, and (ii) serial inter-unit links with 12.8 GB/s per
direction and 40 ns latency per cache line.

We reproduce both:

- :class:`Crossbar` charges arbitration + hop latency plus an analytic M/D/1
  waiting time driven by a windowed estimate of the injected load.
- :class:`Link` is one reserved physical channel: propagation latency plus
  serialization at the configured bandwidth, with queueing emerging from
  the reservation (``next_free``) time.

Which physical channels exist — and which of them a ``src -> dst`` transfer
crosses — is decided by the pluggable :mod:`repro.sim.topo` fabric named by
``SystemConfig.topology``.  A remote transfer reserves every link on its
route *in sequence*, so shared channels contend and multi-hop distance
costs real cycles.  The default ``all_to_all`` fabric has a dedicated
channel per ordered unit pair and reproduces the pre-topology simulator
bit-identically.

Degraded and heterogeneous fabrics: ``SystemConfig.link_profile`` gives
individual channels their own bandwidth/latency, and a
:class:`~repro.sim.topo.faults.FaultPlan` kills channels permanently
mid-run (see :meth:`Interconnect.fail_link`).  Routing is static: each pair
keeps its pristine route until a fault severs it, then takes the shortest
surviving path.  The zero-fault path reads the pristine route from a
per-pair ``[src][dst]`` table, filled on each pair's first packet —
bit-identical to a fabric that has none of this machinery.

Both components are timing only.  :meth:`Interconnect.transfer_latency`
is the one packet path: it runs the crossbar and link steps and records the
packet's traffic into :class:`~repro.sim.stats.SystemStats`, so the energy
model and the Fig. 15 data-movement results need no extra hooks; the
fabric additionally counts ``link_bit_hops`` (bits x links traversed) for
per-hop link energy.  Its crossbar steps take the zero-wait load limit of
each packet size from a memo, so a step that cannot wait (every step of
the e2ebench workloads) computes no service time.
:meth:`Interconnect.round_trips` resolves a burst of
request/response exchanges to one DRAM address (a bakery scan) with the
same arithmetic inline, its DRAM row hits included, and charges its traffic
once per burst.  Once an exchange of the burst waited nowhere and left the
fabric, relative to its end, as it found it relative to its start, the
following exchanges repeat it shifted in time: a steady-state loop then
advances only the crossbar load estimates, stops at the first step whose
estimate leaves the zero-wait range, and shifts every reservation by the
exchanges it repeated.  The floats are computed by the same expressions in
the same order and the shifts are exact integers, so the result is
bit-identical to resolving every exchange.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.clock import core_cycles_from_ns
from repro.sim.config import SystemConfig
from repro.sim.dram import DramDevice
from repro.sim.stats import SystemStats, charge_transfers
from repro.sim.topo import (
    Channel,
    FabricPartitionedError,
    Topology,
    build_topology,
    unreachable_pairs,
)
from repro.telemetry import get_telemetry


class Crossbar:
    """Buffered crossbar inside one NDP unit.

    A packet pays :attr:`_base_cycles` (arbitration plus the configured
    local hops) and an M/D/1 waiting time (:meth:`queue_wait`).  Traffic
    accounting is the :class:`Interconnect`'s.

    Queueing is driven by an exponential moving average of the injected
    bytes/cycle over a window of :attr:`TAU` cycles (larger values smooth
    bursts).  ``math.exp`` would dominate the injection cost, and the
    elapsed-cycle argument repeats heavily (traffic is bursty, timestamps
    are integers), so decay factors are memoized per elapsed value.  The
    memo is bounded; elapsed intervals long enough that the decay
    underflows to exactly 0.0 short-cut without touching ``exp``.  Values
    are bit-identical to the uncached computation.

    Zero-wait bound: the service time is ``s = max(nbytes / bpc, 1)``, so a
    load estimate ``rate <= 0.5 * bpc / s`` gives ``rho * s <= 1/2`` and
    ``rho <= 1/2``, hence ``W = rho * s / (2 * (1 - rho)) <= 1/2`` and
    ``int(W) == 0``; float rounding moves those bounds by a few ulps, far
    from 1.  The inline steps of :meth:`Interconnect.transfer_latency` and
    :meth:`Interconnect.round_trips` test that predicate first and charge
    only :attr:`_base_cycles` when it holds, with the load-estimate update
    unchanged, so their results are bit-identical to :meth:`queue_wait`,
    which keeps the full formula as the reference.  That is the common case
    by far: every crossbar step of the three e2ebench workloads runs at
    ``rho < 0.07``, and none of the 0.80M / 0.94M / 2.35M seed-0 steps of
    ``apps`` / ``structures`` / ``spin`` needs the formula.  It is also why
    a burst in steady state (:meth:`Interconnect.round_trips`) needs
    nothing of a step but its load-estimate update and this predicate.
    """

    __slots__ = ("config", "unit_id", "_rate", "_last_time", "_decay_cache",
                 "_bytes_per_cycle", "_base_cycles")

    #: load-estimate averaging window, in cycles.
    TAU = 2000.0
    #: exp(-elapsed / TAU) underflows to exactly 0.0 from here on
    #: (exp(x) is 0.0 below ~ -745.2).
    _DEAD_ELAPSED = int(746.0 * TAU) + 1
    #: memoized decay factors are kept for at most this many distinct
    #: elapsed values (plenty for any real traffic pattern).
    _CACHE_LIMIT = 1 << 16

    def __init__(self, config: SystemConfig, unit_id: int):
        self.config = config
        self.unit_id = unit_id
        #: load estimate (bytes/cycle) as of the last injection.
        self._rate = 0.0
        self._last_time = 0
        self._decay_cache: Dict[int, float] = {}
        # Hoisted config reads: these are dataclass attribute chains on the
        # hottest call in the interconnect.
        self._bytes_per_cycle = config.crossbar_bytes_per_cycle
        self._base_cycles = config.arbiter_cycles + config.local_hops * config.hop_cycles

    def _decay(self, elapsed: int) -> float:
        """History weight after ``elapsed`` cycles (a decay-memo miss)."""
        if elapsed >= self._DEAD_ELAPSED:
            return 0.0
        decay = math.exp(-elapsed / self.TAU)
        if len(self._decay_cache) < self._CACHE_LIMIT:
            self._decay_cache[elapsed] = decay
        return decay

    def queue_wait(self, now: int, nbytes: int) -> int:
        """Inject a packet at ``now``; its M/D/1 mean waiting time in cycles.

        Timing only (no traffic counters).  The injection first updates the
        load estimate, spreading the packet over the interval since the
        previous one and decaying history; then W = rho / (2*mu*(1-rho)),
        where the packet's service time is its serialization time at the
        crossbar bandwidth and rho is the estimated utilization.
        """
        elapsed = now - self._last_time
        if elapsed < 1:
            elapsed = 1
        decay = self._decay_cache.get(elapsed)
        if decay is None:
            decay = self._decay(elapsed)
        rate = self._rate * decay + (nbytes / elapsed) * (1.0 - decay)
        self._rate = rate
        self._last_time = now
        bpc = self._bytes_per_cycle
        service = nbytes / bpc
        if service < 1.0:
            service = 1.0
        rho = rate / bpc
        if rho > 0.95:
            rho = 0.95
        return int(rho * service / (2.0 * (1.0 - rho)))


class Link:
    """One serial physical channel of the inter-unit fabric (timing only;
    the :class:`Interconnect` books the traffic)."""

    __slots__ = ("config", "_next_free", "_bytes_per_cycle", "_latency_cycles",
                 "_serialization")

    def __init__(self, config: SystemConfig,
                 bytes_per_cycle: Optional[float] = None,
                 latency_cycles: Optional[int] = None):
        self.config = config
        self._next_free = 0
        # link_bytes_per_cycle / link_latency_cycles are @property chains on
        # the config dataclass; resolve them once.  A heterogeneous
        # link_profile hands individual channels their own values.
        self._bytes_per_cycle = (
            config.link_bytes_per_cycle if bytes_per_cycle is None
            else bytes_per_cycle
        )
        self._latency_cycles = (
            config.link_latency_cycles if latency_cycles is None
            else latency_cycles
        )
        #: packet size -> serialization cycles; fabrics move a handful of
        #: distinct sizes, so each is computed once.
        self._serialization: Dict[int, int] = {}

    def serialization_cycles(self, nbytes: int) -> int:
        """Cycles to clock ``nbytes`` onto the channel (at least one)."""
        serialization = self._serialization.get(nbytes)
        if serialization is None:
            serialization = max(int(math.ceil(nbytes / self._bytes_per_cycle)), 1)
            self._serialization[nbytes] = serialization
        return serialization

    def reserve(self, now: int, nbytes: int) -> int:
        """Queue behind earlier packets, serialize, propagate: the packet's
        latency in cycles.

        The routed fabric calls this once per link on a route; traffic
        accounting happens once per transfer in :class:`Interconnect`.
        """
        serialization = self._serialization.get(nbytes)
        if serialization is None:
            serialization = self.serialization_cycles(nbytes)
        start = self._next_free
        if now > start:
            start = now
        self._next_free = start + serialization
        return (start - now) + serialization + self._latency_cycles


class Interconnect:
    """The whole fabric: one crossbar per unit, a routed link topology.

    The :class:`~repro.sim.topo.Topology` decides the physical channels and
    each pair's route; this class owns one :class:`Link` per channel (so
    routes that share a channel share its reservation queue) and memoizes
    each ordered pair's route as a tuple of Link objects in a per-pair
    ``[src][dst]`` table for the hot path.

    Fault state lives here too: :meth:`fail_link` (driven by
    :meth:`FaultPlan.arm <repro.sim.topo.faults.FaultPlan.arm>` timers)
    marks a channel dead for the rest of the run and invalidates the
    memoized routes; each pair then keeps its pristine route if it
    survives, else takes the shortest surviving path (:meth:`_resolve`).
    A fault that disconnects live units raises
    :class:`FabricPartitionedError` at injection — loudly, never as a hang.
    """

    __slots__ = ("config", "stats", "crossbars", "topology", "_links",
                 "_pristine", "_limits", "_profiles", "_degraded",
                 "_dead_channels", "_down_since", "_resolved", "_local_bits")

    def __init__(self, config: SystemConfig, stats: SystemStats):
        self.config = config
        self.stats = stats
        self.crossbars = [Crossbar(config, u) for u in range(config.num_units)]
        self.topology: Topology = build_topology(config)
        self._links: Dict[Channel, Link] = {}
        #: ``[src][dst]`` -> pristine route as Link objects, or None until
        #: :meth:`_route` first resolves the pair.
        self._pristine: List[List[Optional[Tuple[Link, ...]]]] = [
            [None] * config.num_units for _ in range(config.num_units)]
        #: packet size -> the crossbars' zero-wait load limit (every
        #: crossbar is built from one config, so one bandwidth).
        self._limits: Dict[int, float] = {}
        self._profiles = self._build_profiles(config)
        #: flips on the first fault, moving the hot path from the pristine
        #: table to :meth:`_resolve` for the rest of the run.
        self._degraded = False
        self._dead_channels: Set[Channel] = set()
        self._down_since: Dict[Channel, int] = {}
        #: (src, dst) -> (links, extra_hops) on the faulted fabric; cleared
        #: whenever a channel fails.
        self._resolved: Dict[Tuple[int, int], Tuple] = {}
        #: local_bit_hops per payload byte crossing one crossbar.
        self._local_bits = 8 * config.local_hops

    # ------------------------------------------------------------------
    # Heterogeneous link parameters
    # ------------------------------------------------------------------
    def _build_profiles(self, config: SystemConfig) -> Dict[Channel, Tuple[float, int]]:
        """channel -> (bytes/cycle, latency cycles) from the link profile
        (whose channels :meth:`SystemConfig.validate` checked exist)."""
        if not config.link_profile:
            return {}
        default_bpc = config.link_bytes_per_cycle
        default_lat = config.link_latency_cycles
        profiles: Dict[Channel, Tuple[float, int]] = {}
        for src, dst, gbps, lat_ns in config.link_profile:
            profiles[(src, dst)] = (
                # GB/s -> bytes/core-cycle, same conversion as the
                # SystemConfig.link_bytes_per_cycle property.
                default_bpc if gbps is None else gbps / 2.5,
                default_lat if lat_ns is None else core_cycles_from_ns(lat_ns),
            )
        return profiles

    def link_parameters(self, channel: Channel) -> Tuple[float, int]:
        """(bytes/cycle, latency cycles) of one channel, profile applied."""
        profile = self._profiles.get(channel)
        if profile is not None:
            return profile
        return self.config.link_bytes_per_cycle, self.config.link_latency_cycles

    def _link_for(self, channel: Channel) -> Link:
        link = self._links.get(channel)
        if link is None:
            bytes_per_cycle, latency = self.link_parameters(channel)
            link = Link(self.config, bytes_per_cycle=bytes_per_cycle,
                        latency_cycles=latency)
            self._links[channel] = link
        return link

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, src_unit: int, dst_unit: int) -> Tuple[Link, ...]:
        """Pristine route as Link objects, in order (memoized in the
        per-pair table)."""
        row = self._pristine[src_unit]
        route = row[dst_unit]
        if route is None:
            route = tuple(
                self._link_for(channel)
                for channel in self.topology.route(src_unit, dst_unit)
            )
            row[dst_unit] = route
        return route

    def _resolve(self, src_unit: int, dst_unit: int) -> Tuple:
        """(links, extra_hops) of one pair on a faulted fabric (memoized).

        The pristine route while none of its channels is dead, else the
        shortest surviving path (:meth:`Topology.fallback_route
        <repro.sim.topo.base.Topology.fallback_route>`), which counts a
        ``reroute`` (and emits telemetry) once per pair per fault epoch:
        every failure clears the memo.
        """
        pristine = self.topology.route(src_unit, dst_unit)
        dead = self._dead_channels
        route = pristine
        if any(channel in dead for channel in pristine):
            tel = get_telemetry()
            with tel.span("fabric.resolve"):
                route = self.topology.fallback_route(src_unit, dst_unit, dead)
            if route is None:
                raise FabricPartitionedError(
                    f"no surviving route {src_unit} -> {dst_unit} on the "
                    f"{self.topology.name!r} fabric ({len(dead)} dead "
                    "channels)"
                )
            self.stats.reroutes += 1
            if tel.enabled:
                tel.count("fabric.reroutes")
                tel.event("fabric.reroute", src=src_unit, dst=dst_unit,
                          pristine_hops=len(pristine),
                          detour_hops=len(route))
        extra = len(route) - len(pristine)
        resolved = (tuple(self._link_for(channel) for channel in route),
                    extra if extra > 0 else 0)
        self._resolved[(src_unit, dst_unit)] = resolved
        return resolved

    def _routed(self, src_unit: int, dst_unit: int) -> Tuple:
        """(links, extra_hops) of one pair on a faulted fabric."""
        resolved = self._resolved.get((src_unit, dst_unit))
        if resolved is None:
            resolved = self._resolve(src_unit, dst_unit)
        return resolved

    def remote_hops(self, src_unit: int, dst_unit: int) -> int:
        """Physical links a ``src -> dst`` transfer crosses (0 if local).

        On a faulted fabric this is the current (possibly detoured) route,
        so analytically-charged (elided) transfers account the same hop
        count real packets pay.
        """
        if src_unit == dst_unit:
            return 0
        if self._degraded:
            return len(self._routed(src_unit, dst_unit)[0])
        return self.topology.hops(src_unit, dst_unit)

    # ------------------------------------------------------------------
    # Fault injection (FaultPlan timers and tests call these directly)
    # ------------------------------------------------------------------
    @property
    def dead_channels(self) -> Set[Channel]:
        return self._dead_channels

    def fail_link(self, channel: Channel, now: int = 0) -> None:
        """Kill one directed channel for the rest of the run (idempotent)."""
        channel = (channel[0], channel[1])
        if channel in self._dead_channels:
            return
        tel = get_telemetry()
        with tel.span("fabric.fault", kind="link"):
            self._dead_channels.add(channel)
            self._down_since[channel] = now
            self._degraded = True
            self._resolved.clear()
            if tel.enabled:
                tel.count("fabric.faults")
                tel.event("fabric.fault", kind="link", src=channel[0],
                          dst=channel[1], at=now)
            gaps = unreachable_pairs(self.topology, self._dead_channels)
            if gaps:
                raise FabricPartitionedError(
                    f"fault at t={now} partitioned the {self.topology.name!r} "
                    f"fabric: {len(gaps)} unreachable unit pairs "
                    f"(e.g. {gaps[:4]})"
                )

    def finalize_faults(self, now: int) -> None:
        """Charge the downtime of every dead link up to ``now``, the end
        of the run (idempotent at a fixed ``now``)."""
        for channel, since in self._down_since.items():
            if now > since:
                self.stats.failed_link_cycles += now - since
                self._down_since[channel] = now

    # ------------------------------------------------------------------
    # The simulator calls transfer_latency directly.  These two delegations
    # have no caller under src/; they stay only because e2ebench/layers.py
    # wraps them by name, and go once its tracer stops doing so.
    def local_latency(self, unit: int, now: int, nbytes: int) -> int:
        """Move a packet within ``unit`` (see :meth:`transfer_latency`)."""
        return self.transfer_latency(unit, unit, now, nbytes)

    def remote_latency(self, src_unit: int, dst_unit: int, now: int, nbytes: int) -> int:
        """Move a packet between units (see :meth:`transfer_latency`)."""
        return self.transfer_latency(src_unit, dst_unit, now, nbytes)

    def transfer_latency(self, src_unit: int, dst_unit: int, now: int, nbytes: int) -> int:
        """Cycles to move one ``nbytes`` packet issued at ``now``.

        The one packet path, used by cores, SEs, and memory controllers.  A
        local packet crosses its unit's crossbar.  A remote one crosses the
        source crossbar, reserves every physical link on its route in
        sequence — the packet cannot occupy hop *k+1* before it clears hop
        *k* — so both contention (shared channels) and distance (route
        length) shape the latency, then crosses the destination crossbar.
        Each crossbar counts the payload once, the fabric counts it once
        more across units, and ``link_bit_hops`` counts every traversed link
        for the energy model (what :func:`~repro.sim.stats.charge_transfers`
        books per transfer).

        Both crossbar steps (:meth:`Crossbar.queue_wait`) and every link
        reservation (:meth:`Link.reserve`) run as inline arithmetic, as in
        :meth:`round_trips`; those methods stay the definitions that
        :func:`repro.testing.per_hop_transfer` composes and
        ``tests/test_transfer_path.py`` checks this path against.  A
        crossbar step whose load estimate is at most ``0.5 * bpc /
        service`` skips the M/D/1 formula: its wait is provably 0 (see
        :class:`Crossbar`), which is every step the e2ebench workloads make.
        That limit is memoized per packet size (:meth:`_zero_wait_limit`),
        so the service time is only computed on a step that may wait.  On
        a pristine fabric the route is one read of the per-pair table that
        :meth:`_route` fills on a pair's first packet; once a fault has
        struck, every packet takes :meth:`_routed` instead.
        """
        stats = self.stats
        limit = self._limits.get(nbytes)
        if limit is None:
            limit = self._zero_wait_limit(nbytes)
        # Source crossbar: Crossbar.queue_wait, inline.
        xbar = self.crossbars[src_unit]
        elapsed = now - xbar._last_time
        if elapsed < 1:
            elapsed = 1
        decay = xbar._decay_cache.get(elapsed)
        if decay is None:
            decay = xbar._decay(elapsed)
        rate = xbar._rate * decay + (nbytes / elapsed) * (1.0 - decay)
        xbar._rate = rate
        xbar._last_time = now
        latency = xbar._base_cycles
        if rate > limit:
            bpc = xbar._bytes_per_cycle
            service = nbytes / bpc
            if service < 1.0:
                service = 1.0
            rho = rate / bpc
            if rho > 0.95:
                rho = 0.95
            latency += int(rho * service / (2.0 * (1.0 - rho)))
        if src_unit == dst_unit:
            stats.bytes_inside_units += nbytes
            stats.local_bit_hops += nbytes * self._local_bits
            return latency
        if self._degraded:
            route, extra = self._routed(src_unit, dst_unit)
            if extra:
                stats.detour_bit_hops += nbytes * 8 * extra
        else:
            route = self._pristine[src_unit][dst_unit]
            if route is None:
                route = self._route(src_unit, dst_unit)
        # Each link on the route: Link.reserve, inline.
        t = now + latency
        for link in route:
            serialization = link._serialization.get(nbytes)
            if serialization is None:
                serialization = link.serialization_cycles(nbytes)
            start = link._next_free
            if t > start:
                start = t
            start += serialization
            link._next_free = start
            t = start + link._latency_cycles
        # Destination crossbar (same config, so same bandwidth and base).
        xbar = self.crossbars[dst_unit]
        elapsed = t - xbar._last_time
        if elapsed < 1:
            elapsed = 1
        decay = xbar._decay_cache.get(elapsed)
        if decay is None:
            decay = xbar._decay(elapsed)
        rate = xbar._rate * decay + (nbytes / elapsed) * (1.0 - decay)
        xbar._rate = rate
        xbar._last_time = t
        latency = (t - now) + xbar._base_cycles
        if rate > limit:
            bpc = xbar._bytes_per_cycle
            service = nbytes / bpc
            if service < 1.0:
                service = 1.0
            rho = rate / bpc
            if rho > 0.95:
                rho = 0.95
            latency += int(rho * service / (2.0 * (1.0 - rho)))
        stats.bytes_inside_units += 2 * nbytes
        stats.local_bit_hops += 2 * nbytes * self._local_bits
        stats.bytes_across_units += nbytes
        stats.link_bit_hops += nbytes * 8 * len(route)
        return latency

    def _zero_wait_limit(self, nbytes: int) -> float:
        """Load estimate at or below which an ``nbytes`` packet's crossbar
        wait is 0 (the bound in :class:`Crossbar`), memoized per size."""
        bpc = self.config.crossbar_bytes_per_cycle
        service = nbytes / bpc
        if service < 1.0:
            service = 1.0
        limit = self._limits[nbytes] = 0.5 * bpc / service
        return limit

    def round_trips(self, src_unit: int, dst_unit: int, now: int, count: int,
                    request_bytes: int, response_bytes: int, dram: DramDevice,
                    addr: int, is_write: bool) -> int:
        """Cycles of ``count`` back-to-back request/response exchanges, each
        one access to ``addr`` in ``dram`` (the memory of ``dst_unit``).

        Each exchange moves ``request_bytes`` from ``src_unit`` to
        ``dst_unit``, performs the DRAM access on arrival and moves
        ``response_bytes`` back; the next exchange issues when the response
        lands (at least one cycle after its predecessor issued).  Timing,
        fabric and DRAM state and counters are bit-identical to a pair of
        :meth:`transfer_latency` calls around a :meth:`DramDevice.access
        <repro.sim.dram.DramDevice.access>` per exchange.

        On a pristine single-path fabric the route is resolved once, the
        crossbar load estimates and link reservations are read into locals,
        every packet's crossbar M/D/1 step (:meth:`Crossbar.queue_wait`) and
        link reservation (:meth:`Link.reserve`) runs as inline arithmetic,
        and the state is written back and the traffic counters charged once
        after the last exchange.  The first DRAM access goes through
        :meth:`DramDevice.access <repro.sim.dram.DramDevice.access>`, which
        opens ``addr``'s row; nothing else runs during the burst, so every
        later access is a row hit on that bank, resolved inline (wait for
        the bank, the hit latency, then the write-recovery hold on a store)
        with the bank and the DRAM counters written back once too.  The
        zero-wait limits of the request and response sizes are computed once
        per burst; a crossbar step whose load estimate is at or below its
        limit skips the M/D/1 formula, as in :meth:`transfer_latency` (the
        bound and the measured traffic are in :class:`Crossbar`).

        Steady state.  With zero-wait crossbar steps an exchange is a pure
        function of its start state relative to the cursor: the elapsed
        cycles since each crossbar's last step (``cursor - src_last``,
        ``cursor - dst_last``), each link's ``_next_free - cursor`` and the
        bank's ``bank_free - cursor``.  The load estimates enter only
        through the zero-wait predicate ``rate > limit``.  So once an
        exchange took the zero-wait branch at every crossbar step and ended
        in the relative state it started in, the next exchange repeats it
        shifted by its period, for as long as every step stays at or below
        its limit.  A tight loop then runs only each step's load-estimate
        update ``rate = rate * decay + inject``, with ``decay`` and
        ``inject = (nbytes / elapsed) * (1.0 - decay)`` taken from that
        exchange's elapsed values, and checks each step's limit.  On the
        first step above its limit it stops before committing that
        exchange, and the general loop resumes there.  The ``n`` committed
        exchanges shift the cursor, both crossbars' last-step times, every
        link's next-free time and the bank's by ``n`` periods.  Every float
        is the same expression in the same order as in the general loop and
        every shift is an exact integer, so the result stays bit-identical.
        An exchange that waited never seeds the loop: its wait before the
        first link is invisible in the relative state, and its period
        includes waits the repeats would not pay.  A bakery scan reaches
        this state after two or three exchanges.

        A faulted fabric, whose routes may change mid-burst, resolves every
        transfer through :meth:`transfer_latency` and every access through
        ``dram.access`` instead.
        """
        if count <= 0:
            return 0
        cursor = now
        local = src_unit == dst_unit
        access = dram.access
        if not local and self._degraded:
            transfer = self.transfer_latency
            for _ in range(count):
                latency = transfer(src_unit, dst_unit, cursor, request_bytes)
                latency += access(addr, is_write, cursor + latency)
                latency += transfer(dst_unit, src_unit, cursor + latency,
                                    response_bytes)
                cursor += latency if latency > 1 else 1
            return cursor - now
        # DRAM: the bank's next-free time is unknown (None) until the first
        # access opens the row; each later access is a row hit held for
        # ``hit`` plus ``recovery`` on a store.
        bank = dram.bank_of(addr)
        bank_next_free = dram._next_free
        bank_free = None
        hit = dram._hit_cycles
        recovery = dram._wr_cycles if is_write else 0
        src = self.crossbars[src_unit]
        # Every crossbar is built from one config: one base latency and one
        # bandwidth, so each packet size has one M/D/1 service time.
        base = src._base_cycles
        bpc = src._bytes_per_cycle
        req_service = request_bytes / bpc
        if req_service < 1.0:
            req_service = 1.0
        resp_service = response_bytes / bpc
        if resp_service < 1.0:
            resp_service = 1.0
        # At or below these load estimates the M/D/1 wait is 0 (Crossbar).
        req_limit = 0.5 * bpc / req_service
        resp_limit = 0.5 * bpc / resp_service
        src_rate, src_last = src._rate, src._last_time
        src_memo, src_decay = src._decay_cache, src._decay
        # Exchanges resolved so far, and the relative state the last one
        # ended in (the next one's start state).
        done = 0
        entry = None
        if local:
            out = back = ()
            while done < count:
                begin = cursor
                waited = False
                # request: source crossbar step
                e1 = cursor - src_last
                if e1 < 1:
                    e1 = 1
                d1 = src_memo.get(e1)
                if d1 is None:
                    d1 = src_decay(e1)
                src_rate = src_rate * d1 + (request_bytes / e1) * (1.0 - d1)
                src_last = cursor
                t = cursor + base
                if src_rate > req_limit:
                    waited = True
                    rho = src_rate / bpc
                    if rho > 0.95:
                        rho = 0.95
                    t += int(rho * req_service / (2.0 * (1.0 - rho)))
                if bank_free is None:
                    t += access(addr, is_write, t)
                    bank_free = bank_next_free[bank]
                else:
                    if bank_free > t:
                        t = bank_free
                    t += hit
                    bank_free = t + recovery
                # response: the same crossbar again
                e2 = t - src_last
                if e2 < 1:
                    e2 = 1
                d2 = src_memo.get(e2)
                if d2 is None:
                    d2 = src_decay(e2)
                src_rate = src_rate * d2 + (response_bytes / e2) * (1.0 - d2)
                src_last = t
                t += base
                if src_rate > resp_limit:
                    waited = True
                    rho = src_rate / bpc
                    if rho > 0.95:
                        rho = 0.95
                    t += int(rho * resp_service / (2.0 * (1.0 - rho)))
                cursor = t if t > cursor else cursor + 1
                done += 1
                state = (cursor - src_last, bank_free - cursor)
                if waited or state != entry:
                    entry = state
                    continue
                # Steady state: repeat this exchange while both steps stay
                # at or below their limits.
                inject1 = (request_bytes / e1) * (1.0 - d1)
                inject2 = (response_bytes / e2) * (1.0 - d2)
                src_r = src_rate
                for repeats in range(count - done):
                    src_next = src_r * d1 + inject1
                    if src_next > req_limit:
                        break
                    src_next = src_next * d2 + inject2
                    if src_next > resp_limit:
                        break
                    src_r = src_next
                else:
                    repeats = count - done
                if repeats:
                    src_rate = src_r
                    shift = repeats * (cursor - begin)
                    cursor += shift
                    src_last += shift
                    bank_free += shift
                    done += repeats
        else:
            dst = self.crossbars[dst_unit]
            dst_rate, dst_last = dst._rate, dst._last_time
            dst_memo, dst_decay = dst._decay_cache, dst._decay
            out = self._route(src_unit, dst_unit)
            back = self._route(dst_unit, src_unit)
            # Per route: each link's next-free time, serialization of this
            # burst's packet size, and propagation latency.
            out_free = [link._next_free for link in out]
            out_ser = [link.serialization_cycles(request_bytes) for link in out]
            out_lat = [link._latency_cycles for link in out]
            back_free = [link._next_free for link in back]
            back_ser = [link.serialization_cycles(response_bytes) for link in back]
            back_lat = [link._latency_cycles for link in back]
            out_hops = range(len(out))
            back_hops = range(len(back))
            while done < count:
                begin = cursor
                waited = False
                # request: source crossbar step
                e1 = cursor - src_last
                if e1 < 1:
                    e1 = 1
                d1 = src_memo.get(e1)
                if d1 is None:
                    d1 = src_decay(e1)
                src_rate = src_rate * d1 + (request_bytes / e1) * (1.0 - d1)
                src_last = cursor
                t = cursor + base
                if src_rate > req_limit:
                    waited = True
                    rho = src_rate / bpc
                    if rho > 0.95:
                        rho = 0.95
                    t += int(rho * req_service / (2.0 * (1.0 - rho)))
                # request: each link on the route
                for i in out_hops:
                    start = out_free[i]
                    if t > start:
                        start = t
                    start += out_ser[i]
                    out_free[i] = start
                    t = start + out_lat[i]
                # request: destination crossbar step
                e2 = t - dst_last
                if e2 < 1:
                    e2 = 1
                d2 = dst_memo.get(e2)
                if d2 is None:
                    d2 = dst_decay(e2)
                dst_rate = dst_rate * d2 + (request_bytes / e2) * (1.0 - d2)
                dst_last = t
                t += base
                if dst_rate > req_limit:
                    waited = True
                    rho = dst_rate / bpc
                    if rho > 0.95:
                        rho = 0.95
                    t += int(rho * req_service / (2.0 * (1.0 - rho)))
                if bank_free is None:
                    t += access(addr, is_write, t)
                    bank_free = bank_next_free[bank]
                else:
                    if bank_free > t:
                        t = bank_free
                    t += hit
                    bank_free = t + recovery
                # response: destination crossbar step
                e3 = t - dst_last
                if e3 < 1:
                    e3 = 1
                d3 = dst_memo.get(e3)
                if d3 is None:
                    d3 = dst_decay(e3)
                dst_rate = dst_rate * d3 + (response_bytes / e3) * (1.0 - d3)
                dst_last = t
                t += base
                if dst_rate > resp_limit:
                    waited = True
                    rho = dst_rate / bpc
                    if rho > 0.95:
                        rho = 0.95
                    t += int(rho * resp_service / (2.0 * (1.0 - rho)))
                # response: each link on the way back
                for i in back_hops:
                    start = back_free[i]
                    if t > start:
                        start = t
                    start += back_ser[i]
                    back_free[i] = start
                    t = start + back_lat[i]
                # response: source crossbar step
                e4 = t - src_last
                if e4 < 1:
                    e4 = 1
                d4 = src_memo.get(e4)
                if d4 is None:
                    d4 = src_decay(e4)
                src_rate = src_rate * d4 + (response_bytes / e4) * (1.0 - d4)
                src_last = t
                t += base
                if src_rate > resp_limit:
                    waited = True
                    rho = src_rate / bpc
                    if rho > 0.95:
                        rho = 0.95
                    t += int(rho * resp_service / (2.0 * (1.0 - rho)))
                cursor = t if t > cursor else cursor + 1
                done += 1
                state = (cursor - src_last, cursor - dst_last,
                         bank_free - cursor,
                         [free - cursor for free in out_free],
                         [free - cursor for free in back_free])
                if waited or state != entry:
                    entry = state
                    continue
                # Steady state: repeat this exchange while all four steps
                # stay at or below their limits.
                inject1 = (request_bytes / e1) * (1.0 - d1)
                inject2 = (request_bytes / e2) * (1.0 - d2)
                inject3 = (response_bytes / e3) * (1.0 - d3)
                inject4 = (response_bytes / e4) * (1.0 - d4)
                src_r, dst_r = src_rate, dst_rate
                for repeats in range(count - done):
                    src_next = src_r * d1 + inject1
                    if src_next > req_limit:
                        break
                    dst_next = dst_r * d2 + inject2
                    if dst_next > req_limit:
                        break
                    dst_next = dst_next * d3 + inject3
                    if dst_next > resp_limit:
                        break
                    src_next = src_next * d4 + inject4
                    if src_next > resp_limit:
                        break
                    src_r, dst_r = src_next, dst_next
                else:
                    repeats = count - done
                if repeats:
                    src_rate, dst_rate = src_r, dst_r
                    shift = repeats * (cursor - begin)
                    cursor += shift
                    src_last += shift
                    dst_last += shift
                    bank_free += shift
                    for i in out_hops:
                        out_free[i] += shift
                    for i in back_hops:
                        back_free[i] += shift
                    done += repeats
            dst._rate, dst._last_time = dst_rate, dst_last
            for link, free in zip(out, out_free):
                link._next_free = free
            for link, free in zip(back, back_free):
                link._next_free = free
        src._rate, src._last_time = src_rate, src_last
        bank_next_free[bank] = bank_free
        hits = count - 1
        dram_stats = dram.stats
        dram_stats.dram_row_hits += hits
        if is_write:
            dram_stats.dram_writes += hits
        else:
            dram_stats.dram_reads += hits
        local_hops = self.config.local_hops
        charge_transfers(self.stats, request_bytes, count, local, local_hops,
                         len(out))
        charge_transfers(self.stats, response_bytes, count, local, local_hops,
                         len(back))
        return cursor - now
