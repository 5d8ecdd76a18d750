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
surviving path.

Both components are timing only.  Everything one packet of ``nbytes``
from ``src`` to ``dst`` needs is decided once, by
:meth:`Interconnect._packet_plan`: its crossbars' zero-wait load limit,
both crossbars, the links of its current route with each hop's
serialization and latency, and the traffic it books into
:class:`~repro.sim.stats.SystemStats` (bytes inside and across units, link
bit-hops for per-hop link energy, and detour bit-hops).  The plans are
memoized per ``(src, dst, nbytes)`` and dropped when a channel fails, so
pristine and faulted fabrics share one code path.
:meth:`Interconnect.transfer_latency` moves one packet by its plan; a
crossbar step that cannot wait (every step of the e2ebench workloads)
never reaches the M/D/1 formula (:meth:`Crossbar.wait_cycles`, its one
copy).  :meth:`Interconnect.round_trips` resolves a burst of
request/response exchanges to one DRAM address (a bakery scan) in one loop
of the same inline steps, its DRAM row hits included, reading a burst plan
built from the request's and the response's packet plans, and books its
traffic once per burst.  Once an exchange waited nowhere, left the fabric,
relative to its end, as it found it relative to its start, and left every
load estimate safely below the zero-wait limits, no later exchange can
wait: the rest of the burst is fast-forwarded by updating only the
crossbar load estimates and shifting every reservation by whole periods,
bit-identical to resolving every exchange.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.clock import core_cycles_from_ns
from repro.sim.config import SystemConfig
from repro.sim.dram import DramDevice
from repro.sim.stats import SystemStats
from repro.sim.topo import (
    Channel,
    FabricPartitionedError,
    Topology,
    build_topology,
    unreachable_pairs,
)


class Crossbar:
    """Buffered crossbar inside one NDP unit.

    A packet pays :attr:`_base_cycles` (arbitration plus the configured
    local hops) and an M/D/1 waiting time (:meth:`queue_wait`).  Traffic
    accounting is the :class:`Interconnect`'s.

    Queueing is driven by an exponential moving average of the injected
    bytes/cycle over a window of :attr:`TAU` cycles (larger values smooth
    bursts).  ``math.exp`` would dominate the injection cost, and short
    elapsed-cycle arguments repeat heavily (traffic is bursty, timestamps
    are integers), so decay factors are memoized per elapsed value.  Every
    crossbar uses the same :attr:`TAU`, so the crossbars of one
    :class:`Interconnect` share one memo (``decay_memo``); a standalone
    crossbar keeps its own.  Only gaps below :attr:`_MEMO_SPAN` (4 *
    ``TAU``, where the decay is already below e^-4) are memoized, so the
    memo holds at most 8,000 entries.  Longer gaps are mostly one-off
    idle periods (a parked spin-lock scanner's first step after a long
    wait) and call ``exp`` on every lookup; gaps long enough that the
    decay underflows to exactly 0.0 short-cut without touching ``exp``.
    Over one seed-0 pass of the e2ebench workloads:

    ==========  =============  ===================  =====================
    workload    memo lookups   ``exp`` calls added  largest memo per spec
    ==========  =============  ===================  =====================
    apps        797,913        0                    1,101 -> 1,101
    structures  940,952        12,958 (1.4%)        5,057 -> 4,939
    spin        241,319        1,360 (0.6%)         10,733 -> 1,754
    ==========  =============  ===================  =====================

    (largest memo: every gap kept -> only gaps below the span).  Values are
    bit-identical to the uncached computation.

    Zero-wait bound: the service time is ``s = max(nbytes / bpc, 1)``, so a
    load estimate ``rate <= 0.5 * bpc / s`` gives ``rho * s <= 1/2`` and
    ``rho <= 1/2``, hence ``W = rho * s / (2 * (1 - rho)) <= 1/2`` and
    ``int(W) == 0``; float rounding moves those bounds by a few ulps, far
    from 1.  The crossbar steps of :meth:`Interconnect.transfer_latency`
    and :meth:`Interconnect.round_trips` update the load estimate inline,
    test that predicate and call :meth:`wait_cycles` only when it fails, so
    their results are bit-identical to :meth:`queue_wait`, the reference
    step.  That is the common case by far: every crossbar step of the three
    e2ebench workloads runs at ``rho < 0.07``, and none of the 0.80M /
    0.94M / 2.35M seed-0 steps of ``apps`` / ``structures`` / ``spin``
    needs the formula.  It is also why a burst can fast-forward
    (:meth:`Interconnect.round_trips`) once its estimates sit safely below
    the limit.
    """

    __slots__ = ("config", "unit_id", "_rate", "_last_time", "_decay_cache",
                 "_bytes_per_cycle", "_base_cycles")

    #: load-estimate averaging window, in cycles.
    TAU = 2000.0
    #: exp(-elapsed / TAU) underflows to exactly 0.0 from here on
    #: (exp(x) is 0.0 below ~ -745.2).
    _DEAD_ELAPSED = int(746.0 * TAU) + 1
    #: decay factors are memoized only for gaps below this many cycles.
    _MEMO_SPAN = int(4 * TAU)

    def __init__(self, config: SystemConfig, unit_id: int,
                 decay_memo: Optional[Dict[int, float]] = None):
        self.config = config
        self.unit_id = unit_id
        #: load estimate (bytes/cycle) as of the last injection.
        self._rate = 0.0
        self._last_time = 0
        self._decay_cache: Dict[int, float] = (
            {} if decay_memo is None else decay_memo)
        # Hoisted config reads: these are config attribute chains on the
        # hottest call in the interconnect.
        self._bytes_per_cycle = config.crossbar_bytes_per_cycle
        self._base_cycles = config.arbiter_cycles + config.local_hops * config.hop_cycles

    def _decay(self, elapsed: int) -> float:
        """History weight after ``elapsed`` cycles (a decay-memo miss)."""
        if elapsed >= self._DEAD_ELAPSED:
            return 0.0
        decay = math.exp(-elapsed / self.TAU)
        if elapsed < self._MEMO_SPAN:
            self._decay_cache[elapsed] = decay
        return decay

    def queue_wait(self, now: int, nbytes: int) -> int:
        """Inject a packet at ``now``; its M/D/1 mean waiting time in cycles.

        Timing only (no traffic counters).  The injection first updates the
        load estimate, spreading the packet over the interval since the
        previous one and decaying history; then the packet waits
        :meth:`wait_cycles` at the new estimate.
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
        return self.wait_cycles(rate, nbytes)

    def wait_cycles(self, rate: float, nbytes: int) -> int:
        """M/D/1 mean waiting time of an ``nbytes`` packet at load estimate
        ``rate``: W = rho / (2*mu*(1-rho)), with the packet's serialization
        time at the crossbar bandwidth as service time and rho capped at
        0.95."""
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

    __slots__ = ("config", "_next_free", "_bytes_per_cycle", "_latency_cycles")

    def __init__(self, config: SystemConfig,
                 bytes_per_cycle: Optional[float] = None,
                 latency_cycles: Optional[int] = None):
        self.config = config
        self._next_free = 0
        # link_bytes_per_cycle / link_latency_cycles are @property chains on
        # the config; resolve them once.  A heterogeneous
        # link_profile hands individual channels their own values.
        self._bytes_per_cycle = (
            config.link_bytes_per_cycle if bytes_per_cycle is None
            else bytes_per_cycle
        )
        self._latency_cycles = (
            config.link_latency_cycles if latency_cycles is None
            else latency_cycles
        )

    def serialization_cycles(self, nbytes: int) -> int:
        """Cycles to clock ``nbytes`` onto the channel (at least one)."""
        return max(int(math.ceil(nbytes / self._bytes_per_cycle)), 1)

    def reserve(self, now: int, nbytes: int) -> int:
        """Queue behind earlier packets, serialize, propagate: the packet's
        latency in cycles.

        The reference packet path (:func:`repro.testing.per_hop_transfer`)
        calls this once per link on a route; :class:`Interconnect` runs the
        same step inline from a packet plan and books the traffic.
        """
        serialization = self.serialization_cycles(nbytes)
        start = self._next_free
        if now > start:
            start = now
        self._next_free = start + serialization
        return (start - now) + serialization + self._latency_cycles


class Interconnect:
    """The whole fabric: one crossbar per unit, a routed link topology.

    The :class:`~repro.sim.topo.Topology` decides the physical channels and
    each pair's pristine route; this class owns one :class:`Link` per
    channel (so routes that share a channel share its reservation queue)
    and one packet plan per ``(src, dst, nbytes)`` (:meth:`_packet_plan`):
    the one place that decides a packet's zero-wait limit, crossbars,
    route, per-hop timing and traffic.

    Fault state lives here too: :meth:`fail_link` (driven by
    :meth:`FaultPlan.arm <repro.sim.topo.faults.FaultPlan.arm>` timers)
    marks a channel dead for the rest of the run and drops every memoized
    route and plan; each pair then keeps its pristine route if it
    survives, else takes the shortest surviving path (:meth:`_resolve`).
    A fault that disconnects live units raises
    :class:`FabricPartitionedError` at injection — loudly, never as a hang.
    """

    __slots__ = ("config", "stats", "crossbars", "topology", "_links",
                 "_profiles", "_dead_channels", "_down_since", "_resolved",
                 "_packets", "_plans")

    def __init__(self, config: SystemConfig, stats: SystemStats):
        self.config = config
        self.stats = stats
        decay_memo: Dict[int, float] = {}
        self.crossbars = [Crossbar(config, u, decay_memo)
                          for u in range(config.num_units)]
        self.topology: Topology = build_topology(config)
        self._links: Dict[Channel, Link] = {}
        self._profiles = self._build_profiles(config)
        self._dead_channels: Set[Channel] = set()
        self._down_since: Dict[Channel, int] = {}
        #: (src, dst) -> (links, extra_hops) of the pair's current route.
        self._resolved: Dict[Tuple[int, int], Tuple] = {}
        #: ``[src][dst]`` -> {nbytes: the packet's plan}
        #: (:meth:`_packet_plan`).
        units = range(config.num_units)
        self._packets: List[List[Dict[int, tuple]]] = [
            [{} for _ in units] for _ in units]
        #: (src, dst, request_bytes, response_bytes) -> the pair's burst
        #: plan (:meth:`_burst_plan`), read by :meth:`round_trips`.
        self._plans: Dict[Tuple[int, int, int, int], tuple] = {}

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
    def _resolve(self, src_unit: int, dst_unit: int) -> Tuple:
        """(links, extra_hops) of one pair's current route (memoized).

        The pristine route while none of its channels is dead, else the
        shortest surviving path (:meth:`Topology.fallback_route
        <repro.sim.topo.base.Topology.fallback_route>`), which counts a
        ``reroute`` once per pair per fault epoch: every failure clears
        the memo.
        """
        pristine = self.topology.route(src_unit, dst_unit)
        dead = self._dead_channels
        route = pristine
        if any(channel in dead for channel in pristine):
            route = self.topology.fallback_route(src_unit, dst_unit, dead)
            if route is None:
                raise FabricPartitionedError(
                    f"no surviving route {src_unit} -> {dst_unit} on the "
                    f"{self.topology.name!r} fabric ({len(dead)} dead "
                    "channels)"
                )
            self.stats.reroutes += 1
        extra = len(route) - len(pristine)
        resolved = (tuple(self._link_for(channel) for channel in route),
                    extra if extra > 0 else 0)
        self._resolved[(src_unit, dst_unit)] = resolved
        return resolved

    def _routed(self, src_unit: int, dst_unit: int) -> Tuple:
        """(links, extra_hops) of one pair's current route."""
        resolved = self._resolved.get((src_unit, dst_unit))
        if resolved is None:
            resolved = self._resolve(src_unit, dst_unit)
        return resolved

    def remote_hops(self, src_unit: int, dst_unit: int) -> int:
        """Physical links a ``src -> dst`` transfer crosses (0 if local).

        On a faulted fabric this is the current (possibly detoured) route.
        """
        if src_unit == dst_unit:
            return 0
        return len(self._routed(src_unit, dst_unit)[0])

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
        self._dead_channels.add(channel)
        self._down_since[channel] = now
        self._resolved.clear()
        for row in self._packets:
            for plans in row:
                plans.clear()
        self._plans.clear()
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

        The one packet path, used by cores, SEs, and memory controllers, on
        pristine and faulted fabrics alike.  A local packet crosses its
        unit's crossbar.  A remote one crosses the source crossbar, reserves
        every physical link on its route in sequence — the packet cannot
        occupy hop *k+1* before it clears hop *k* — so both contention
        (shared channels) and distance (route length) shape the latency,
        then crosses the destination crossbar.  Route, crossbars, per-hop
        serialization and latency, zero-wait limit and traffic all come
        from the packet's plan (:meth:`_packet_plan`); each crossbar counts
        the payload once, the fabric counts it once more across units, and
        ``link_bit_hops`` (plus ``detour_bit_hops`` on a detour) counts
        every traversed link for the energy model.

        Both crossbar steps (:meth:`Crossbar.queue_wait`) and every link
        reservation (:meth:`Link.reserve`) run as inline arithmetic, as in
        :meth:`round_trips`; those methods stay the definitions that
        :func:`repro.testing.per_hop_transfer` composes and
        ``tests/test_transfer_path.py`` checks this path against.  A
        crossbar step whose load estimate is at most the plan's limit,
        ``0.5 * bpc / service``, calls no :meth:`Crossbar.wait_cycles`: its
        wait is provably 0 (see :class:`Crossbar`), which is every step the
        e2ebench workloads make.
        """
        plan = self._packets[src_unit][dst_unit].get(nbytes)
        if plan is None:
            plan = self._packet_plan(src_unit, dst_unit, nbytes)
        limit, xbar, dst, hops, inside, across, link_bits, detour_bits = plan
        stats = self.stats
        stats.bytes_inside_units += inside
        # Source crossbar: Crossbar.queue_wait, inline.
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
            latency += xbar.wait_cycles(rate, nbytes)
        if dst is None:
            return latency
        # Each link on the route: Link.reserve, inline.
        t = now + latency
        for link, serialization, hop_latency in hops:
            start = link._next_free
            if t > start:
                start = t
            start += serialization
            link._next_free = start
            t = start + hop_latency
        # Destination crossbar (same config, so same bandwidth and base).
        elapsed = t - dst._last_time
        if elapsed < 1:
            elapsed = 1
        decay = dst._decay_cache.get(elapsed)
        if decay is None:
            decay = dst._decay(elapsed)
        rate = dst._rate * decay + (nbytes / elapsed) * (1.0 - decay)
        dst._rate = rate
        dst._last_time = t
        latency = (t - now) + dst._base_cycles
        if rate > limit:
            latency += dst.wait_cycles(rate, nbytes)
        stats.bytes_across_units += across
        stats.link_bit_hops += link_bits
        if detour_bits:
            stats.detour_bit_hops += detour_bits
        return latency

    def _packet_plan(self, src_unit: int, dst_unit: int, nbytes: int) -> tuple:
        """Everything one ``nbytes`` packet from ``src_unit`` to
        ``dst_unit`` needs on the current fabric, memoized per ``(src,
        dst, nbytes)`` in ``_packets[src][dst]`` until a channel fails.

        The load estimate at or below which its crossbar wait is 0 (the
        bound in :class:`Crossbar`; every crossbar is built from one
        config, so one bandwidth); the source and destination crossbars
        (``None`` for a local packet); the ``(link, serialization,
        latency)`` hops of the route :meth:`_routed` resolves; and the
        traffic it books: bytes inside units (one per crossbar crossed),
        bytes across units, link bit-hops and detour bit-hops.
        """
        plans = self._packets[src_unit][dst_unit]
        plan = plans.get(nbytes)
        if plan is not None:
            return plan
        bpc = self.config.crossbar_bytes_per_cycle
        service = nbytes / bpc
        if service < 1.0:
            service = 1.0
        limit = 0.5 * bpc / service
        src = self.crossbars[src_unit]
        if src_unit == dst_unit:
            plan = (limit, src, None, (), nbytes, 0, 0, 0)
        else:
            links, extra = self._routed(src_unit, dst_unit)
            hops = tuple((link, link.serialization_cycles(nbytes),
                          link._latency_cycles) for link in links)
            bits = 8 * nbytes
            plan = (limit, src, self.crossbars[dst_unit], hops, 2 * nbytes,
                    nbytes, bits * len(links), bits * extra)
        plans[nbytes] = plan
        return plan

    def charge_packets(self, src_unit: int, dst_unit: int, nbytes: int,
                       count: int) -> None:
        """Book the traffic of ``count`` ``nbytes`` packets from
        ``src_unit`` to ``dst_unit`` on their current route, without
        moving them: no crossbar, link or timing state changes (elided
        spin polls, see :class:`~repro.sim.syncif.SpinWaitMixin`)."""
        inside, across, link_bits, detour_bits = self._packet_plan(
            src_unit, dst_unit, nbytes)[4:]
        stats = self.stats
        stats.bytes_inside_units += inside * count
        stats.bytes_across_units += across * count
        stats.link_bit_hops += link_bits * count
        stats.detour_bit_hops += detour_bits * count

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

        Everything a burst reads that does not change while no channel
        fails comes from the pair's burst plan (:meth:`_burst_plan`, built
        on the first burst of each ``(src, dst, request_bytes,
        response_bytes)`` from the request's and the response's packet
        plans): both zero-wait limits, both crossbars, the two routes as
        one tuple of links with their serialization and latency tuples and
        the out and back hop ranges into it, and the traffic one exchange
        books.  One loop resolves the exchanges.  The crossbar
        load estimates, the links' next-free times (one list, the only
        thing a remote call builds) and the bank's next-free time live in
        locals, written back once after the last exchange, when the
        traffic of the whole burst is booked from the plan too.  An
        exchange runs the steps of :meth:`transfer_latency` inline: source
        crossbar, each link out, destination crossbar, DRAM, destination
        crossbar, each link back, source crossbar.  A local home has no
        links and skips all but the two source-crossbar steps and the
        DRAM.  A crossbar step at or below its
        packet's zero-wait limit waits 0;
        only one above it calls :meth:`Crossbar.wait_cycles`.  The first
        DRAM access goes through ``dram.access``, which opens ``addr``'s
        row; nothing else runs during the burst, so every later access is a
        row hit on that bank, resolved inline (wait for the bank, the hit
        latency, then the write-recovery hold on a store).

        Fast-forward.  An exchange that waits nowhere is a pure function of
        its start state relative to the cursor: each crossbar's cycles
        since its last step, each link's and the bank's next-free time
        minus the cursor.  Each exchange records that state as one flat
        tuple, compared with the previous exchange's.  The load estimates
        enter only through the zero-wait predicate ``rate > limit``.  An
        estimate update ``r * d + (n / e) * (1 - d)`` is a convex
        combination of ``r`` and the step's ``n / e``, so it stays under
        any bound both lie under, up to its three roundings, a factor of at
        most ``(1 + u)**3`` with ``u = 2**-53``.  So once an exchange
        waited nowhere, ended in the relative state it started in, and left
        both estimates and every step's ``n / e`` below ``safe =
        min(req_limit, resp_limit) * (1 - count * 2**-50)``, no later step
        of the burst can wait: the fewer than ``count`` exchanges left make
        two updates per crossbar each, and ``(1 - 8 * count * u) * (1 +
        u)**(6 * count + 2)`` (two roundings more for ``safe`` itself) is
        below 1.  The rest of the burst then repeats that exchange with no
        limit check: one loop runs, two repeats per iteration, ``r = (r *
        d1 + i1) * d2 + i2`` for each crossbar with its two steps' decays
        and injections, and the cursor, both crossbars' last-step times,
        every link's next-free time and the bank's shift by whole periods.
        The floats are the same expressions in the same order and the
        shifts exact integers, so the result is bit-identical to resolving
        every exchange.  An exchange that waited never seeds the
        fast-forward: a wait before its first link leaves no trace in the
        relative state, and its period includes a wait the repeats would
        not pay.  A bakery scan gets there after two or three exchanges; a
        burst that does not goes on exchange by exchange.

        On a faulted fabric a detour's out and back routes may share a
        link, which the burst loop's one next-free time per route hop does
        not model, so a remote burst there resolves every transfer through
        :meth:`transfer_latency` and every access through ``dram.access``
        instead, and reads no plan.
        """
        if count <= 0:
            return 0
        cursor = now
        local = src_unit == dst_unit
        access = dram.access
        if not local and self._dead_channels:
            transfer = self.transfer_latency
            for _ in range(count):
                latency = transfer(src_unit, dst_unit, cursor, request_bytes)
                latency += access(addr, is_write, cursor + latency)
                latency += transfer(dst_unit, src_unit, cursor + latency,
                                    response_bytes)
                cursor += latency if latency > 1 else 1
            return cursor - now
        plan = self._plans.get((src_unit, dst_unit, request_bytes,
                                response_bytes))
        if plan is None:
            plan = self._burst_plan(src_unit, dst_unit, request_bytes,
                                    response_bytes)
        (req_limit, resp_limit, limit, src, dst, links, ser, lat, out_hops,
         back_hops, inside_bytes, across_bytes, link_bits) = plan
        # DRAM: the bank's next-free time is unknown (None) until the first
        # access opens the row; each later access is a row hit held for
        # ``hit`` plus ``recovery`` on a store.
        bank = dram.bank_of(addr)
        bank_next_free = dram._next_free
        bank_free = None
        hit = dram._hit_cycles
        recovery = dram._wr_cycles if is_write else 0
        # Every crossbar is built from one config: one base latency.
        base = src._base_cycles
        src_rate, src_last = src._rate, src._last_time
        src_memo, src_decay = src._decay_cache, src._decay
        if not local:
            dst_rate, dst_last = dst._rate, dst._last_time
            dst_memo, dst_decay = dst._decay_cache, dst._decay
            # Each link's next-free time: the out route's, then the way
            # back's.
            free = [link._next_free for link in links]
        # The relative state the last exchange ended in (the next one's
        # start state), and the fast-forward's shift of every time.
        entry = None
        shift = 0
        for done in range(1, count + 1):
            begin = cursor
            waited = False
            # request: source crossbar step
            e1 = cursor - src_last
            if e1 < 1:
                e1 = 1
            d1 = src_memo.get(e1)
            if d1 is None:
                d1 = src_decay(e1)
            i1 = (request_bytes / e1) * (1.0 - d1)
            src_rate = src_rate * d1 + i1
            src_last = cursor
            t = cursor + base
            if src_rate > req_limit:
                waited = True
                t += src.wait_cycles(src_rate, request_bytes)
            if not local:
                # request: each link on the route
                for i in out_hops:
                    start = free[i]
                    if t > start:
                        start = t
                    start += ser[i]
                    free[i] = start
                    t = start + lat[i]
                # request: destination crossbar step
                e2 = t - dst_last
                if e2 < 1:
                    e2 = 1
                d2 = dst_memo.get(e2)
                if d2 is None:
                    d2 = dst_decay(e2)
                i2 = (request_bytes / e2) * (1.0 - d2)
                dst_rate = dst_rate * d2 + i2
                dst_last = t
                t += base
                if dst_rate > req_limit:
                    waited = True
                    t += dst.wait_cycles(dst_rate, request_bytes)
            if bank_free is None:
                t += access(addr, is_write, t)
                bank_free = bank_next_free[bank]
            else:
                if bank_free > t:
                    t = bank_free
                t += hit
                bank_free = t + recovery
            if not local:
                # response: destination crossbar step
                e3 = t - dst_last
                if e3 < 1:
                    e3 = 1
                d3 = dst_memo.get(e3)
                if d3 is None:
                    d3 = dst_decay(e3)
                i3 = (response_bytes / e3) * (1.0 - d3)
                dst_rate = dst_rate * d3 + i3
                dst_last = t
                t += base
                if dst_rate > resp_limit:
                    waited = True
                    t += dst.wait_cycles(dst_rate, response_bytes)
                # response: each link on the way back
                for i in back_hops:
                    start = free[i]
                    if t > start:
                        start = t
                    start += ser[i]
                    free[i] = start
                    t = start + lat[i]
            # response: source crossbar step
            e4 = t - src_last
            if e4 < 1:
                e4 = 1
            d4 = src_memo.get(e4)
            if d4 is None:
                d4 = src_decay(e4)
            i4 = (response_bytes / e4) * (1.0 - d4)
            src_rate = src_rate * d4 + i4
            src_last = t
            t += base
            if src_rate > resp_limit:
                waited = True
                t += src.wait_cycles(src_rate, response_bytes)
            cursor = t if t > cursor else cursor + 1
            if local:
                state = (cursor - src_last, bank_free - cursor)
            else:
                state = (cursor - src_last, bank_free - cursor,
                         cursor - dst_last, *map(cursor.__rsub__, free))
            if waited or state != entry:
                entry = state
                continue
            safe = limit * (1.0 - count * 2.0 ** -50)
            if not (src_rate < safe and request_bytes / e1 < safe
                    and response_bytes / e4 < safe
                    and (local or (dst_rate < safe
                                   and request_bytes / e2 < safe
                                   and response_bytes / e3 < safe))):
                continue
            # Fast-forward: the rest of the burst repeats this exchange,
            # two repeats per iteration.
            repeats = count - done
            if local:
                for _ in range(repeats >> 1):
                    src_rate = (src_rate * d1 + i1) * d4 + i4
                    src_rate = (src_rate * d1 + i1) * d4 + i4
            else:
                for _ in range(repeats >> 1):
                    src_rate = (src_rate * d1 + i1) * d4 + i4
                    dst_rate = (dst_rate * d2 + i2) * d3 + i3
                    src_rate = (src_rate * d1 + i1) * d4 + i4
                    dst_rate = (dst_rate * d2 + i2) * d3 + i3
                if repeats & 1:
                    dst_rate = (dst_rate * d2 + i2) * d3 + i3
            if repeats & 1:
                src_rate = (src_rate * d1 + i1) * d4 + i4
            shift = repeats * (cursor - begin)
            cursor += shift
            src_last += shift
            bank_free += shift
            if not local:
                dst_last += shift
            break
        src._rate, src._last_time = src_rate, src_last
        if not local:
            dst._rate, dst._last_time = dst_rate, dst_last
            for link, free_at in zip(links, free):
                link._next_free = free_at + shift
        bank_next_free[bank] = bank_free
        hits = count - 1
        dram_stats = dram.stats
        dram_stats.dram_row_hits += hits
        if is_write:
            dram_stats.dram_writes += hits
        else:
            dram_stats.dram_reads += hits
        stats = self.stats
        stats.bytes_inside_units += inside_bytes * count
        if not local:
            stats.bytes_across_units += across_bytes * count
            stats.link_bit_hops += link_bits * count
        return cursor - now

    def _burst_plan(self, src_unit: int, dst_unit: int, request_bytes: int,
                    response_bytes: int) -> tuple:
        """What every :meth:`round_trips` burst of one pair and one pair of
        packet sizes reads, built once from the request's and the
        response's packet plans (:meth:`_packet_plan`) and memoized per
        ``(src, dst, request_bytes, response_bytes)`` until a channel
        fails.

        The request's and response's zero-wait limits and the lower of the
        two; both crossbars (``None`` for the remote one of a local home);
        the out and back routes as one tuple of links, their serialization
        cycles (request size out, response size back) and latency tuples,
        and the out and back hop ranges into those tuples; and the traffic
        one exchange books, its two packets' sums: bytes inside units,
        bytes across units and link bit-hops.
        """
        request = self._packet_plan(src_unit, dst_unit, request_bytes)
        response = self._packet_plan(dst_unit, src_unit, response_bytes)
        (req_limit, src, dst, out, req_inside, req_across,
         req_bits, _) = request
        (resp_limit, _, _, back, resp_inside, resp_across,
         resp_bits, _) = response
        hops = out + back
        plan = self._plans[(src_unit, dst_unit, request_bytes,
                            response_bytes)] = (
            req_limit, resp_limit, min(req_limit, resp_limit), src, dst,
            tuple(hop[0] for hop in hops), tuple(hop[1] for hop in hops),
            tuple(hop[2] for hop in hops), range(len(out)),
            range(len(out), len(hops)), req_inside + resp_inside,
            req_across + resp_across, req_bits + resp_bits)
        return plan
