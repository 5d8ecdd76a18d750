"""``Interconnect.transfer_latency`` against the per-hop reference.

``transfer_latency`` is the one packet path: it does the crossbar traffic
accounting, the route lookup, the link loop and the destination crossbar
step inline.  :func:`repro.testing.per_hop_transfer` composes the same
packet from :meth:`Crossbar.queue_wait`, each :meth:`Link.reserve` and
:func:`charge_transfers`.  After every packet the two must agree on the
latency, on every counter and on the crossbar,
link and DRAM state, on every fabric — pristine, routed, faulted and
heterogeneous.

The burst tests compare :meth:`MemorySystem.uncacheable_burst` with a loop
of single accesses, which themselves go through ``transfer_latency``; the
last tests here repeat that comparison with the per-hop reference patched
in, so the inlined burst loop is also checked against code it shares
nothing with, on bursts whose crossbar estimates fall below the zero-wait
limit mid-burst and on bursts whose estimates rise past it.  Long scans
cover the burst's fast-forward: estimates that rise past a limit in a
repeating exchange, estimates that fall until it starts, an exchange that
waited yet left the same relative state, which must never start it, a step
whose ``n / e`` sits just above its wait-free threshold, and scans of ten
thousand accesses.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import ndp_2_5d
from repro.sim.memsys import REQUEST_BYTES, MemorySystem
from repro.sim.network import Interconnect
from repro.testing import (
    FABRICS, build_system, fabric_snapshot, per_access_burst, per_hop_transfer)

#: fabric -> (ndp_2_5d overrides, channel failed at cycle 0 or None).
CASES = {name: (overrides, None) for name, overrides in FABRICS.items()}
CASES["faulted_ring"] = (dict(num_units=4, topology="ring"), (0, 1))

#: packet sizes: zero-byte, header, word payloads, a cache line, a bulk
#: packet that saturates the crossbar estimate and queues on links.
SIZES = (0, 8, 16, 24, 64, 6400)


def make_system(case, **config):
    overrides, failed = CASES[case]
    system = build_system(
        ndp_2_5d(cores_per_unit=2, client_cores_per_unit=2, **overrides,
                 **config),
        "bakery")
    if failed is not None:
        system.interconnect.fail_link(failed, now=0)
    return system


def replay(case, packets):
    """Drive the same packet sequence through ``transfer_latency`` on one
    system and through the per-hop reference on another, comparing
    latency and state after every packet."""
    fused, reference = make_system(case), make_system(case)
    units = fused.config.num_units
    now = 0
    for index, (src, dst, gap, nbytes) in enumerate(packets):
        now += gap
        src, dst = src % units, dst % units
        latency = fused.interconnect.transfer_latency(src, dst, now, nbytes)
        expected = per_hop_transfer(reference.interconnect, src, dst, now,
                                    nbytes)
        assert latency == expected, (index, src, dst, now, nbytes)
        assert fabric_snapshot(fused) == fabric_snapshot(reference), index
    return fused


def random_packets(seed, count=120):
    rng = random.Random(seed)
    return [(rng.randrange(8), rng.randrange(8),
             rng.choice((0, 0, 1, 3, 17, 40, 600, 2_000_000)),
             rng.choice(SIZES))
            for _ in range(count)]


class TestTransferMatchesPerHop:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_random_traffic(self, case):
        system = replay(case, random_packets(seed=len(case)))
        assert system.stats.bytes_across_units > 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_pair_local_and_remote(self, case):
        units = CASES[case][0]["num_units"]
        replay(case, [(src, dst, 5, 64)
                      for src in range(units) for dst in range(units)])

    def test_zero_byte_packets(self):
        system = replay("ring", [(0, 2, 0, 0), (2, 2, 0, 0), (3, 1, 1, 0)])
        assert system.stats.bytes_across_units == 0
        assert system.stats.bytes_inside_units == 0

    def test_faulted_ring_counts_detours(self):
        system = replay("faulted_ring", [(0, 1, 10, 64), (1, 0, 10, 64)])
        assert system.stats.detour_bit_hops > 0
        assert system.stats.reroutes > 0

    def test_packet_planned_before_a_fault_takes_the_detour(self):
        # The (0, 1, 64) packet is planned over the (0, 1) channel; once
        # that channel dies the same packet must go the long way round the
        # ring, book its detour bits, and still match the reference.
        fused, reference = make_system("ring"), make_system("ring")
        now = 0
        for fail in (False, False, True, False):
            now += 10
            if fail:
                for system in (fused, reference):
                    system.interconnect.fail_link((0, 1), now)
                continue
            before = fused.stats.link_bit_hops
            latency = fused.interconnect.transfer_latency(0, 1, now, 64)
            assert latency == per_hop_transfer(reference.interconnect, 0, 1,
                                               now, 64)
            assert fabric_snapshot(fused) == fabric_snapshot(reference)
        # three links of the 4-unit ring, two of them a detour
        assert fused.stats.link_bit_hops - before == 3 * 64 * 8
        assert fused.stats.detour_bit_hops == 2 * 64 * 8
        assert fused.stats.reroutes == 1

    def test_delegations_share_the_packet_path(self):
        fused, reference = make_system("mesh2d"), make_system("mesh2d")
        assert (fused.interconnect.remote_latency(0, 7, 3, 64)
                == per_hop_transfer(reference.interconnect, 0, 7, 3, 64))
        assert (fused.interconnect.local_latency(5, 9, 16)
                == per_hop_transfer(reference.interconnect, 5, 5, 9, 16))
        assert fabric_snapshot(fused) == fabric_snapshot(reference)

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(sorted(CASES)),
           packets=st.lists(
               st.tuples(st.integers(0, 7), st.integers(0, 7),
                         st.sampled_from((0, 1, 2, 50, 3000, 2_000_000)),
                         st.sampled_from(SIZES)),
               min_size=1, max_size=30))
    def test_random_sequences(self, case, packets):
        replay(case, packets)


def burst_against_per_hop(monkeypatch, case, home, size, flood=(),
                          packets=40, quiet=0, stores=20, loads=100,
                          latencies=None, **overrides):
    """One scan through the inlined burst loop and the same accesses issued
    one at a time over the per-hop reference: (cycles, fabric state) each.

    After a random warm-up, ``quiet`` idle cycles pass; then ``flood``
    names the endpoint crossbars (``"src"``, ``"home"``) that ``packets``
    6400-byte packets, one a cycle, load just before the scan.
    ``overrides`` go to the config, and ``latencies``, if given, collects
    each reference access's cycles.
    """
    results = []
    for patched in (False, True):
        with monkeypatch.context() as patch:
            if patched:
                patch.setattr(Interconnect, "transfer_latency",
                              per_hop_transfer)
            system = make_system(case, **overrides)
            rng = random.Random(7)
            units = system.config.num_units
            addrs = [system.addrmap.alloc(u, 64) for u in range(units)]
            now = 0
            for _ in range(30):
                now += rng.randrange(0, 40)
                system.memsys.access(rng.randrange(units), None,
                                     rng.choice(addrs), rng.random() < 0.3,
                                     cacheable=False, now=now)
            # "mid" is unit 2: across the profiled fabric's slow (0, 2) link.
            target = {"local": 0, "mid": 2, "far": units - 1}[home]
            now += quiet
            # Flooded crossbars start the burst with their utilization
            # estimate above the M/D/1 cap; it can decay below the
            # zero-wait limit mid-burst.
            roles = {"src": 0, "home": target}
            for _ in range(packets if flood else 0):
                now += 1
                for unit in {roles[role] for role in flood}:
                    system.interconnect.transfer_latency(unit, unit, now, 6400)
            addr = system.addrmap.alloc(target, 64)
            issue = per_access_burst if patched else MemorySystem.uncacheable_burst
            if patched and latencies is not None:
                access = MemorySystem.access

                def recorded(memsys, *args, **kwargs):
                    latency = access(memsys, *args, **kwargs)
                    latencies.append(latency)
                    return latency

                patch.setattr(MemorySystem, "access", recorded)
            cycles = issue(system.memsys, 0, addr, now, stores=stores,
                           loads=loads, size=size, for_sync=True)
            results.append((cycles, fabric_snapshot(system)))
    return results


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("home", ["local", "mid", "far"])
@pytest.mark.parametrize("size", [8, 2048])
def test_burst_matches_per_hop_accesses(monkeypatch, case, home, size):
    """A scan through the inlined burst loop equals the same accesses issued
    one at a time over the per-hop reference."""
    # 2 KiB words load the crossbars enough for M/D/1 waits to show, and
    # give requests and responses different service times.
    fused, reference = burst_against_per_hop(monkeypatch, case, home, size,
                                             flood=("src", "home"))
    assert fused == reference


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("home", ["local", "far"])
def test_burst_rising_past_zero_wait_limit(monkeypatch, case, home):
    """A burst that starts on idle crossbars and loads them itself: its
    first steps take the zero-wait path and later ones the M/D/1 formula."""
    # After a quiet spell the burst starts at a near-zero estimate and its
    # own packets push it past the zero-wait limit.
    fused, reference = burst_against_per_hop(monkeypatch, case, home, 2048,
                                             quiet=1_000_000)
    assert fused == reference


@pytest.mark.parametrize("case", sorted(FABRICS))
@pytest.mark.parametrize("home", ["local", "far"])
def test_burst_rising_past_zero_wait_limit_in_steady_state(monkeypatch, case,
                                                           home):
    """512-byte words on idle crossbars: the scan's first exchanges take
    the zero-wait path and settle into one repeated exchange, whose own
    528-byte responses then push the estimates past the response limit,
    and on to M/D/1 waits, so the burst must not fast-forward.  Fast
    links keep a far scan's period short enough for that."""
    fused, reference = burst_against_per_hop(
        monkeypatch, case, home, 512, quiet=1_000_000, stores=0, loads=200,
        link_latency_ns=4.0, link_bandwidth_gbps=1000.0)
    assert fused == reference


@pytest.mark.parametrize("case", sorted(FABRICS))
@pytest.mark.parametrize("home,packets", [("local", 25), ("far", 400)])
def test_burst_falling_below_zero_wait_limit(monkeypatch, case, home,
                                             packets):
    """A long 8-byte scan on 500 ns links from idle links and banks, just
    after both crossbars were flooded: the first exchanges wait, then the
    estimates decay below the zero-wait limits and the scan settles into
    one repeated exchange (the burst's fast-forward).  A far scan's
    long period decays the estimates fast, so it starts from a bigger
    flood."""
    latencies = []
    fused, reference = burst_against_per_hop(
        monkeypatch, case, home, 8, flood=("src", "home"), packets=packets,
        quiet=1_000_000, stores=0, loads=160, latencies=latencies,
        link_latency_ns=500.0)
    assert fused == reference
    # Every access after the first is a row hit, so only crossbar waits
    # tell them apart.
    settled = latencies[-1]
    assert set(latencies[-20:]) == {settled}
    # mesh2d's far home is four 500 ns hops away: the first exchange alone
    # takes long enough to decay any flood below the limits.
    if (case, home) != ("mesh2d", "far"):
        assert sum(latency > settled for latency in latencies[1:]) >= 3


@pytest.mark.parametrize("case,home,packets", [
    ("all_to_all", "far", 350), ("profiled", "far", 350), ("ring", "far", 350),
    # two 500 ns hops; four make the period too long for capped waits to
    # last two exchanges
    ("mesh2d", "mid", 800),
])
def test_waiting_exchange_never_seeds_steady_state(monkeypatch, case, home,
                                                   packets):
    """Only the home crossbar is flooded.  On 500 ns links two exchanges
    pay the same capped M/D/1 waits there, so the second one ends in the
    relative state it started in, yet the next exchange is below every
    zero-wait limit: repeating the waiting exchange would charge waits
    the scan no longer pays."""
    fused, reference = burst_against_per_hop(
        monkeypatch, case, home, 8, flood=("home",), packets=packets,
        quiet=1_000_000, stores=0, loads=100, link_latency_ns=500.0)
    assert fused == reference


class _CountingMemo(dict):
    """A crossbar decay memo that counts lookups: one per resolved step."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


def burst_and_reference(case, home, stores=0, loads=160, **config):
    """A fresh system's scan from unit 0 through ``uncacheable_burst`` and
    through per-access ``access`` calls: (cycles, fabric state) each, and
    the steps the burst resolved at unit 0's crossbar."""
    results = []
    for issue in (MemorySystem.uncacheable_burst, per_access_burst):
        system = make_system(case, **config)
        units = system.config.num_units
        addr = system.addrmap.alloc({"local": 0, "far": units - 1}[home], 64)
        # Unit 0's crossbar gets a counting memo of its own in place of the
        # one its interconnect's crossbars share.
        memo = system.interconnect.crossbars[0]._decay_cache = _CountingMemo()
        cycles = issue(system.memsys, 0, addr, 100, stores=stores,
                       loads=loads, size=8, for_sync=True)
        results.append((cycles, fabric_snapshot(system)))
        if issue is MemorySystem.uncacheable_burst:
            steps = memo.lookups
    return results, steps


@pytest.mark.parametrize("case", sorted(FABRICS))
@pytest.mark.parametrize("home", ["local", "far"])
def test_step_just_above_wait_free_threshold(case, home):
    """In a repeating zero-wait scan the request's source-crossbar step
    comes ``base`` cycles after the previous response's, so its ``n / e``
    is ``16 / 3``.  At 16 bytes/cycle that equals the 24-byte responses'
    zero-wait limit: just above the fast-forward's threshold, which sits a
    rounding margin below the limit, while every estimate stays far below
    it.  The scan must go on exchange by exchange (two source-crossbar
    steps each) and still equal the per-access reference; a hair more
    bandwidth puts the step below the threshold and fast-forwards."""
    loads = 160
    system = make_system(case, crossbar_bytes_per_cycle=16.0)
    base = system.interconnect.crossbars[0]._base_cycles
    limit = system.interconnect._packet_plan(0, 0, REQUEST_BYTES + 8)[0]
    assert REQUEST_BYTES / base == limit == 16 / 3
    (fused, reference), steps = burst_and_reference(
        case, home, loads=loads, crossbar_bytes_per_cycle=16.0)
    assert fused == reference
    assert steps == 2 * loads
    (fused, reference), steps = burst_and_reference(
        case, home, loads=loads, crossbar_bytes_per_cycle=16.0 * (1 + 1e-9))
    assert fused == reference
    assert steps < 2 * loads


@pytest.mark.parametrize("case", ["all_to_all", "mesh2d"])
@pytest.mark.parametrize("home", ["local", "far"])
def test_ten_thousand_access_scan(case, home):
    """A long fast-forward repeats the same rounded update thousands of
    times: the estimates must still equal the per-access reference's
    bit for bit."""
    (fused, reference), steps = burst_and_reference(
        case, home, stores=50, loads=10_000)
    assert fused == reference
    assert steps < 100


@pytest.mark.parametrize("case", ["all_to_all", "profiled", "ring"])
@pytest.mark.parametrize("packets", [70, 80, 95])
def test_waiting_exchange_never_fast_forwards(monkeypatch, case, packets):
    """64-byte stores: the 80-byte requests' zero-wait limit (6.4) lies
    below the 16-byte responses' (16).  The source crossbar, flooded just
    before the scan, decays through that gap, so an exchange waits at its
    request step alone, before the first link, where the wait leaves no
    trace in the relative state, and ends with every estimate below the
    fast-forward threshold.  Repeating it would charge a wait the next
    exchanges no longer pay.  10-cycle hops keep the request step's
    ``n / e`` (80 / 21) below the threshold."""
    fused, reference = burst_against_per_hop(
        monkeypatch, case, "far", 64, flood=("src",), packets=packets,
        quiet=1_000_000, stores=40, loads=0, link_latency_ns=500.0,
        hop_cycles=10)
    assert fused == reference


class TestElidedPollTraffic:
    """``SpinWaitMixin._charge_elided_polls`` books what the same polls
    would have booked as real request/response packets: each over its own
    current route, detours included."""

    TRAFFIC = ("bytes_inside_units", "bytes_across_units", "link_bit_hops",
               "detour_bit_hops", "reroutes")

    def polls(self, case, src, home, count, elided):
        system = make_system(case)
        if elided:
            core = next(c for c in system.cores if c.unit_id == src)
            var = system.create_syncvar(unit=home)
            system.mechanism._charge_elided_polls(core, var, count, 18, 10, 2)
        else:
            transfer = system.interconnect.transfer_latency
            for poll in range(count):
                transfer(src, home, 100 * poll, 18)
                transfer(home, src, 100 * poll + 50, 10)
        stats = system.stats
        return {name: getattr(stats, name) for name in self.TRAFFIC}

    @pytest.mark.parametrize("case,src,home", [
        ("faulted_ring", 0, 1), ("ring", 0, 1), ("ring", 0, 2),
        ("mesh2d", 0, 7), ("mesh2d", 3, 3)])
    def test_elided_polls_book_the_real_polls_traffic(self, case, src, home):
        elided = self.polls(case, src, home, 10, elided=True)
        assert elided == self.polls(case, src, home, 10, elided=False)
        if case == "faulted_ring":
            # the 18 B requests detour over three links, the 10 B responses
            # take their own live channel
            assert elided["link_bit_hops"] == 10 * 8 * (3 * 18 + 10)
            assert elided["detour_bit_hops"] == 10 * 8 * 2 * 18
