"""``MemorySystem.uncacheable_burst`` against the per-access reference.

A burst resolves a run of back-to-back uncacheable accesses (a bakery
doorway or scan) in one call.  It must be indistinguishable from issuing
the same accesses one at a time through :meth:`MemorySystem.access`, each
starting when its predecessor completes: same cycles, same counters, and
the same crossbar, link and DRAM state afterwards, on every fabric.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import api
from repro.sim.config import ndp_2_5d
from repro.sim.dram import DramDevice
from repro.sim.memsys import MemorySystem
from repro.sim.program import Compute

from repro.testing import (
    FABRICS, build_system, fabric_snapshot, per_access_burst)


def make_system(fabric, failed_link=None):
    system = build_system(
        ndp_2_5d(cores_per_unit=2, client_cores_per_unit=2, **FABRICS[fabric]),
        "bakery")
    if failed_link is not None:
        system.interconnect.fail_link(failed_link, now=0)
    return system


def warm_up(system, seed, accesses=40):
    """Background uncacheable traffic between random unit pairs, so the
    burst starts from busy crossbars, queued links and open DRAM rows."""
    rng = random.Random(seed)
    units = system.config.num_units
    addrs = [system.addrmap.alloc(u, 64) for u in range(units)]
    now = 0
    for _ in range(accesses):
        now += rng.randrange(0, 40)
        system.memsys.access(rng.randrange(units), None, rng.choice(addrs),
                             rng.random() < 0.3, cacheable=False, now=now)
    return now


def run_both(fabric, src, home, stores, loads, size=8, seed=0,
             failed_link=None):
    """(cycles, follow-up latency, state) after a burst and after the
    reference loop, each on a fresh system with the same warm-up."""
    results = []
    for issue in (MemorySystem.uncacheable_burst, per_access_burst):
        system = make_system(fabric, failed_link)
        now = warm_up(system, seed)
        addr = system.addrmap.alloc(home, 64)
        cycles = issue(system.memsys, src, addr, now, stores=stores,
                       loads=loads, size=size, for_sync=True)
        # One more access afterwards sees whatever state the burst left.
        follow = system.memsys.access(src, None, addr, False, cacheable=False,
                                      now=now + cycles)
        results.append((cycles, follow, fabric_snapshot(system)))
    return results


class TestBurstMatchesPerAccessLoop:
    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    @pytest.mark.parametrize("route", ["local", "neighbour", "far"])
    def test_scan_is_bit_identical(self, fabric, route):
        units = FABRICS[fabric]["num_units"]
        home = {"local": 0, "neighbour": 1, "far": units - 1}[route]
        burst, reference = run_both(fabric, 0, home, stores=3, loads=24)
        assert burst == reference

    @pytest.mark.parametrize("stores,loads", [(1, 0), (0, 1), (2, 5), (0, 60)])
    def test_store_load_mixes(self, stores, loads):
        burst, reference = run_both("ring", 1, 3, stores, loads, size=16)
        assert burst == reference

    def test_failed_link_detours_match(self):
        burst, reference = run_both("ring", 0, 1, stores=2, loads=10,
                                    failed_link=(0, 1))
        assert burst == reference
        assert burst[2][0].detour_bit_hops > 0

    def test_empty_burst_is_free(self):
        system = make_system("all_to_all")
        addr = system.addrmap.alloc(1, 64)
        before = fabric_snapshot(system)
        assert system.memsys.uncacheable_burst(0, addr, 100) == 0
        assert fabric_snapshot(system) == before

    @settings(max_examples=40, deadline=None)
    @given(fabric=st.sampled_from(sorted(FABRICS)),
           src=st.integers(0, 7), home=st.integers(0, 7),
           stores=st.integers(0, 3), loads=st.integers(0, 30),
           size=st.sampled_from([8, 16, 64]), seed=st.integers(0, 99))
    def test_random_bursts(self, fabric, src, home, stores, loads, size, seed):
        units = FABRICS[fabric]["num_units"]
        burst, reference = run_both(fabric, src % units, home % units,
                                    stores, loads, size, seed)
        assert burst == reference

    @settings(max_examples=40, deadline=None)
    @given(fabric=st.sampled_from(sorted(FABRICS)),
           src=st.integers(0, 7), home=st.integers(0, 7),
           stores=st.integers(0, 3), loads=st.integers(60, 197),
           size=st.sampled_from([8, 16, 64, 512]), seed=st.integers(0, 99))
    def test_random_long_bursts(self, fabric, src, home, stores, loads, size,
                                seed):
        """Bakery-scan lengths (60-200 accesses), where the fast-forward
        resolves most exchanges of a pristine fabric's burst."""
        units = FABRICS[fabric]["num_units"]
        burst, reference = run_both(fabric, src % units, home % units,
                                    stores, loads, size, seed)
        assert burst == reference


def run_bursts(fabric, bursts, prepare=None):
    """Each burst's cycles and the final state, for the burst path and the
    reference, each on a fresh system with every DRAM row closed.

    ``bursts`` lists ``(src, stores, loads, issue)`` tuples to one address
    in unit 1; ``issue`` is an absolute cycle, or None to issue when the
    previous burst completes.  ``prepare(system, addr)`` runs first."""
    results = []
    for issue in (MemorySystem.uncacheable_burst, per_access_burst):
        system = make_system(fabric)
        addr = system.addrmap.alloc(1, 64)
        if prepare is not None:
            prepare(system, addr)
        now, cycles = 100, []
        for src, stores, loads, at in bursts:
            if at is not None:
                now = at
            cycles.append(issue(system.memsys, src, addr, now, stores=stores,
                                loads=loads))
            now += cycles[-1]
        results.append((cycles, fabric_snapshot(system)))
    return results


class TestBurstDramSteps:
    """The DRAM half of a burst: the first access pays the row policy of
    :meth:`DramDevice.access`, every later one is a row hit on that bank."""

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    @pytest.mark.parametrize("src", [0, 1])
    def test_first_access_opens_a_closed_row(self, fabric, src):
        burst, reference = run_bursts(fabric, [(src, 0, 12, None)])
        assert burst == reference
        stats = burst[1][0]
        assert (stats.dram_row_misses, stats.dram_row_hits) == (1, 11)

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_row_conflict_on_first_access(self, fabric):
        def open_other_row(system, addr):
            dram = system.memsys.drams[1]
            other = addr + dram.timing.row_size_bytes * dram.num_banks
            system.memsys.access(1, None, other, False, cacheable=False,
                                 now=0)

        burst, reference = run_bursts(fabric, [(0, 1, 9, None)],
                                      open_other_row)
        assert burst == reference
        stats = burst[1][0]
        assert (stats.dram_row_misses, stats.dram_row_hits) == (2, 9)
        # the conflict costs more than a miss of a closed row
        closed, _ = run_bursts(fabric, [(0, 1, 9, None)])
        assert burst[0][0] > closed[0][0]

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    @pytest.mark.parametrize("src", [0, 1])
    def test_store_bursts_hold_for_write_recovery(self, fabric, src):
        burst, reference = run_bursts(fabric, [(src, 8, 0, None),
                                               (src, 3, 2, None)])
        assert burst == reference
        assert burst[1][0].dram_writes == 11

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_bank_reserved_far_past_the_request(self, fabric):
        def reserve_bank(system, addr):
            dram = system.memsys.drams[1]
            dram._next_free[dram.bank_of(addr)] = 50_000

        burst, reference = run_bursts(fabric, [(0, 2, 6, None)],
                                      reserve_bank)
        assert burst == reference
        assert burst[0][0] > 50_000 - 100

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_two_bursts_to_one_bank(self, fabric):
        # back to back from one core, then one issued from another unit at
        # the first's issue time, queueing behind the bank's reservation
        burst, reference = run_bursts(fabric, [(0, 2, 10, None),
                                               (1, 0, 10, None),
                                               (2, 1, 5, 100)])
        assert burst == reference

    @pytest.mark.parametrize("fabric,failed_link,burst_calls", [
        ("all_to_all", None, [True, False]),
        ("ring", (0, 1), [True] * 3 + [False] * 7),
    ], ids=["all_to_all", "faulted_ring"])
    def test_dram_access_calls(self, monkeypatch, fabric, failed_link,
                               burst_calls):
        """A pristine fabric calls ``DramDevice.access`` once per run of
        stores or loads; a faulted one falls back to once per access."""
        calls = []
        access = DramDevice.access

        def counted(self, addr, is_write, now):
            calls.append(is_write)
            return access(self, addr, is_write, now)

        def fail(system, _addr):
            if failed_link is not None:
                system.interconnect.fail_link(failed_link, now=0)

        monkeypatch.setattr(DramDevice, "access", counted)
        burst, reference = run_bursts(fabric, [(0, 3, 7, None)], fail)
        assert burst == reference
        assert calls == burst_calls + [True] * 3 + [False] * 7


class TestBurstPlans:
    """``round_trips`` reads a plan built on a pair's first burst from its
    request's and response's packet plans: routes, limits and traffic for
    one ``(src, dst, request, response)``."""

    def test_plan_built_before_a_fault_does_not_serve_the_detour(self):
        # Unit 0's first burst to unit 1 builds the pair's plan over the
        # (0, 1) channel; that channel then dies and the next burst must
        # take the detour around the ring, as the reference does.
        results = []
        for issue in (MemorySystem.uncacheable_burst, per_access_burst):
            system = make_system("ring")
            plans = system.interconnect._plans
            addr = system.addrmap.alloc(1, 64)
            now, cycles = 100, []
            for burst in range(2):
                if burst:
                    system.interconnect.fail_link((0, 1), now=now)
                cycles.append(issue(system.memsys, 0, addr, now, stores=2,
                                    loads=12, for_sync=True))
                now += cycles[-1]
                results.append((list(cycles), fabric_snapshot(system)))
            if issue is MemorySystem.uncacheable_burst:
                # the fault dropped the plans; the detoured burst built none
                assert plans == {}
        assert results[:2] == results[2:]
        (_, before), (_, after) = results[:2]
        assert before[0].detour_bit_hops == 0 < after[0].detour_bit_hops

    def test_doorway_runs_each_match_the_reference(self):
        # A doorway's stores and loads are two packet-size pairs between
        # one pair of units: two plans.  Each run alone, then both in one
        # burst, must equal the per-access loop.
        systems = []
        burst, reference = run_bursts(
            "all_to_all", [(0, 3, 0, None), (0, 0, 24, None),
                           (0, 3, 24, None)],
            lambda system, _addr: systems.append(system))
        assert burst == reference
        plans = systems[0].interconnect._plans
        assert [key[:2] for key in plans] == [(0, 1), (0, 1)]
        packets = systems[0].interconnect._packets
        for src, dst, request, response in plans:
            assert request in packets[src][dst]
            assert response in packets[dst][src]


class TestRowMissesAreDerived:
    """``SystemStats.dram_row_misses`` is reads + writes - row hits.  It
    must equal the accesses that found their bank's row closed or holding
    another row, counted independently at ``DramDevice.access``, after
    single accesses, after a burst and after elided spin polls."""

    @pytest.mark.parametrize("failed_link", [None, (0, 1)])
    def test_misses_match_the_device(self, monkeypatch, failed_link):
        misses = []
        access = DramDevice.access

        def counted(self, addr, is_write, now):
            row = addr // self.timing.row_size_bytes
            misses.append(self._open_row[row % self.num_banks]
                          != row // self.num_banks)
            return access(self, addr, is_write, now)

        monkeypatch.setattr(DramDevice, "access", counted)
        system = make_system("ring", failed_link)
        stats = system.stats

        def check():
            assert stats.dram_row_misses == sum(misses)
            assert (stats.dram_reads + stats.dram_writes
                    == stats.dram_row_hits + stats.dram_row_misses)

        now = warm_up(system, seed=3)
        check()
        addr = system.addrmap.alloc(1, 64)
        system.memsys.uncacheable_burst(0, addr, now, stores=2, loads=9)
        check()
        core = next(c for c in system.cores if c.unit_id == 0)
        system.mechanism._charge_elided_polls(
            core, system.create_syncvar(unit=1), 7, 18, 10, 2)
        check()
        assert sum(misses) > 1 and stats.dram_row_hits > 7 + 9


def test_bakery_run_matches_per_access_model(monkeypatch):
    """End to end: a contended bakery lock run is bit-identical when every
    burst is replaced by the per-access reference loop."""
    def run():
        system = build_system(
            ndp_2_5d(num_units=2, cores_per_unit=3, client_cores_per_unit=3),
            "bakery")
        lock = system.create_syncvar(unit=1)

        def worker():
            for _ in range(3):
                yield api.lock_acquire(lock)
                yield Compute(40)
                yield api.lock_release(lock)

        cycles = system.run_programs(
            {core.core_id: worker() for core in system.cores})
        return cycles, system.stats.as_dict()

    bursts = run()
    monkeypatch.setattr(MemorySystem, "uncacheable_burst", per_access_burst)
    assert run() == bursts
