"""Unit tests for clock, config, address map, DRAM, cache, and network."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import L1Cache
from repro.sim.clock import (
    CORE_CLOCK,
    SE_CLOCK,
    core_cycles_from_ns,
    core_cycles_from_se_cycles,
    seconds_from_core_cycles,
)
from repro.sim.config import DDR4, HBM, HMC, SystemConfig, cpu_numa, ndp_2_5d
from repro.sim.dram import DramDevice
from repro.sim.memmap import AddressMap
from repro.sim.network import Crossbar, Interconnect, Link
from repro.sim.stats import SystemStats


class TestClock:
    def test_core_clock_is_2_5_ghz(self):
        assert CORE_CLOCK.ghz == 2.5
        assert core_cycles_from_ns(40.0) == 100  # the 40 ns link

    def test_se_cycles_convert_through_1ghz(self):
        # 12 SE cycles @1GHz = 12 ns = 30 core cycles (the paper's service).
        assert core_cycles_from_se_cycles(12) == 30

    def test_rounding_is_up(self):
        assert core_cycles_from_ns(1.0) == 3  # 2.5 cycles -> 3

    def test_seconds_roundtrip(self):
        assert seconds_from_core_cycles(2_500_000_000) == pytest.approx(1.0)

    def test_se_clock_period(self):
        assert SE_CLOCK.period_ns == pytest.approx(1.0)


class TestConfig:
    def test_default_matches_paper_table5(self):
        cfg = ndp_2_5d()
        assert cfg.num_units == 4
        assert cfg.cores_per_unit == 16
        assert cfg.client_cores_per_unit == 15
        assert cfg.st_entries == 64
        assert cfg.indexing_counters == 256
        assert cfg.memory.name == "HBM"
        assert cfg.link_latency_cycles == 100

    def test_with_functional_update(self):
        cfg = ndp_2_5d().with_(num_units=2)
        assert cfg.num_units == 2
        assert ndp_2_5d().num_units == 4  # original untouched

    def test_validation_rejects_bad_topology(self):
        with pytest.raises(ValueError):
            ndp_2_5d(num_units=0).validate()
        with pytest.raises(ValueError):
            ndp_2_5d(client_cores_per_unit=0).validate()
        with pytest.raises(ValueError):
            ndp_2_5d(st_entries=0).validate()

    def test_memory_presets_have_ordered_latencies(self):
        # HBM is fastest, DDR4 slowest (Table 5 timings).
        assert HBM.row_miss_cycles < HMC.row_miss_cycles
        assert HBM.row_miss_cycles < DDR4.row_miss_cycles

    def test_cpu_numa_is_two_sockets(self):
        cfg = cpu_numa()
        assert cfg.num_units == 2
        assert cfg.client_cores_per_unit == 14


class TestAddressMap:
    def test_unit_of_respects_striping(self):
        amap = AddressMap(4, 1 << 20)
        assert amap.unit_of(0) == 0
        assert amap.unit_of((1 << 20) + 5) == 1
        assert amap.unit_of(4 * (1 << 20) - 1) == 3

    def test_out_of_range_address_raises(self):
        amap = AddressMap(2, 1 << 20)
        with pytest.raises(ValueError):
            amap.unit_of(2 << 20)

    def test_alloc_returns_distinct_ranges(self):
        amap = AddressMap(2, 1 << 20)
        a = amap.alloc(0, 64)
        b = amap.alloc(0, 64)
        assert b >= a + 64

    def test_alloc_line_is_line_aligned(self):
        amap = AddressMap(2, 1 << 20, line_bytes=64)
        amap.alloc(0, 10)
        addr = amap.alloc_line(0)
        assert addr % 64 == 0

    def test_exhaustion_raises(self):
        amap = AddressMap(1, 128)
        amap.alloc(0, 100)
        with pytest.raises(MemoryError):
            amap.alloc(0, 100)

    def test_striped_array_round_robins_units(self):
        amap = AddressMap(4, 1 << 20)
        addrs = amap.alloc_striped_array(8, 8)
        units = [amap.unit_of(a) for a in addrs]
        assert units == [0, 1, 2, 3, 0, 1, 2, 3]

    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1,
                    max_size=30))
    def test_allocations_never_overlap(self, sizes):
        amap = AddressMap(1, 1 << 20)
        ranges = []
        for size in sizes:
            base = amap.alloc(0, size)
            for other_base, other_size in ranges:
                assert base >= other_base + other_size or base + size <= other_base
            ranges.append((base, size))


class TestDram:
    def test_row_hit_is_faster_than_miss(self):
        dram = DramDevice(HBM, SystemStats())
        first = dram.access(0x0, is_write=False, now=0)
        second = dram.access(0x8, is_write=False, now=10_000)
        assert second < first  # same row, now open

    def test_bank_conflict_queues(self):
        dram = DramDevice(HBM, SystemStats())
        lat1 = dram.access(0x0, is_write=False, now=0)
        lat2 = dram.access(0x0, is_write=False, now=0)
        assert lat2 > lat1  # second waits for the bank

    def test_write_holds_bank_longer(self):
        stats = SystemStats()
        dram = DramDevice(HBM, stats)
        dram.access(0x0, is_write=True, now=0)
        after_write = dram.access(0x0, is_write=False, now=1)
        dram2 = DramDevice(HBM, SystemStats())
        dram2.access(0x0, is_write=False, now=0)
        after_read = dram2.access(0x0, is_write=False, now=1)
        assert after_write > after_read

    def test_counters(self):
        stats = SystemStats()
        dram = DramDevice(HBM, stats)
        dram.access(0x0, is_write=False, now=0)
        dram.access(0x1000000, is_write=True, now=0)
        assert stats.dram_reads == 1
        assert stats.dram_writes == 1

    def test_different_rows_map_to_different_banks(self):
        dram = DramDevice(HBM, SystemStats())
        lat1 = dram.access(0, is_write=False, now=0)
        # next row stripes to the next bank: no queueing delay.
        lat2 = dram.access(HBM.row_size_bytes, is_write=False, now=0)
        assert lat2 == lat1


class TestCache:
    def make(self, stats=None):
        return L1Cache(16 * 1024, 2, 64, stats or SystemStats(), hit_cycles=4)

    def test_miss_then_hit(self):
        cache = self.make()
        assert not cache.access(0x40, is_write=False).hit
        assert cache.access(0x40, is_write=False).hit

    def test_same_line_different_words_hit(self):
        cache = self.make()
        cache.access(0x40, is_write=False)
        assert cache.access(0x78, is_write=False).hit

    def test_lru_eviction_within_set(self):
        cache = self.make()
        num_sets = cache.num_sets
        line = 64
        a, b, c = 0, num_sets * line, 2 * num_sets * line  # same set
        cache.access(a, is_write=False)
        cache.access(b, is_write=False)
        cache.access(a, is_write=False)  # a is now MRU
        cache.access(c, is_write=False)  # evicts b (LRU)
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)

    def test_dirty_victim_reported_for_writeback(self):
        cache = self.make()
        num_sets = cache.num_sets
        line = 64
        cache.access(0, is_write=True)  # dirty
        cache.access(num_sets * line, is_write=False)
        result = cache.access(2 * num_sets * line, is_write=False)
        assert result.writeback_line == 0

    def test_clean_victim_has_no_writeback(self):
        cache = self.make()
        num_sets = cache.num_sets
        cache.access(0, is_write=False)
        cache.access(num_sets * 64, is_write=False)
        result = cache.access(2 * num_sets * 64, is_write=False)
        assert result.writeback_line is None

    def test_invalidate(self):
        cache = self.make()
        cache.access(0x40, is_write=False)
        assert cache.invalidate(0x40)
        assert not cache.contains(0x40)
        assert not cache.invalidate(0x40)

    def test_flush_all(self):
        cache = self.make()
        for i in range(10):
            cache.access(i * 64, is_write=False)
        assert cache.flush_all() == 10
        assert cache.lines_resident == 0

    def test_stats_count_hits_and_misses(self):
        stats = SystemStats()
        cache = self.make(stats)
        cache.access(0x40, is_write=False)
        cache.access(0x40, is_write=False)
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            L1Cache(1000, 3, 64, SystemStats())

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20), min_size=1,
                    max_size=200))
    def test_resident_lines_never_exceed_capacity(self, addrs):
        cache = self.make()
        capacity = cache.num_sets * cache.ways
        for addr in addrs:
            cache.access(addr, is_write=False)
            assert cache.lines_resident <= capacity


class TestNetwork:
    def test_local_latency_includes_arbiter_and_hops(self):
        cfg = ndp_2_5d()
        inter = Interconnect(cfg, SystemStats())
        latency = inter.transfer_latency(0, 0, 0, 16)
        assert latency >= cfg.arbiter_cycles + cfg.local_hops * cfg.hop_cycles

    def test_md1_wait_grows_with_load(self):
        xbar = Crossbar(ndp_2_5d(), 0)
        idle = xbar.queue_wait(0, 16)
        # hammer the crossbar, then measure again
        for t in range(1, 2000):
            xbar.queue_wait(t, 64)
        loaded = xbar.queue_wait(2000, 16)
        assert loaded > idle

    def test_link_adds_latency_and_serialization(self):
        cfg = ndp_2_5d()
        link = Link(cfg)
        latency = link.reserve(0, 64)
        assert latency == cfg.link_latency_cycles + link.serialization_cycles(64)
        assert link.serialization_cycles(64) >= 1

    def test_link_queues_back_to_back_transfers(self):
        link = Link(ndp_2_5d())
        first = link.reserve(0, 6400)
        second = link.reserve(0, 6400)
        assert second > first

    def test_interconnect_remote_is_slower_than_local(self):
        cfg = ndp_2_5d()
        stats = SystemStats()
        inter = Interconnect(cfg, stats)
        local = inter.transfer_latency(0, 0, 0, 64)
        remote = inter.transfer_latency(0, 1, 0, 64)
        assert remote > local
        assert stats.bytes_across_units == 64
        assert stats.bytes_inside_units >= 64  # local traffic counted too

    def test_load_estimator_decays(self):
        xbar = Crossbar(ndp_2_5d(), 0)
        xbar.queue_wait(0, 1000)
        busy = xbar._rate
        xbar.queue_wait(10_000, 1)
        assert xbar._rate < busy

    @staticmethod
    def md1_wait(rate, nbytes, bpc):
        """:meth:`Crossbar.queue_wait`'s full formula at load estimate
        ``rate``: a one-cycle interval whose decay is pinned to 1.0 leaves
        the estimate exactly ``rate``."""
        xbar = Crossbar(ndp_2_5d(), 0)
        xbar._bytes_per_cycle = bpc
        xbar._rate = rate
        xbar._decay_cache[1] = 1.0
        wait = xbar.queue_wait(0, nbytes)
        assert xbar._rate == rate
        return wait

    @settings(max_examples=300, deadline=None)
    @given(nbytes=st.integers(0, 100_000),
           bpc=st.floats(0.01, 10_000.0),
           fraction=st.floats(0.0, 1.0),
           rate=st.floats(0.0, 1e6))
    def test_zero_wait_predicate_implies_zero_wait(self, nbytes, bpc,
                                                   fraction, rate):
        # The predicate the inline crossbar steps of transfer_latency and
        # round_trips test before skipping the M/D/1 formula.
        service = max(nbytes / bpc, 1.0)
        limit = 0.5 * bpc / service
        below = math.nextafter(limit, 0.0)
        above = math.nextafter(limit, math.inf)
        assert below <= limit < above
        for estimate in (rate, fraction * limit, below, limit, above):
            if estimate <= limit:
                assert self.md1_wait(estimate, nbytes, bpc) == 0
        # The bound has slack: one ulp past the limit still waits 0 cycles.
        assert self.md1_wait(above, nbytes, bpc) == 0

    @settings(max_examples=300, deadline=None)
    @given(nbytes=st.integers(0, 100_000), bpc=st.floats(0.01, 10_000.0),
           rate=st.floats(0.0, 1e6))
    def test_wait_cycles_is_the_md1_formula(self, nbytes, bpc, rate):
        # The one copy of the formula, which every crossbar step that may
        # wait calls.
        xbar = Crossbar(ndp_2_5d(), 0)
        xbar._bytes_per_cycle = bpc
        wait = xbar.wait_cycles(rate, nbytes)
        assert wait == self.md1_wait(rate, nbytes, bpc)
        rho = min(rate / bpc, 0.95)
        assert wait == math.floor(
            rho * max(nbytes / bpc, 1.0) / (2 * (1 - rho)))

    def test_zero_wait_limit_is_not_vacuous(self):
        # Well past the limit the formula charges a real wait.
        assert self.md1_wait(0.9 * 32.0, 6400, 32.0) > 0
