"""``MemorySystem.access`` against the composed per-access reference.

``access`` resolves an L1 hit and an uncacheable request -> DRAM ->
response exchange in its own frame, and reads each pristine route from the
interconnect's per-pair table.  :func:`repro.testing.per_access_reference`
composes the same access from :meth:`L1Cache.access`,
:func:`repro.testing.per_hop_transfer` and :meth:`DramDevice.access`.
After every access the two must agree on the latency, on every counter and
on the crossbar, link and DRAM state (:func:`repro.testing.fabric_snapshot`),
and on every L1 set's LRU order and dirty bits, on every fabric.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import ndp_2_5d
from repro.testing import (
    FABRICS, build_system, fabric_snapshot, per_access_reference)

#: a 4-set, 2-way L1, so a handful of lines gives hits, clean and dirty
#: evictions.
SMALL_L1 = dict(l1_size_bytes=512, l1_ways=2)
#: line offsets inside a home unit: lines 0-9 map onto all four sets,
#: 4096 lands in another DRAM row.
LINES = tuple(range(10)) + (4096,)
SIZES = (8, 16, 64)


def make_system(fabric):
    return build_system(
        ndp_2_5d(cores_per_unit=2, client_cores_per_unit=2,
                 **FABRICS[fabric], **SMALL_L1),
        "bakery")


def l1_state(system):
    """Every core's L1: per set, the (line, dirty) pairs in LRU order."""
    return [sorted((idx, list(cset.items()))
                   for idx, cset in core.l1._sets.items())
            for core in system.cores]


def apply(fused, reference, access, now):
    """One access on both systems; returns its latency."""
    core_index, home, line, is_write, cacheable, size, for_sync, no_l1 = access
    core_index %= len(fused.cores)
    home %= fused.config.num_units
    addr = fused.addrmap.base_of(home) + line * 64 + 8 * (line % 3)
    core, ref_core = fused.cores[core_index], reference.cores[core_index]
    latency = fused.memsys.access(
        core.unit_id, None if no_l1 else core.l1, addr, is_write, cacheable,
        now, size, for_sync)
    expected = per_access_reference(
        reference.memsys, ref_core.unit_id, None if no_l1 else ref_core.l1,
        addr, is_write, cacheable, now, size, for_sync)
    assert latency == expected, (access, now)
    assert fabric_snapshot(fused) == fabric_snapshot(reference), access
    assert l1_state(fused) == l1_state(reference), access
    return latency


def replay(fabric, accesses, gap=3):
    fused, reference = make_system(fabric), make_system(fabric)
    now = 0
    for access in accesses:
        now += max(apply(fused, reference, access, now), 1) + gap
    return fused


ACCESSES = st.tuples(
    st.integers(0, 3),                  # issuing core
    st.integers(0, 7),                  # home unit
    st.sampled_from(LINES),             # line within the home unit
    st.booleans(),                      # is_write
    st.booleans(),                      # cacheable
    st.sampled_from(SIZES),             # uncacheable word size
    st.booleans(),                      # for_sync
    st.sampled_from((False, False, False, True)),  # no L1 at all
)


@settings(max_examples=60, deadline=None)
@given(fabric=st.sampled_from(sorted(FABRICS)),
       accesses=st.lists(ACCESSES, min_size=1, max_size=40))
def test_random_accesses_match_reference(fabric, accesses):
    replay(fabric, accesses)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_every_access_kind(fabric):
    """Cacheable hits and misses with dirty victims, uncacheable loads and
    stores of every size, sync accesses, local and far homes."""
    far = FABRICS[fabric]["num_units"] - 1
    accesses = []
    for home in (0, far):
        # write lines 0, 4, 8 (one set): the third evicts dirty line 0
        for line in (0, 4, 8, 4, 0):
            accesses.append((0, home, line, True, True, 8, False, False))
        accesses.append((0, home, 4, False, True, 8, True, False))   # hit
        # a clean miss dirtied by a write hit, then evicted from its set
        for line, is_write in ((1, False), (1, True), (5, False), (9, False)):
            accesses.append((3, home, line, is_write, True, 8, False, False))
        for size in SIZES:
            for is_write in (False, True):
                accesses.append((1, home, 1, is_write, False, size,
                                 is_write, False))
        accesses.append((2, home, 2, False, True, 8, False, True))   # no L1
    system = replay(fabric, accesses)
    stats = system.stats
    assert stats.cache_hits > 0
    assert stats.cache_misses > 0
    assert stats.dram_writes > 6 + 2   # 6 uncacheable stores + writebacks
    assert stats.sync_memory_accesses == 2 + 2 * len(SIZES)
    assert stats.bytes_across_units > 0


def test_fault_after_route_table_filled():
    """A link that fails after its pairs' packet plans were built over the
    pristine routes is detoured around by every later access."""
    fused, reference = make_system("ring"), make_system("ring")
    now = 0
    exchange = (0, 1, 1, False, False, 8, False, False)   # unit 0 -> home 1
    for _ in range(3):
        now += apply(fused, reference, exchange, now) + 5
    assert 16 in fused.interconnect._packets[0][1]   # the request's plan
    assert fused.stats.reroutes == 0
    for system in (fused, reference):
        system.interconnect.fail_link((0, 1), now)
    before = fused.stats.link_bit_hops
    now += apply(fused, reference, exchange, now) + 5
    # the 16 B request now crosses three links of the ring, not one; the
    # 24 B response still takes its own (live) channel
    assert fused.stats.link_bit_hops - before == (3 * 16 + 24) * 8
    assert fused.stats.reroutes > 0
    assert fused.stats.detour_bit_hops == 2 * 16 * 8
    for access in ((0, 1, 3, True, True, 8, False, False),
                   (1, 1, 2, True, False, 64, True, False)):
        now += apply(fused, reference, access, now) + 5


def test_outside_the_memory_map_raises():
    system = make_system("all_to_all")
    beyond = system.config.num_units * system.config.unit_memory_bytes
    for addr in (beyond, -64):
        with pytest.raises(ValueError, match="outside the memory map"):
            system.memsys.access(0, None, addr, False, False, 0)
