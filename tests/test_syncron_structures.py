"""Unit tests for SynCron's hardware structures: messages, ST, indexing
counters, syncronVar, and the area model."""

import inspect
import sys
from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.core.area import se_area, table4_comparison, table8_rows
from repro.core.indexing import IndexingCounters
from repro.core.messages import (
    GLOBAL_OPCODES,
    LOCAL_OPCODES,
    Message,
    Opcode,
    OPCODE_BYTES,
    OVERFLOW_OPCODES,
    REQUEST_BITS,
    REQUEST_BYTES,
    RESPONSE_BYTES,
)
from repro.core.sync_table import STEntry, STFullError, SynchronizationTable
from repro.core.syncronvar import SyncronVarStore
from repro.sim.syncif import SyncVar


class TestMessages:
    def test_request_encoding_is_140_bits(self):
        # Fig. 5: 64 + 6 + 6 + 64.
        assert REQUEST_BITS == 140
        assert REQUEST_BYTES == 18
        assert RESPONSE_BYTES == 19

    def test_opcode_families_are_disjoint_and_cover_all(self):
        families = LOCAL_OPCODES | GLOBAL_OPCODES | OVERFLOW_OPCODES
        assert families == set(Opcode)

    def test_every_opcode_an_engine_receives_has_a_handler(self):
        from repro.core.protocol import _HANDLERS

        # SE -> core notifications: send_grant models them without a Message.
        to_cores = {Opcode.LOCK_GRANT_LOCAL, Opcode.BARRIER_DEPART_LOCAL,
                    Opcode.SEM_GRANT_LOCAL, Opcode.COND_GRANT_LOCAL}
        # Table 3 opcodes nothing sends: posts, signals and broadcasts
        # reach the Master SE as *_GLOBAL and are never redirected.
        never_sent = {Opcode.SEM_POST_OVERFLOW, Opcode.COND_SIGNAL_OVERFLOW,
                      Opcode.COND_BROAD_OVERFLOW}
        assert set(_HANDLERS) == set(Opcode) - to_cores - never_sent

    def test_grant_messages_use_response_size(self):
        var = SyncVar(addr=0, unit=0)
        req = Message(Opcode.LOCK_ACQUIRE_LOCAL, var, core=1)
        grant = Message(Opcode.LOCK_GRANT_GLOBAL, var, src_se=0)
        assert req.bytes == REQUEST_BYTES
        assert grant.bytes == RESPONSE_BYTES

    def test_barrier_local_opcodes_are_local(self):
        assert Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT in LOCAL_OPCODES
        assert Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS in LOCAL_OPCODES


class TestSynchronizationTable:
    def var(self, addr=0x1000):
        return SyncVar(addr=addr, unit=0)

    def test_allocate_and_lookup(self):
        table = SynchronizationTable(4)
        var = self.var()
        entry = table.allocate(var)
        assert table.entries.get(var.addr) is entry
        assert table.occupied == 1

    def test_capacity_enforced(self):
        table = SynchronizationTable(2)
        table.allocate(self.var(0x0))
        table.allocate(self.var(0x40))
        assert table.is_full
        with pytest.raises(STFullError):
            table.allocate(self.var(0x80))

    def test_double_allocate_rejected(self):
        table = SynchronizationTable(4)
        var = self.var()
        table.allocate(var)
        with pytest.raises(ValueError):
            table.allocate(var)

    def test_release(self):
        table = SynchronizationTable(2)
        var = self.var()
        table.allocate(var)
        table.release(var.addr)
        assert var.addr not in table.entries
        with pytest.raises(KeyError):
            table.release(var.addr)

    def test_release_if_idle_keeps_busy_entries(self):
        table = SynchronizationTable(2)
        entry = table.allocate(self.var())
        entry.local_waitlist.append(3)
        assert not table.release_if_idle(entry)
        entry.local_waitlist.clear()
        assert table.release_if_idle(entry)

    def test_entry_idle_predicate(self):
        entry = STEntry(addr=0, var=None)
        assert entry.is_idle()
        entry.local_owner = 5
        assert not entry.is_idle()
        entry.local_owner = None
        entry.pending_global = True
        assert not entry.is_idle()

    def test_peak_occupancy_tracked(self):
        table = SynchronizationTable(8)
        for i in range(5):
            table.allocate(self.var(i * 64))
        assert table.peak_occupancy == 5

    @given(st.integers(min_value=1, max_value=64))
    def test_occupancy_never_exceeds_capacity(self, capacity):
        table = SynchronizationTable(capacity)
        for i in range(capacity * 2):
            try:
                table.allocate(self.var(i * 64))
            except STFullError:
                break
            assert table.occupied <= capacity


class TestSTEntryContract:
    """``STEntry`` is a hand-written slotted class; it keeps the keyword
    signature and per-field defaults it had as a dataclass."""

    #: every field with its default, in signature order (addr and var
    #: have none); the two deques and the set are fresh per entry.
    DEFAULTS = {
        "local_waitlist": deque(), "global_waitlist": deque(),
        "table_info": 0, "local_owner": None, "owner_se": None,
        "has_control": False, "pending_global": False, "arrived": 0,
        "expected": 0, "local_grant_counter": 0, "overflow_ses": set(),
        "counter_debt": 0,
    }

    def test_signature_lists_every_field(self):
        params = list(inspect.signature(STEntry).parameters)
        assert params == ["addr", "var", *self.DEFAULTS]
        assert list(STEntry.__slots__) == params

    def test_every_field_keeps_its_default(self):
        entry = STEntry(addr=0x40, var=None)
        assert (entry.addr, entry.var) == (0x40, None)
        for name, default in self.DEFAULTS.items():
            value = getattr(entry, name)
            assert value == default and type(value) is type(default), name

    def test_containers_are_fresh_per_entry(self):
        first, second = STEntry(0, None), STEntry(64, None)
        for name in ("local_waitlist", "global_waitlist", "overflow_ses"):
            assert getattr(first, name) is not getattr(second, name)

    def test_keywords_set_fields(self):
        waiters = deque([3])
        entry = STEntry(addr=0, var="v", local_waitlist=waiters,
                        table_info=7, owner_se=("se", 1), counter_debt=2)
        assert entry.local_waitlist is waiters
        assert (entry.table_info, entry.owner_se, entry.counter_debt) == (
            7, ("se", 1), 2)

    def test_entries_compare_by_identity(self):
        assert STEntry(0, None) != STEntry(0, None)


class TestOpcodeHashing:
    """Opcode lookups on the message path run no Python-level frame:
    ``Opcode`` hashes by identity (``object.__hash__``), not through
    ``Enum.__hash__``."""

    @staticmethod
    def python_calls(action) -> int:
        """Python frames entered by ``action``'s body (not counting its
        own)."""
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is not action.__code__:
                calls += 1

        sys.setprofile(profiler)
        try:
            action()
        finally:
            sys.setprofile(None)
        return calls

    def test_lookups_run_no_python_frame(self):
        from repro.core.protocol import _HANDLERS

        ops = list(Opcode)

        def lookups():
            for op in ops:
                _HANDLERS.get(op)
                OPCODE_BYTES[op]
                op in LOCAL_OPCODES

        assert self.python_calls(lookups) == 0

    def test_profiler_counts_python_frames(self):
        class Slow:
            def __hash__(self):
                return 0

        assert self.python_calls(lambda: {Slow(): 0}) == 1

    def test_identity_hash_matches_equality(self):
        assert Opcode.__hash__ is object.__hash__
        assert len({op: op.name for op in Opcode}) == len(Opcode)


class TestIndexingCounters:
    def test_aliasing_uses_line_address_lsbs(self):
        counters = IndexingCounters(num_counters=256, line_bytes=64)
        assert counters.index_of(0) == 0
        assert counters.index_of(64) == 1
        assert counters.index_of(256 * 64) == 0  # wraps

    def test_increment_decrement(self):
        counters = IndexingCounters(16)
        counters.increment(0)
        assert counters.is_memory_serviced(0)
        counters.decrement(0)
        assert not counters.is_memory_serviced(0)

    def test_underflow_raises(self):
        counters = IndexingCounters(16)
        with pytest.raises(ValueError):
            counters.decrement(0)

    def test_aliased_variables_share_a_counter(self):
        counters = IndexingCounters(num_counters=4, line_bytes=64)
        counters.increment(0)
        # address 4*64 aliases to counter 0 as well.
        assert counters.is_memory_serviced(4 * 64)

    def test_total_active(self):
        counters = IndexingCounters(8)
        counters.increment(0)
        counters.increment(64)
        assert counters.total_active == 2


class TestSyncronVar:
    def test_store_lazy_creation(self):
        store = SyncronVarStore()
        assert store.lookup(0x40) is None
        sv = store.get_or_create(0x40)
        assert store.lookup(0x40) is sv
        assert 0x40 in store
        store.drop(0x40)
        assert len(store) == 0


class TestAreaModel:
    def test_table8_reference_point(self):
        report = se_area(64, 256)
        assert report.total_mm2 == pytest.approx(0.0461, abs=1e-4)
        assert report.power_mw == pytest.approx(2.7, abs=0.01)
        # Paper: SE is ~10% of an ARM Cortex-A7's area.
        assert report.fraction_of_cortex_a7_area < 0.11

    def test_area_scales_with_st_entries(self):
        small = se_area(16, 256)
        big = se_area(256, 256)
        assert small.total_mm2 < se_area(64, 256).total_mm2 < big.total_mm2

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            se_area(0, 256)

    def test_table_renderers(self):
        rows8 = table8_rows()
        assert rows8[0]["component"].startswith("SE")
        rows4 = table4_comparison()
        assert [r["scheme"] for r in rows4] == ["SSB", "LCU", "MiSAR", "SynCron"]
        syncron = rows4[-1]
        assert syncron["primitives"] == "4"
        assert syncron["target_system"] == "non-uniform"
        assert syncron["overflow"] == "fully integrated"
