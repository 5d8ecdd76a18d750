"""The Synchronization Engine device and the SynCron mechanism.

:class:`SyncEngine` is the hardware unit of paper Sec. 4.2 / Fig. 6: an SPU
(here: a single-server queue with the paper's 12 SE-cycle service time), a
64-entry Synchronization Table, 256 indexing counters, and — when acting as
a variable's Master SE — the ``syncronVar`` store in its local memory for
overflow management.  Message semantics live in
:class:`~repro.core.protocol.ProtocolMixin`.

:class:`SynCronMechanism` is the system-facing object: it injects core
requests into the local SE (hierarchical communication: cores *only* talk to
their local SE), wires SEs to each other over the interconnect, and wakes
cores when grants arrive.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.core.indexing import IndexingCounters
from repro.core.messages import (
    LOCAL_OPCODES,
    Message,
    Opcode,
    OPCODE_BYTES,
    OVERFLOW_OPCODES,
    REQUEST_BYTES,
    RESPONSE_BYTES,
)
from repro.core.protocol import ProtocolError, ProtocolMixin
from repro.core.sync_table import SynchronizationTable
from repro.core.syncronvar import SyncronVarStore
from repro.sim.clock import core_cycles_from_se_cycles
from repro.sim.program import (
    BARRIER_WAIT_ACROSS_UNITS,
    BARRIER_WAIT_WITHIN_UNIT,
    COND_BROADCAST,
    COND_SIGNAL,
    COND_WAIT,
    LOCK_ACQUIRE,
    LOCK_RELEASE,
    RW_READ_ACQUIRE,
    RW_READ_RELEASE,
    RW_WRITE_ACQUIRE,
    RW_WRITE_RELEASE,
    SEM_POST,
    SEM_WAIT,
)
from repro.sim.syncif import MechanismBase, SyncVar

#: SyncOp name -> the local opcode a core's message carries.
_REQUEST_OPCODES = {
    LOCK_ACQUIRE: Opcode.LOCK_ACQUIRE_LOCAL,
    LOCK_RELEASE: Opcode.LOCK_RELEASE_LOCAL,
    BARRIER_WAIT_WITHIN_UNIT: Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT,
    BARRIER_WAIT_ACROSS_UNITS: Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS,
    SEM_WAIT: Opcode.SEM_WAIT_LOCAL,
    SEM_POST: Opcode.SEM_POST_LOCAL,
    COND_WAIT: Opcode.COND_WAIT_LOCAL,
    COND_SIGNAL: Opcode.COND_SIGNAL_LOCAL,
    COND_BROADCAST: Opcode.COND_BROAD_LOCAL,
    RW_READ_ACQUIRE: Opcode.RW_READ_ACQUIRE_LOCAL,
    RW_READ_RELEASE: Opcode.RW_READ_RELEASE_LOCAL,
    RW_WRITE_ACQUIRE: Opcode.RW_WRITE_ACQUIRE_LOCAL,
    RW_WRITE_RELEASE: Opcode.RW_WRITE_RELEASE_LOCAL,
}

#: local opcode -> overflow opcode used when an overflowed local SE
#: re-directs a core's message to the Master SE (Sec. 4.3.2).
_REDIRECT_OPCODES = {
    Opcode.LOCK_ACQUIRE_LOCAL: Opcode.LOCK_ACQUIRE_OVERFLOW,
    Opcode.LOCK_RELEASE_LOCAL: Opcode.LOCK_RELEASE_OVERFLOW,
    Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT: Opcode.BARRIER_WAIT_OVERFLOW,
    Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS: Opcode.BARRIER_WAIT_OVERFLOW,
    Opcode.SEM_WAIT_LOCAL: Opcode.SEM_WAIT_OVERFLOW,
    Opcode.COND_WAIT_LOCAL: Opcode.COND_WAIT_OVERFLOW,
}


class SyncEngine(ProtocolMixin):
    """One SE, integrated in the compute die of one NDP unit.

    Intake is a single-server queue: an arriving message starts its
    service time at once when the SE is idle and queues otherwise; each
    ``_finish`` handles one message and starts the next as soon as the
    memory cycles the handling charged (``_extra``) have elapsed.  Per
    message the SE only counts an occupancy sample on its ST
    (:attr:`SynchronizationTable.unsampled
    <repro.core.sync_table.SynchronizationTable.unsampled>`); the ST folds
    the samples into :class:`~repro.sim.stats.SystemStats` when its
    occupancy changes, and :meth:`SynCronMechanism.end_run` folds the rest
    when the run returns.

    (No ``__slots__`` here on purpose: there is one SE per unit — a handful
    of instances — and tests monkeypatch engine methods per instance.)
    """

    def __init__(self, mech: "SynCronMechanism", se_id: int):
        self.mech = mech
        self.sim = mech.sim
        self.config = mech.config
        self.stats = mech.stats
        self.se_id = se_id
        self.unit = se_id  # one SE per unit; ids coincide
        #: interned FIFO-clamp key (one tuple per SE, not one per message).
        self.sender_token = ("se", se_id)

        self.st = SynchronizationTable(self.config.st_entries, self.stats, se_id)
        mech.tables.append(self.st)
        self.counters = IndexingCounters(
            self.config.indexing_counters, self.config.cache_line_bytes
        )
        self.store = SyncronVarStore()
        self.service_cycles = core_cycles_from_se_cycles(
            self.config.se_service_se_cycles
        )

        self._queue = deque()
        self._busy = False
        self._extra = 0  # memory cycles charged while handling one message
        #: variables this (non-master) SE currently redirects to the master.
        self._redirected = set()
        #: per-sender FIFO clamp so analytic network latencies never reorder
        #: messages from the same source.
        self._last_arrival: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def is_master(self, var: SyncVar) -> bool:
        return var.unit == self.se_id

    def master_of(self, var: SyncVar) -> int:
        return var.unit

    # ------------------------------------------------------------------
    # Message intake: a single-server queue (the SPU's buffer, Fig. 6)
    # ------------------------------------------------------------------
    def receive(self, msg: Message, arrival: int, sender: object = None) -> None:
        if sender is not None:
            earliest = self._last_arrival.get(sender, 0) + 1
            if arrival < earliest:
                arrival = earliest
            self._last_arrival[sender] = arrival
        self.sim.schedule_at(arrival, self._enqueue, msg)

    def _enqueue(self, msg: Message) -> None:
        if self._busy:
            self._queue.append(msg)
        else:
            self._busy = True
            self.sim.schedule(self.service_cycles, self._finish, msg)

    def _start_next(self) -> None:
        """Serve the next queued message, or go idle."""
        if self._queue:
            self.sim.schedule(self.service_cycles, self._finish,
                              self._queue.popleft())
        else:
            self._busy = False

    def _finish(self, msg: Message) -> None:
        """One message's service time has elapsed: handle it, then start
        the next once the memory cycles it charged have elapsed too."""
        self._extra = 0
        # One occupancy sample per message, folded by the ST (see
        # SynchronizationTable.unsampled).
        self.st.unsampled += 1
        self.dispatch(msg)
        if self._extra > 0:
            self.sim.schedule(self._extra, self._start_next)
        elif self._queue:
            self.sim.schedule(self.service_cycles, self._finish,
                              self._queue.popleft())
        else:
            self._busy = False

    # ------------------------------------------------------------------
    # State residency: Fig. 8 control flow
    # ------------------------------------------------------------------
    def _get_state(self, msg: Message, acquire: bool, sem_init: Optional[int] = None):
        """Locate (or create) protocol state for ``msg``'s variable.

        Returns ``(state, in_memory)``; returns ``(None, False)`` when this
        (non-master, overflowed) SE redirected the message to the Master SE.
        """
        addr = msg.var.addr
        entry = self.st.entries.get(addr)
        if entry is not None:
            return entry, False

        master = self.is_master(msg.var)
        resident = master and addr in self.store
        overflow = (
            resident
            or self.st.is_full
            or addr in self._redirected
            or self.counters.is_memory_serviced(addr)
        )
        if not overflow:
            return self._allocate(msg.var, sem_init)

        if not master:
            self._redirect_overflow(msg)
            return None, False

        # Master SE: service via main memory (syncronVar, Sec. 4.3.1).
        fresh = not resident
        sv = self.store.get_or_create(addr, msg.var)
        if fresh and sem_init is not None:
            sv.state.table_info = sem_init
        self._charge_syncronvar_access(msg.var)
        if msg.opcode in LOCAL_OPCODES:
            # The master's own local requests serviced via memory maintain
            # the indexing counters per message (Sec. 4.2.3).
            self.stats.st_overflow_requests += 1
            if acquire:
                self.counters.increment(addr)
                sv.state.counter_debt += 1
            elif sv.state.counter_debt > 0:
                self.counters.decrement(addr)
                sv.state.counter_debt -= 1
        return sv.state, True

    def _find_state(self, msg: Message):
        """The existing state of ``msg``'s variable, without allocating:
        ``(state, in_memory)``, or ``(None, False)`` when there is none."""
        entry = self.st.entries.get(msg.var.addr)
        if entry is not None:
            return entry, False
        sv = self.store.lookup(msg.var.addr)
        if sv is None:
            return None, False
        self._charge_syncronvar_access(msg.var)
        return sv.state, True

    def _allocate(self, var: SyncVar, sem_init: Optional[int]):
        """A fresh ST entry for ``var`` (a semaphore's seeded with its
        initial count), as :meth:`_get_state` returns it."""
        entry = self.st.allocate(var)
        self.stats.st_allocations += 1
        if sem_init is not None:
            entry.table_info = sem_init
        return entry, False

    def _redirect_overflow(self, msg: Message, opcode: Optional[Opcode] = None) -> None:
        """Non-master overflow: re-direct the core's message to the Master SE
        with an overflow opcode; mark the episode in the indexing counters.
        A redirected condvar wait releases its lock here, as an enqueued
        one does (the Master SE's overflow handler releases nothing)."""
        if opcode is None:
            opcode = _REDIRECT_OPCODES[msg.opcode]
        self.stats.st_overflow_requests += 1
        if msg.opcode is not Opcode.LOCK_RELEASE_LOCAL:
            self.begin_overflow_episode(msg.var.addr)
        self.send_se(
            self.master_of(msg.var), opcode, msg.var, core=msg.core, info=msg.info
        )
        if msg.opcode is Opcode.COND_WAIT_LOCAL:
            self._release_cond_lock(msg)

    def begin_overflow_episode(self, addr: int) -> None:
        if addr not in self._redirected:
            self._redirected.add(addr)
            self.counters.increment(addr)

    def end_overflow_episode(self, addr: int) -> None:
        if addr in self._redirected:
            self._redirected.discard(addr)
            self.counters.decrement(addr)

    def _charge_syncronvar_access(self, var: SyncVar) -> None:
        """Read-modify-write of the syncronVar in this unit's local memory.

        The read is on the SPU's critical path; the write-back goes to an
        open row through the write buffer, off the response path (it is
        still charged to the DRAM bank and to traffic/energy).

        With ``overflow_target="shared_cache"`` (the Sec. 4.6 conventional-
        NUMA adaptation) the structure lives in a shared cache instead:
        the SPU pays the cache's hit latency and no DRAM bank is touched.
        """
        now = self.sim.now + self._extra
        if self.config.overflow_target == "shared_cache":
            self.stats.sync_memory_accesses += 2
            self.stats.extra["llc_sync_accesses"] += 2
            self.stats.cache_hits += 2
            self._extra += self.config.shared_cache_hit_cycles
            return
        latency = self.mech.memsys.device_access(
            self.unit, var.addr, is_write=False, now=now, for_sync=True
        )
        self.mech.memsys.device_access(
            self.unit, var.addr, is_write=True, now=now + latency, for_sync=True
        )
        self._extra += latency

    # ------------------------------------------------------------------
    # State release
    # ------------------------------------------------------------------
    def _maybe_free_state(self, state, var, in_memory: bool) -> None:
        if not state.is_idle():
            return
        if state.table_info:
            return  # a semaphore's live count must not be dropped
        for se_id in sorted(state.overflow_ses):
            self.send_se(se_id, Opcode.DECREASE_INDEXING_COUNTER, var)
        state.overflow_ses.clear()
        if in_memory:
            while state.counter_debt > 0:
                self.counters.decrement(var.addr)
                state.counter_debt -= 1
            self.store.drop(var.addr)
        elif state.addr in self.st.entries:
            # idle was checked above; release without a second check.
            self.st.release(state.addr)
            self.stats.st_releases += 1

    # ------------------------------------------------------------------
    # Outbound messages
    # ------------------------------------------------------------------
    def send_se(self, dst_se: int, opcode: Opcode, var: SyncVar,
                core: Optional[int] = None, info=0) -> None:
        if dst_se == self.se_id:
            raise ProtocolError(f"SE {self.se_id} sending {opcode.name} to itself")
        msg = Message(opcode, var, core, self.se_id, info)
        if opcode in OVERFLOW_OPCODES:
            self.stats.sync_messages_overflow += 1
        else:
            self.stats.sync_messages_global += 1
        depart = self.sim.now + self._extra
        latency = self.mech.interconnect.transfer_latency(
            self.unit, dst_se, depart, OPCODE_BYTES[opcode]
        )
        self.mech.ses[dst_se].receive(msg, depart + latency, self.sender_token)

    def send_grant(self, core_id: int) -> None:
        """Direct notification of one waiting core (Table 4).

        Under SynCron proper the target is always in this SE's unit; the
        flat variant and the Central baseline also grant remote cores, which
        crosses the inter-unit link.
        """
        mech = self.mech
        arrival = mech.send(self.unit, mech.system.cores[core_id].unit_id,
                            self.sim.now + self._extra, RESPONSE_BYTES)
        self.sim.schedule_at(arrival, mech.wake, core_id)

    def _internal_request(self, msg: Message) -> None:
        """The SE issues a request on behalf of a core (condition variables:
        releasing / re-acquiring the associated lock).  Routing is owned by
        the mechanism: hierarchical designs handle it at this SE, the flat
        variant must target the lock's Master SE."""
        self.mech.inject_internal(self, msg)


class SynCronMechanism(MechanismBase):
    """SynCron: hierarchical hardware synchronization (the paper's design)."""

    name = "syncron"

    def __init__(self, system):
        super().__init__(system)
        self.memsys = system.memsys
        #: every ST built for this mechanism's engines (fallback and
        #: replacement servers included), for the end-of-run occupancy fold.
        self.tables = []
        self.ses = self._make_engines()
        self.sem_initial: Dict[int, int] = {}
        self._pending: Dict[int, Callable[[], None]] = {}

    def _make_engines(self) -> List[SyncEngine]:
        """The engine each unit's cores send to (index = unit id): one SE
        per unit.  Baselines and overflow variants override this."""
        return [SyncEngine(self, se_id) for se_id in range(self.config.num_units)]

    # ------------------------------------------------------------------
    @property
    def total_clients(self) -> int:
        return self.config.total_clients

    def clients_in_unit(self, unit: int) -> int:
        return self.config.client_contexts_per_unit

    # ------------------------------------------------------------------
    def send(self, src_unit: int, dst_unit: int, depart: int, nbytes: int) -> int:
        """One synchronization message between units: count it as local
        or global and return its arrival cycle."""
        if src_unit == dst_unit:
            self.stats.sync_messages_local += 1
        else:
            self.stats.sync_messages_global += 1
        return depart + self.interconnect.transfer_latency(
            src_unit, dst_unit, depart, nbytes)

    def entry_unit(self, core, msg: Message) -> int:
        """The unit whose engine receives a core's request: its own SE
        (hierarchical communication)."""
        return core.unit_id

    def _inject(self, core, op: str, var: SyncVar, info) -> None:
        """Admit a core's request and send it to its entry engine."""
        self._admit(op, var)
        if op == SEM_WAIT:
            self.sem_initial.setdefault(var.addr, info)
        msg = Message(_REQUEST_OPCODES[op], var, core.core_id, None, info)
        dst = self.entry_unit(core, msg)
        self.ses[dst].receive(
            msg, self.send(core.unit_id, dst, self.sim.now, REQUEST_BYTES),
            core.sender_token)

    def request(self, core, op, var, info, callback) -> None:
        if core.core_id in self._pending:
            raise ProtocolError(f"core {core.core_id} already has a pending request")
        self._inject(core, op, var, info)
        self._pending[core.core_id] = callback

    def request_async(self, core, op, var, info) -> int:
        self._inject(core, op, var, info)
        # req_async commits once the message is issued (Sec. 4.1).
        return self.config.async_issue_cycles

    def inject_internal(self, se: SyncEngine, msg: Message) -> None:
        """Route an SE-initiated request (hierarchical: stays at that SE)."""
        se.sim.schedule_at(se.sim.now + se._extra, se._enqueue, msg)

    def wake(self, core_id: int) -> None:
        callback = self._pending.pop(core_id, None)
        if callback is None:
            raise ProtocolError(f"grant for core {core_id} with no pending request")
        callback()

    def end_run(self) -> None:
        """Fold every ST's pending occupancy samples into the stats."""
        for table in self.tables:
            table.flush_occupancy()

    # ------------------------------------------------------------------
    def destroy_var(self, var: SyncVar) -> None:
        """Table 2 ``destroy_syncvar``: drop any quiescent state."""
        for se in self.ses:
            entry = se.st.entries.get(var.addr)
            if entry is not None:
                entry.table_info = 0
                se.st.release_if_idle(entry)
            se.store.drop(var.addr)
        self.sem_initial.pop(var.addr, None)

    def core_unit(self, core_id: int) -> int:
        return self.system.cores[core_id].unit_id
