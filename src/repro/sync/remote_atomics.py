"""Remote-atomics spin-wait baseline (paper Sec. 2.2.1).

GPUs, MPPs, and the HMC-based NDP design of Gao et al. [43] support atomic
read-modify-write operations in hardware units at the memory controllers
(*remote atomics*).  Synchronization primitives built on them use a
spin-wait scheme: every retry is another rmw message to the variable's
*fixed* home location.  The paper argues this creates high global traffic
and hotspots in NDP systems — this module implements that baseline so the
claim can be measured (see ``benchmarks/bench_ablations.py``).

Implementation sketch (one honest spin algorithm per primitive):

- **Lock** — test-and-set: ``swap(1)``; acquired iff the old value was 0.
  Release is ``swap(0)``.  Failed attempts retry after a backoff.
- **Semaphore** — load + compare-and-swap loop decrementing a positive
  value (two messages per attempt under contention).
- **Reader-writer lock** — a writer bit plus a reader count in one word.

The three primitives are the ones experiments measure: the lock
(``ext_spin``, the e2ebench ``spin`` workload), the semaphore (e2ebench
``spin``) and the reader-writer lock (``ext_rwlock``).  Barriers and
condition variables raise :class:`NotImplementedError`.

Every atomic visit and every spin-load travels to the home unit's
:class:`AtomicUnit` (crossbar, inter-unit link when remote, one DRAM bank
access, ALU cycle) — exactly the traffic pattern the paper's Sec. 2.2.1
criticizes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.sim.dram import DramDevice
from repro.sim.program import (
    LOCK_ACQUIRE,
    LOCK_RELEASE,
    RW_READ_ACQUIRE,
    RW_READ_RELEASE,
    RW_WRITE_ACQUIRE,
    RW_WRITE_RELEASE,
    SEM_POST,
    SEM_WAIT,
)
from repro.sim.stats import SystemStats
from repro.sim.syncif import MechanismBase, SpinWaitMixin, SyncVar
from repro.sim.system import mechanism_ops

#: bytes of an rmw request / response message (address + opcode + operand).
RMW_REQUEST_BYTES = 18
RMW_RESPONSE_BYTES = 10

#: cycles the atomic unit's ALU adds on top of the DRAM bank access.
ALU_CYCLES = 1

#: writer bit of the reader-writer lock word (low bits count readers).
WRITER_BIT = 1 << 62

#: an rmw's field update at the controller: ``update(old, operand) -> new``.
Update = Callable[[int, int], int]


class AtomicUnit:
    """The rmw unit at one NDP unit's memory controller.

    A single serially-reused resource: each visit performs one DRAM bank
    access (the atomic's read-modify-write at the controller) plus an ALU
    cycle.  Visits are serialized with a reservation cursor; queueing delay
    emerges under contention — the "hotspot" effect of Sec. 2.2.1.
    """

    __slots__ = ("dram", "stats", "_next_free", "visits")

    def __init__(self, dram: DramDevice, stats: SystemStats):
        #: the memory of this unit, which every visit accesses.
        self.dram = dram
        self.stats = stats
        self._next_free = 0
        self.visits = 0

    def visit(self, addr: int, is_write: bool, arrival: int) -> int:
        """Reserve the unit; returns the visit's completion time."""
        start = self._next_free
        if arrival > start:
            start = arrival
        done = start + self.dram.access(addr, is_write, start) + ALU_CYCLES
        self._next_free = done
        self.visits += 1
        self.stats.sync_memory_accesses += 1
        return done


# The field updates (:data:`Update`) the rmw attempts apply: module-level,
# so an attempt builds no closure.  Only the CAS reads ``operand``.
def _set_held(_old: int, _operand: int) -> int:
    return 1


def _set_free(_old: int, _operand: int) -> int:
    return 0


def _increment(old: int, _operand: int) -> int:
    return old + 1


def _decrement(old: int, _operand: int) -> int:
    return old - 1


def _decrement_if_unchanged(old: int, expected: int) -> int:
    return old - 1 if old == expected else old


def _claim_writer(old: int, _operand: int) -> int:
    return WRITER_BIT if old == 0 else old


def _clear_writer(old: int, _operand: int) -> int:
    return old & ~WRITER_BIT


def _respond(_old: int, callback: Callable[[], None]) -> None:
    """A release's response handler: the old value is not read."""
    callback()


class RemoteAtomicsMechanism(SpinWaitMixin, MechanismBase):
    """Spin-wait synchronization over remote atomic units (``rmw_spin``).

    Waiting cores park on a per-``(addr, field)`` wait-channel instead of
    scheduling one event per poll; any rmw that actually changes the field
    signals the channel, and the kernel wakes each waiter at the exact
    cycle its next backoff-spaced poll would have landed.  The woken core
    issues one real rmw attempt (full traffic, hotspot queueing at the
    home :class:`AtomicUnit`); the elided polls in between are charged
    analytically (:meth:`SpinWaitMixin._charge_elided_polls
    <repro.sim.syncif.SpinWaitMixin._charge_elided_polls>`).
    """

    name = "rmw_spin"
    #: the sync ops this baseline implements (``MECHANISMS`` declares them).
    OPS = mechanism_ops("rmw_spin")

    def __init__(self, system):
        super().__init__(system)
        self.atomic_units = [AtomicUnit(dram, self.stats)
                             for dram in system.drams]
        #: word values held at the controllers, keyed by (addr, field).
        self._fields: Dict[Tuple[int, str], int] = {}
        self._sem_initialized: Dict[int, bool] = {}
        #: per-core duration of the most recent rmw round trip — the
        #: physical length of one poll, folded into the virtual period.
        self._rtt: Dict[int, int] = {}
        self._init_spin_channels()

    # ------------------------------------------------------------------
    # Low-level: one rmw (or pure load) round trip to the home unit
    # ------------------------------------------------------------------
    def _visit(self, core, var: SyncVar, field: str,
               update: Optional[Update], operand: int = 0) -> Tuple[int, int]:
        """Send one rmw to ``var``'s atomic unit and set the field to
        ``update(old, operand)`` (``update=None`` is a pure load); returns
        ``(response arrival at the core, old value)``."""
        home = var.unit
        unit = core.unit_id
        now = self.sim.now
        if unit == home:
            self.stats.sync_messages_local += 2  # request + response
        else:
            self.stats.sync_messages_global += 2
        transfer = self.interconnect.transfer_latency
        addr = var.addr
        done = self.atomic_units[home].visit(
            addr, update is not None,
            now + transfer(unit, home, now, RMW_REQUEST_BYTES))
        key = (addr, field)
        old = self._fields.get(key, 0)
        if update is not None:
            new = update(old, operand)
            if new != old:
                self._fields[key] = new
                # The field's observable value changed at this instant in
                # the legacy polling model too (words mutate at issue
                # time); wake anyone spin-waiting on it.
                self._spin_signal(addr, field)
        arrival = done + transfer(home, unit, done, RMW_RESPONSE_BYTES)
        self._rtt[core.core_id] = arrival - now
        return arrival, old

    def _rmw(self, core, var: SyncVar, field: str, update: Update,
             operand: int, callback: Callable[..., None], *args) -> None:
        """One rmw round trip; ``callback(old_value, *args)`` fires when
        the response reaches the core."""
        arrival, old = self._visit(core, var, field, update, operand)
        self.sim.schedule_at(arrival, callback, old, *args)

    def _retry(self, core, var: SyncVar, channel,
               attempt: Callable[..., None], seen: int, callback) -> None:
        """Park until ``channel`` is signalled, then run
        ``attempt(core, var, channel, callback)`` again.

        The virtual polls keep the legacy spin cadence: a retry starts one
        backoff after the previous attempt's *response arrived*, and its
        own decision point lands a full round trip later — so the poll
        period is backoff + the core's measured rmw round trip (pacing at
        the bare backoff would count polls faster than the core could
        physically issue them), with a small per-core phase offset
        breaking lockstep so no core can lose every race against an
        identically-timed rival forever.  ``seen`` is the caller's
        ``channel.signals`` snapshot from the attempt's issue frame (the
        lost-wakeup guard).
        """
        self.stats.extra["spin_retries"] += 1
        delay = (self.config.spin_backoff_cycles + (core.core_id % 7)
                 + self._rtt.get(core.core_id, 0))
        if delay < 1:
            delay = 1
        channel.wait(self._woken, delay, delay, core, var, channel, attempt,
                     callback, seen=seen)

    def _woken(self, polls: int, core, var: SyncVar, channel,
               attempt: Callable[..., None], callback) -> None:
        """Account the elided polls, then run one real attempt."""
        if polls:
            self.stats.extra["spin_retries"] += polls
            # Each elided poll is one legacy retry: an rmw request and
            # response plus one controller-side DRAM read.
            self._charge_elided_polls(core, var, polls, RMW_REQUEST_BYTES,
                                      RMW_RESPONSE_BYTES, 2)
        attempt(core, var, channel, callback)

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def request(self, core, op, var, info, callback) -> None:
        self._admit(op, var)
        if op == LOCK_ACQUIRE:
            channel = self._spin_channel(var.addr, "lock")
            self._lock_attempt(core, var, channel, callback)
        elif op == LOCK_RELEASE:
            self._rmw(core, var, "lock", _set_free, 0, _respond, callback)
        elif op == SEM_WAIT:
            self._sem_wait(core, var, info, callback)
        elif op == SEM_POST:
            self._rmw(core, var, "sem", _increment, 0, _respond, callback)
        elif op == RW_READ_ACQUIRE:
            channel = self._spin_channel(var.addr, "rw")
            self._rw_read_attempt(core, var, channel, callback)
        elif op == RW_READ_RELEASE:
            self._rmw(core, var, "rw", _decrement, 0, _respond, callback)
        elif op == RW_WRITE_ACQUIRE:
            channel = self._spin_channel(var.addr, "rw")
            self._rw_write_attempt(core, var, channel, callback)
        elif op == RW_WRITE_RELEASE:
            self._rmw(core, var, "rw", _clear_writer, 0, _respond, callback)
        else:
            raise self._unimplemented(op)

    # Every spin loop below is a set of methods that take the request's
    # state as arguments: closures that reschedule each other would leave
    # one reference cycle per request.  An attempt passes its response
    # handler ``seen``, the channel's ``signals`` right after its own
    # issue frame, so a change landing before the response wakes the
    # retry (the lost-wakeup guard), but the attempt's own write cannot.

    # ------------------------------------------------------------------
    # Lock: test-and-set spin
    # ------------------------------------------------------------------
    def _lock_attempt(self, core, var, channel, callback) -> None:
        arrival, old = self._visit(core, var, "lock", _set_held)
        self.sim.schedule_at(arrival, self._lock_swapped, old, core, var,
                             channel, channel.signals, callback)

    def _lock_swapped(self, old: int, core, var, channel, seen: int,
                      callback) -> None:
        if old == 0:
            callback()
        else:
            self._retry(core, var, channel, self._lock_attempt, seen,
                        callback)

    # ------------------------------------------------------------------
    # Semaphore: load + CAS loop
    # ------------------------------------------------------------------
    def _sem_wait(self, core, var, initial: int, callback) -> None:
        if not self._sem_initialized.get(var.addr):
            self._sem_initialized[var.addr] = True
            self._fields[(var.addr, "sem")] = initial
        channel = self._spin_channel(var.addr, "sem")
        self._sem_attempt(core, var, channel, callback)

    def _sem_attempt(self, core, var, channel, callback) -> None:
        arrival, value = self._visit(core, var, "sem", None)
        self.sim.schedule_at(arrival, self._sem_loaded, value, core, var,
                             channel, channel.signals, callback)

    def _sem_loaded(self, value: int, core, var, channel, seen: int,
                    callback) -> None:
        if value <= 0:
            self._retry(core, var, channel, self._sem_attempt, seen,
                        callback)
            return
        # CAS(value -> value - 1); succeeds iff nobody raced us.  The
        # retry guard stays at the *load's* issue-frame snapshot: a failed
        # CAS means the word changed since that observation, and any post
        # landing in the load->CAS window must trip the guard
        # (re-snapshotting here once swallowed a final post and parked the
        # waiter forever beside a positive semaphore).
        self._rmw(core, var, "sem", _decrement_if_unchanged, value,
                  self._sem_swapped, value, core, var, channel, seen, callback)

    def _sem_swapped(self, old: int, value: int, core, var, channel,
                     seen: int, callback) -> None:
        if old == value:
            callback()
        else:
            self._retry(core, var, channel, self._sem_attempt, seen,
                        callback)

    # ------------------------------------------------------------------
    # Reader-writer lock: writer bit + reader count in one word
    # ------------------------------------------------------------------
    # Reader-preference spin scheme (the natural remote-atomics
    # construction): readers fetch_add(1) and back off when the writer bit
    # was set; writers CAS 0 -> WRITER_BIT.  Unlike SynCron's fair FIFO,
    # writers can starve under a steady reader stream — one of the
    # qualitative deficiencies of spin-based synchronization the paper's
    # Table 4 alludes to.

    def _rw_read_attempt(self, core, var, channel, callback) -> None:
        arrival, old = self._visit(core, var, "rw", _increment)
        self.sim.schedule_at(arrival, self._rw_read_added, old, core, var,
                             channel, channel.signals, callback)

    def _rw_read_added(self, old: int, core, var, channel, seen: int,
                       callback) -> None:
        if not old & WRITER_BIT:
            callback()
            return
        # Writer active: undo the optimistic increment and retry.  The
        # retry decision is based on ``old``, observed at the increment's
        # issue frame — so the seen baseline is the snapshot taken there
        # (it already covers our own increment signal), plus one for the
        # undo below, whose decrement of a positive count always changes
        # the word and signals.  Any other signal between the increment
        # and the park — e.g. a writer releasing while our response was in
        # flight — then trips the guard and wakes us immediately.
        self._rmw(core, var, "rw", _decrement, 0, self._rw_read_undone,
                  core, var, channel, seen + 1, callback)

    def _rw_read_undone(self, _old: int, core, var, channel, seen: int,
                        callback) -> None:
        self._retry(core, var, channel, self._rw_read_attempt, seen,
                    callback)

    def _rw_write_attempt(self, core, var, channel, callback) -> None:
        arrival, old = self._visit(core, var, "rw", _claim_writer)
        self.sim.schedule_at(arrival, self._rw_write_claimed, old, core, var,
                             channel, channel.signals, callback)

    def _rw_write_claimed(self, old: int, core, var, channel, seen: int,
                          callback) -> None:
        if old == 0:
            callback()
        else:
            self._retry(core, var, channel, self._rw_write_attempt, seen,
                        callback)

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def field_value(self, var: SyncVar, field: str) -> int:
        return self._fields.get((var.addr, field), 0)

    def destroy_var(self, var: SyncVar) -> None:
        for field in ("lock", "sem", "rw"):
            self._fields.pop((var.addr, field), None)
        self._sem_initialized.pop(var.addr, None)
