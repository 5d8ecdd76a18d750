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
- **User-level rmw** (Sec. 4.4.1) — this baseline's native operation.

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
from repro.sim.stats import charge_transfers
from repro.sim.syncif import MechanismBase, SpinWaitMixin, SyncVar, _no_waiter

#: bytes of an rmw request / response message (address + opcode + operand).
RMW_REQUEST_BYTES = 18
RMW_RESPONSE_BYTES = 10

#: cycles the atomic unit's ALU adds on top of the DRAM bank access.
ALU_CYCLES = 1

#: writer bit of the reader-writer lock word (low bits count readers).
WRITER_BIT = 1 << 62


class AtomicUnit:
    """The rmw unit at one NDP unit's memory controller.

    A single serially-reused resource: each visit performs one DRAM bank
    access (the atomic's read-modify-write at the controller) plus an ALU
    cycle.  Visits are serialized with a reservation cursor; queueing delay
    emerges under contention — the "hotspot" effect of Sec. 2.2.1.
    """

    def __init__(self, mech: "RemoteAtomicsMechanism", unit_id: int):
        self.mech = mech
        self.unit_id = unit_id
        self._next_free = 0
        self.visits = 0

    def visit(self, addr: int, is_write: bool, arrival: int) -> Tuple[int, int]:
        """Reserve the unit; returns ``(start, completion)`` times."""
        start = max(arrival, self._next_free)
        dram = self.mech.system.drams[self.unit_id]
        service = dram.access(addr, is_write=is_write, now=start) + ALU_CYCLES
        self._next_free = start + service
        self.visits += 1
        self.mech.stats.sync_memory_accesses += 1
        return start, start + service


class RemoteAtomicsMechanism(SpinWaitMixin, MechanismBase):
    """Spin-wait synchronization over remote atomic units (``rmw_spin``).

    Waiting cores park on a per-``(addr, field)`` wait-channel instead of
    scheduling one event per poll; any rmw that actually changes the field
    signals the channel, and the kernel wakes each waiter at the exact
    cycle its next backoff-spaced poll would have landed.  The woken core
    issues one real rmw attempt (full traffic, hotspot queueing at the
    home :class:`AtomicUnit`); the elided polls in between are charged
    analytically by :meth:`_charge_elided_polls`.
    """

    name = "rmw_spin"
    #: the sync ops this baseline implements.
    OPS = (LOCK_ACQUIRE, LOCK_RELEASE, SEM_WAIT, SEM_POST, RW_READ_ACQUIRE,
           RW_READ_RELEASE, RW_WRITE_ACQUIRE, RW_WRITE_RELEASE)

    def __init__(self, system):
        super().__init__(system)
        self.atomic_units = [
            AtomicUnit(self, u) for u in range(self.config.num_units)
        ]
        #: word values held at the controllers, keyed by (addr, field).
        self._fields: Dict[Tuple[int, str], int] = {}
        self._sem_initialized: Dict[int, bool] = {}
        #: per-core duration of the most recent rmw round trip — the
        #: physical length of one poll, folded into the virtual period.
        self._rtt: Dict[int, int] = {}
        self.spin_retries = 0
        self._init_spin_channels()

    # ------------------------------------------------------------------
    # Low-level: one rmw (or pure load) round trip to the home unit
    # ------------------------------------------------------------------
    def _rmw(
        self,
        core,
        var: SyncVar,
        field: str,
        fn: Optional[Callable[[int], int]],
        callback: Callable[[int], None],
    ) -> None:
        """Visit ``var``'s atomic unit; ``callback(old_value)`` fires when
        the response reaches the core.  ``fn=None`` is a pure load."""
        home = var.unit
        now = self.sim.now
        if core.unit_id == home:
            self.stats.sync_messages_local += 2  # request + response
        else:
            self.stats.sync_messages_global += 2
        latency = self.interconnect.transfer_latency(
            core.unit_id, home, now, RMW_REQUEST_BYTES
        )
        _, done = self.atomic_units[home].visit(
            var.addr, is_write=fn is not None, arrival=now + latency
        )
        key = (var.addr, field)
        old = self._fields.get(key, 0)
        if fn is not None:
            new = fn(old)
            if new != old:
                self._fields[key] = new
                # The field's observable value changed at this instant in
                # the legacy polling model too (words mutate at issue
                # time); wake anyone spin-waiting on it.
                self._spin_signal(var.addr, field)
        back = self.interconnect.transfer_latency(
            home, core.unit_id, done, RMW_RESPONSE_BYTES
        )
        self._rtt[core.core_id] = (done + back) - now
        self.sim.schedule_at(done + back, callback, old)

    def _retry(self, core, var: SyncVar, channel, attempt: Callable[[], None],
               seen: int) -> None:
        """Park until ``channel`` is signalled, then re-attempt.

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
        self.spin_retries += 1
        self.stats.extra["spin_retries"] += 1
        delay = (self.config.spin_backoff_cycles + (core.core_id % 7)
                 + self._rtt.get(core.core_id, 0))
        if delay < 1:
            delay = 1
        channel.wait(self._woken, delay, delay, core, var, attempt, seen=seen)

    def _woken(self, polls: int, core, var: SyncVar,
               attempt: Callable[[], None]) -> None:
        """Account the elided polls, then run one real attempt."""
        if polls:
            self.spin_retries += polls
            self.stats.extra["spin_retries"] += polls
            self._charge_elided_polls(core, var, polls)
        attempt()

    def _charge_elided_polls(self, core, var: SyncVar, count: int) -> None:
        """Analytic traffic/energy of ``count`` elided spin polls.

        Each virtual poll is what one legacy retry issued: an rmw request
        and response to the home unit plus one controller-side DRAM read
        (charged as a row hit — spin polls hammer one open row).  Counters
        and energy match the legacy charge; reservation state (banks,
        links, crossbar load) is deliberately untouched — see the model
        notes in EXPERIMENTS.md.
        """
        stats = self.stats
        home = var.unit
        local = core.unit_id == home
        if local:
            stats.sync_messages_local += 2 * count
            link_hops = 0
        else:
            stats.sync_messages_global += 2 * count
            link_hops = self.interconnect.remote_hops(core.unit_id, home)
        local_hops = self.config.local_hops
        charge_transfers(stats, RMW_REQUEST_BYTES, count, local,
                         local_hops, link_hops)
        charge_transfers(stats, RMW_RESPONSE_BYTES, count, local,
                         local_hops, link_hops)
        stats.dram_reads += count
        stats.dram_row_hits += count
        stats.sync_memory_accesses += count

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def request(self, core, op, var, info, callback) -> None:
        self._admit(op, var)
        if op == LOCK_ACQUIRE:
            self._lock_acquire(core, var, callback)
        elif op == LOCK_RELEASE:
            self._lock_release(core, var, callback)
        elif op == SEM_WAIT:
            self._sem_wait(core, var, info, callback)
        elif op == SEM_POST:
            self._sem_post(core, var, callback)
        elif op == RW_READ_ACQUIRE:
            self._rw_read_acquire(core, var, callback)
        elif op == RW_READ_RELEASE:
            self._rmw(core, var, "rw", lambda w: w - 1, lambda _old: callback())
        elif op == RW_WRITE_ACQUIRE:
            self._rw_write_acquire(core, var, callback)
        elif op == RW_WRITE_RELEASE:
            self._rmw(
                core, var, "rw", lambda w: w & ~WRITER_BIT,
                lambda _old: callback(),
            )
        else:
            raise self._unimplemented(op)

    def request_async(self, core, op, var, info) -> int:
        # Releases are fire-and-forget: the rmw travels, nobody waits.
        self.request(core, op, var, info, callback=_no_waiter)
        return self.config.async_issue_cycles

    # ------------------------------------------------------------------
    # Lock: test-and-set spin
    # ------------------------------------------------------------------
    def _lock_acquire(self, core, var, callback) -> None:
        channel = self._spin_channel(var.addr, "lock")
        seen = 0

        def attempt() -> None:
            nonlocal seen
            self._rmw(core, var, "lock", lambda _old: 1, on_old)
            # Snapshot after the issue frame's own mutations/signals so a
            # release landing before the response wakes us (seen guard),
            # but our own TAS write cannot.
            seen = channel.signals

        def on_old(old: int) -> None:
            if old == 0:
                callback()
            else:
                self._retry(core, var, channel, attempt, seen)

        attempt()

    def _lock_release(self, core, var, callback) -> None:
        self._rmw(core, var, "lock", lambda _old: 0, lambda _old: callback())

    # ------------------------------------------------------------------
    # Semaphore: load + CAS loop
    # ------------------------------------------------------------------
    def _sem_wait(self, core, var, initial: int, callback) -> None:
        if not self._sem_initialized.get(var.addr):
            self._sem_initialized[var.addr] = True
            self._fields[(var.addr, "sem")] = initial

        channel = self._spin_channel(var.addr, "sem")
        seen = 0

        def attempt() -> None:
            nonlocal seen
            self._rmw(core, var, "sem", None, on_load)
            seen = channel.signals

        def on_load(value: int) -> None:
            if value <= 0:
                self._retry(core, var, channel, attempt, seen)
                return

            def on_cas(old: int) -> None:
                if old == value:
                    callback()
                else:
                    self._retry(core, var, channel, attempt, seen)

            # CAS(value -> value - 1); succeeds iff nobody raced us.  The
            # retry guard stays at the *load's* issue-frame snapshot: a
            # failed CAS means the word changed since that observation, and
            # any post landing in the load->CAS window must trip the guard
            # (re-snapshotting here once swallowed a final post and parked
            # the waiter forever beside a positive semaphore).
            self._rmw(
                core, var, "sem",
                lambda cur: cur - 1 if cur == value else cur,
                on_cas,
            )

        attempt()

    def _sem_post(self, core, var, callback) -> None:
        self._rmw(core, var, "sem", lambda v: v + 1, lambda _old: callback())

    # ------------------------------------------------------------------
    # Reader-writer lock: writer bit + reader count in one word
    # ------------------------------------------------------------------
    # Reader-preference spin scheme (the natural remote-atomics
    # construction): readers fetch_add(1) and back off when the writer bit
    # was set; writers CAS 0 -> WRITER_BIT.  Unlike SynCron's fair FIFO,
    # writers can starve under a steady reader stream — one of the
    # qualitative deficiencies of spin-based synchronization the paper's
    # Table 4 alludes to.

    def _rw_read_acquire(self, core, var, callback) -> None:
        channel = self._spin_channel(var.addr, "rw")
        seen = 0

        def attempt() -> None:
            nonlocal seen
            self._rmw(core, var, "rw", lambda w: w + 1, on_old)
            seen = channel.signals

        def on_old(old: int) -> None:
            if old & WRITER_BIT:
                # Writer active: undo the optimistic increment and retry.
                # The retry decision is based on ``old``, observed at the
                # increment's issue frame — so the seen baseline is the
                # snapshot taken there (it already covers our own increment
                # signal), plus one for the undo below, whose decrement of a
                # positive count always changes the word and signals.  Any
                # other signal between the increment and the park — e.g. a
                # writer releasing while our response was in flight — then
                # trips the guard and wakes us immediately.
                expect = seen + 1
                self._rmw(
                    core, var, "rw", lambda w: w - 1,
                    lambda _old: self._retry(core, var, channel, attempt, expect),
                )
            else:
                callback()

        attempt()

    def _rw_write_acquire(self, core, var, callback) -> None:
        channel = self._spin_channel(var.addr, "rw")
        seen = 0

        def attempt() -> None:
            nonlocal seen
            self._rmw(
                core, var, "rw",
                lambda w: WRITER_BIT if w == 0 else w,
                on_old,
            )
            seen = channel.signals

        def on_old(old: int) -> None:
            if old == 0:
                callback()
            else:
                self._retry(core, var, channel, attempt, seen)

        attempt()

    # ------------------------------------------------------------------
    # User-level atomic rmw (Sec. 4.4.1): this baseline's native operation
    # ------------------------------------------------------------------
    def rmw(self, core, addr: int, op: str, operand: int, callback) -> None:
        from repro.core.rmw import RMW_OPS

        fn = RMW_OPS.get(op)
        if fn is None:
            raise ValueError(f"unknown rmw op {op!r}")
        home = self.system.addrmap.unit_of(addr)
        now = self.sim.now
        if core.unit_id == home:
            self.stats.sync_messages_local += 2
        else:
            self.stats.sync_messages_global += 2
        self.stats.extra["rmw_ops"] += 1
        latency = self.interconnect.transfer_latency(
            core.unit_id, home, now, RMW_REQUEST_BYTES
        )
        _, done = self.atomic_units[home].visit(
            addr, is_write=True, arrival=now + latency
        )
        key = (addr, "user")
        old = self._fields.get(key, 0)
        self._fields[key] = fn(old, operand)
        back = self.interconnect.transfer_latency(
            home, core.unit_id, done, RMW_RESPONSE_BYTES
        )
        self.sim.schedule_at(done + back, callback, old)

    def rmw_value(self, addr: int) -> int:
        return self._fields.get((addr, "user"), 0)

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def field_value(self, var: SyncVar, field: str) -> int:
        return self._fields.get((var.addr, field), 0)

    def destroy_var(self, var: SyncVar) -> None:
        for field in ("lock", "sem", "rw"):
            self._fields.pop((var.addr, field), None)
        self._sem_initialized.pop(var.addr, None)
