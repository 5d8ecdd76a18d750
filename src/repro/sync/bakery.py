"""Lamport-bakery software synchronization baseline (paper Sec. 2.2.1).

When the hardware provides no atomic read-modify-write operations at all,
synchronization can still be built from plain loads and stores with
Lamport's bakery algorithm [87] — at the cost of touching ``O(N)`` memory
locations per retry for ``N`` participating cores.  The paper cites this
scaling as the reason shared-memory synchronization without rmw support is
a non-starter on NDP systems; this module implements the baseline so the
``O(N)`` wall is measurable (see ``benchmarks/bench_ablations.py``).

Model
-----

Each synchronization variable owns a bakery array (``choosing[N]`` and
``number[N]``) in its home unit's memory.  All accesses are uncacheable
(shared read-write data bypasses the L1 per the baseline architecture), so
every load/store is a round trip to the home unit's DRAM:

- *taking a ticket* costs 2 stores + ``N`` loads (read every number to pick
  max+1) + 1 store;
- *one doorway scan* costs up to ``2N`` loads (``choosing[j]`` then
  ``number[j]`` per rival); a failed scan backs off and rescans.

The in-order core issues each access when the previous one returns, so a
whole ticket or scan is one
:meth:`~repro.sim.memsys.MemorySystem.uncacheable_burst`: every access is
still timed against the crossbars, links and DRAM banks, but the home unit
and route are resolved once per burst instead of once per word.

Ordering (who holds the lock) is tracked by ticket order, which the scans
discover; grant timing is when the winner's first *successful* scan
completes after the previous owner resets its number.

Higher-level primitives (barrier, semaphore, condition variable) follow the
textbook construction: a bakery lock guards the primitive's state word;
waiters poll the state word (one uncacheable load per poll) between
critical sections.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

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
from repro.sim.memsys import REQUEST_BYTES
from repro.sim.stats import charge_transfers
from repro.sim.syncif import MechanismBase, SpinWaitMixin, SyncVar, _no_waiter

#: bytes of one word-grain uncacheable access (header + payload).
WORD_BYTES = 16


class _BakeryLockState:
    """Logical state of one bakery lock: ticket order is FIFO.

    Ownership is per *ticket*, not per core: one core can have several
    acquisitions of the same lock in flight at once (an async ``sem_post``
    plus the next ``sem_wait`` both take the guard lock), and each must be
    granted exactly once.  Tracking the owner by core id let every parked
    attempt of the owning core believe it held the lock, enter the critical
    section, and double-release.
    """

    __slots__ = ("next_ticket", "owner", "owner_core", "queue", "held")

    def __init__(self) -> None:
        self.next_ticket = 1
        #: ticket currently in the critical section (None = free).
        self.owner: Optional[int] = None
        self.owner_core: Optional[int] = None
        #: parked acquisitions, FIFO: (ticket, core_id).
        self.queue: Deque[Tuple[int, int]] = deque()
        #: granted-but-unreleased tickets per core, in grant order.
        self.held: Dict[int, Deque[int]] = {}

    def take_ticket(self, core_id: int) -> int:
        """Join the bakery line; returns this acquisition's ticket.

        The caller learns whether it was granted immediately by comparing
        ``state.owner`` to the returned ticket.
        """
        ticket = self.next_ticket
        self.next_ticket += 1
        if self.owner is None and not self.queue:
            self._grant(ticket, core_id)
        else:
            self.queue.append((ticket, core_id))
        return ticket

    def _grant(self, ticket: int, core_id: int) -> None:
        self.owner = ticket
        self.owner_core = core_id
        self.held.setdefault(core_id, deque()).append(ticket)

    def release(self, core_id: int) -> None:
        held = self.held.get(core_id)
        if not held or self.owner != held[0]:
            raise RuntimeError(
                f"core {core_id} released a bakery lock owned by core "
                f"{self.owner_core} (ticket {self.owner})"
            )
        held.popleft()
        if not held:
            del self.held[core_id]
        if self.queue:
            self._grant(*self.queue.popleft())
        else:
            self.owner = None
            self.owner_core = None


class BakeryMechanism(SpinWaitMixin, MechanismBase):
    """Software synchronization from loads/stores only (``bakery``).

    Waiting is wait-channel based (no event per poll): doorway scanners
    park on the per-variable ``"L"`` channel, signalled by every lock
    release; state-word pollers park on the ``"W"`` channel, signalled
    whenever a guarded critical section actually changes a word.  A woken
    core runs one real, fully-charged rescan/attempt; the elided rounds in
    between are charged analytically (a virtual scan still pays its
    ``2N``-load traffic — the O(N) bakery wall survives elision).
    """

    name = "bakery"

    def __init__(self, system):
        super().__init__(system)
        self._locks: Dict[int, _BakeryLockState] = {}
        #: state words for barrier/semaphore/condvar (addr, field) -> value.
        self._words: Dict[Tuple[int, str], int] = {}
        self._sem_initialized: Dict[int, bool] = {}
        #: per-core duration of the most recent charged access sequence —
        #: the physical length of one poll, folded into the virtual period.
        self._seq_cycles: Dict[int, int] = {}
        self.scan_rounds = 0
        #: set by :meth:`_set_word` inside a critical section's observe
        #: hook; tells :meth:`_guarded_update` to signal the "W" channel.
        self._mutated = False
        self._init_spin_channels()

    # ------------------------------------------------------------------
    # Memory-access cost model
    # ------------------------------------------------------------------
    def _charge_sequence(self, core, var: SyncVar, loads: int, stores: int,
                         done: Callable[[], None]) -> None:
        """Charge ``stores`` then ``loads`` back-to-back uncacheable word
        accesses to ``var``'s home unit, then call ``done``.  One memory
        burst and one simulator event for the whole sequence (the in-order
        core cannot overlap them anyway)."""
        # Retry chains re-enter here from scheduled events, so re-establish
        # the requesting core's tenant as the attribution context.
        self.stats.active = getattr(core, "tstats", None)
        cycles = self.system.memsys.uncacheable_burst(
            core.unit_id, var.addr, self.sim.now, stores=stores, loads=loads,
            for_sync=True,
        )
        if core.unit_id == var.unit:
            self.stats.sync_messages_local += loads + stores
        else:
            self.stats.sync_messages_global += loads + stores
        self._seq_cycles[core.core_id] = cycles
        self.sim.schedule(cycles, done)

    def _charge_elided_loads(self, core, var: SyncVar, count: int) -> None:
        """Analytic traffic/energy of ``count`` elided uncacheable loads.

        Mirrors what ``count`` real polls through ``memsys.access`` plus
        :meth:`_charge_sequence`'s message accounting would charge (request
        + word response to the home unit, one DRAM read each, charged as
        row hits), without touching bank/link reservation state.
        """
        stats = self.stats
        stats.active = getattr(core, "tstats", None)
        tenant = stats.active
        home = var.unit
        local = core.unit_id == home
        if local:
            stats.sync_messages_local += count
            link_hops = 0
        else:
            stats.sync_messages_global += count
            link_hops = self.interconnect.remote_hops(core.unit_id, home)
        local_hops = self.config.local_hops
        charge_transfers(stats, REQUEST_BYTES, count, local,
                         local_hops, link_hops)
        charge_transfers(stats, REQUEST_BYTES + 8, count, local,
                         local_hops, link_hops)
        stats.dram_reads += count
        stats.dram_row_hits += count
        stats.sync_memory_accesses += count
        if tenant is not None:
            tenant.sync_memory_accesses += count

    def _set_word(self, var: SyncVar, field: str, value: int) -> None:
        """Write a state word from inside a critical section's observe
        hook, flagging the change so the section signals waiters."""
        key = (var.addr, field)
        if self._words.get(key, 0) != value:
            self._words[key] = value
            self._mutated = True

    @property
    def _backoff(self) -> int:
        return max(self.config.spin_backoff_cycles, 1)

    def _virtual_period(self, core) -> int:
        """Spacing between one waiter's virtual polls.

        The explicit chain re-polls one backoff after the previous poll's
        charged access sequence *completed* — a scan cannot overlap itself —
        so the honest period is that sequence's measured duration (the
        core's most recent :meth:`_charge_sequence`, which at every wait
        site is exactly the scan/probe being repeated) plus the backoff.
        Pacing virtual polls at the bare backoff would count and charge
        polls faster than the in-order core could physically issue them.
        """
        return self._seq_cycles.get(core.core_id, 1) + self._backoff

    @property
    def _n(self) -> int:
        """Participants the bakery arrays are sized for."""
        return self.config.total_clients

    def _lock_state(self, addr: int) -> _BakeryLockState:
        state = self._locks.get(addr)
        if state is None:
            state = _BakeryLockState()
            self._locks[addr] = state
        return state

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def request(self, core, op, var, info, callback) -> None:
        self._admit(core, op, var)
        if op == LOCK_ACQUIRE:
            self._lock_acquire(core, var, callback)
        elif op == LOCK_RELEASE:
            self._lock_release(core, var, callback)
        elif op in (BARRIER_WAIT_WITHIN_UNIT, BARRIER_WAIT_ACROSS_UNITS):
            self._barrier_wait(core, var, info, callback)
        elif op == SEM_WAIT:
            self._sem_wait(core, var, info, callback)
        elif op == SEM_POST:
            self._guarded_update(core, var, "sem", lambda v: v + 1, callback)
        elif op == COND_WAIT:
            self._cond_wait(core, var, info, callback)
        elif op == COND_SIGNAL:
            self._guarded_update(core, var, "credits", lambda v: v + 1, callback)
        elif op == COND_BROADCAST:
            self._guarded_update(core, var, "gen", lambda v: v + 1, callback)
        elif op == RW_READ_ACQUIRE:
            self._rw_acquire(core, var, callback, write=False)
        elif op == RW_READ_RELEASE:
            self._guarded_update(core, var, "readers", lambda v: v - 1, callback)
        elif op == RW_WRITE_ACQUIRE:
            self._rw_acquire(core, var, callback, write=True)
        elif op == RW_WRITE_RELEASE:
            self._guarded_update(core, var, "writer", lambda _v: 0, callback)
        else:
            raise ValueError(f"unknown sync op {op!r}")

    def request_async(self, core, op, var, info) -> int:
        self.request(core, op, var, info, callback=_no_waiter)
        return self.config.async_issue_cycles

    # ------------------------------------------------------------------
    # The bakery lock itself
    # ------------------------------------------------------------------
    def _lock_acquire(self, core, var, callback) -> None:
        state = self._lock_state(var.addr)
        ticket = state.take_ticket(core.core_id)
        n = self._n

        # Doorway: choosing[i]=1, read N numbers, number[i]=max+1,
        # choosing[i]=0 — 2 stores + N loads + 1 store.
        def after_doorway() -> None:
            if state.owner == ticket:
                # First scan still walks every rival once.
                self._charge_sequence(core, var, loads=2 * n, stores=0, done=callback)
            else:
                scan()

        def scan() -> None:
            self.scan_rounds += 1
            self.stats.extra["bakery_scans"] += 1

            def after_scan() -> None:
                if state.owner == ticket:
                    callback()
                else:
                    # Ownership can only change on a release, which signals
                    # the "L" channel; park instead of rescanning blind.
                    # The decision and the wait share this event frame, so
                    # no ``seen`` guard is needed.
                    channel = self._spin_channel(var.addr, "L")
                    delay = self._virtual_period(core)
                    channel.wait(self._scan_woken, delay, delay,
                                 core, var, scan)

            self._charge_sequence(core, var, loads=2 * n, stores=0, done=after_scan)

        self._charge_sequence(core, var, loads=n, stores=3, done=after_doorway)

    def _scan_woken(self, rounds: int, core, var, scan) -> None:
        """Account ``rounds`` elided doorway scans, then rescan for real."""
        if rounds:
            self.scan_rounds += rounds
            self.stats.extra["bakery_scans"] += rounds
            self._charge_elided_loads(core, var, 2 * self._n * rounds)
        scan()

    def _lock_release(self, core, var, callback) -> None:
        state = self._lock_state(var.addr)

        def after_store() -> None:
            state.release(core.core_id)
            # Wake every doorway scanner: each rescans once for real and
            # only the new FIFO owner proceeds — the O(N) release herd the
            # bakery algorithm is measured for.
            self._spin_signal(var.addr, "L")
            callback()

        # number[i] = 0: one store.
        self._charge_sequence(core, var, loads=0, stores=1, done=after_store)

    # ------------------------------------------------------------------
    # Guarded state updates (barrier / semaphore / condvar bodies)
    # ------------------------------------------------------------------
    def _guarded_update(self, core, var, field: str,
                        fn: Callable[[int], int], callback,
                        observe: Optional[Callable[[int, int], None]] = None) -> None:
        """bakery-lock(var) { old = word; word = fn(old) } unlock; callback.

        ``observe(old, new)`` runs inside the critical section.
        """
        def in_critical_section() -> None:
            key = (var.addr, field)
            old = self._words.get(key, 0)
            new = fn(old)
            changed = new != old
            if changed:
                self._words[key] = new
            self._mutated = False
            if observe is not None:
                observe(old, new)
            if changed or self._mutated:
                # A state word actually changed: wake the pollers.  Failed
                # attempts (identity updates) stay silent, so losing races
                # cannot cascade into wake storms.
                self._spin_signal(var.addr, "W")
            # read + write of the state word, then release.
            self._charge_sequence(core, var, loads=1, stores=1, done=release)

        def release() -> None:
            self._lock_release(core, var, callback)

        self._lock_acquire(core, var, in_critical_section)

    def _poll_until(self, core, var, field: str,
                    satisfied: Callable[[int], bool], callback) -> None:
        """Spin-load the state word until ``satisfied(value)``."""
        channel = self._spin_channel(var.addr, "W")

        def poll() -> None:
            def after_load() -> None:
                if satisfied(self._words.get((var.addr, field), 0)):
                    callback()
                else:
                    # Decision and wait share this frame: no seen guard.
                    self.stats.extra["bakery_polls"] += 1
                    delay = self._virtual_period(core)
                    channel.wait(self._poll_woken, delay, delay,
                                 core, var, poll)

            self._charge_sequence(core, var, loads=1, stores=0, done=after_load)

        poll()

    def _poll_woken(self, polls: int, core, var, poll) -> None:
        """Account ``polls`` elided word loads, then poll once for real."""
        if polls:
            self.stats.extra["bakery_polls"] += polls
            self._charge_elided_loads(core, var, polls)
        poll()

    # ------------------------------------------------------------------
    # Barrier / semaphore / condvar over the guarded word
    # ------------------------------------------------------------------
    def _barrier_wait(self, core, var, expected: int, callback) -> None:
        if expected < 1:
            raise ValueError("barrier needs a positive participant count")

        def on_arrival(old: int, new: int) -> None:
            if new >= expected:
                # Last arriver: reset count, bump generation (still inside
                # the critical section, so no extra lock round).
                self._set_word(var, "count", 0)
                self._set_word(var, "gen",
                               self._words.get((var.addr, "gen"), 0) + 1)
                arrival_outcome["last"] = True
            else:
                arrival_outcome["generation"] = self._words.get((var.addr, "gen"), 0)

        def after_update() -> None:
            if arrival_outcome.get("last"):
                callback()
            else:
                my_generation = arrival_outcome["generation"]
                self._poll_until(
                    core, var, "gen", lambda g: g > my_generation, callback
                )

        arrival_outcome: Dict[str, object] = {}
        self._guarded_update(
            core, var, "count", lambda v: v + 1, after_update, observe=on_arrival
        )

    def _sem_wait(self, core, var, initial: int, callback) -> None:
        if not self._sem_initialized.get(var.addr):
            self._sem_initialized[var.addr] = True
            self._words[(var.addr, "sem")] = initial

        channel = self._spin_channel(var.addr, "W")

        def attempt() -> None:
            outcome: Dict[str, int] = {}

            def on_value(old: int, _new: int) -> None:
                outcome["granted"] = old > 0
                # The sem word was *observed* in this frame; snapshot for
                # the lost-wakeup guard — a post completing between our
                # critical section and the wait registration must wake us.
                outcome["seen"] = channel.signals

            def after_update() -> None:
                if outcome["granted"]:
                    callback()
                else:
                    delay = self._virtual_period(core)
                    channel.wait(self._poll_woken, delay, delay,
                                 core, var, attempt, seen=outcome["seen"])

            self._guarded_update(
                core, var, "sem",
                lambda v: v - 1 if v > 0 else v,
                after_update, observe=on_value,
            )

        attempt()

    def _cond_wait(self, core, var, lock_var, callback) -> None:
        snapshot: Dict[str, int] = {}

        def on_snapshot(old: int, _new: int) -> None:
            snapshot["generation"] = self._words.get((var.addr, "gen"), 0)

        def after_snapshot() -> None:
            # Release the caller's lock, then poll for a wakeup.
            self._lock_release(core, lock_var, spin)

        def spin() -> None:
            my_generation = snapshot["generation"]

            def woken_by(credits_or_gen: int) -> bool:
                del credits_or_gen
                generation = self._words.get((var.addr, "gen"), 0)
                credits = self._words.get((var.addr, "credits"), 0)
                return generation > my_generation or credits > 0

            def consume() -> None:
                generation = self._words.get((var.addr, "gen"), 0)
                if generation > snapshot["generation"]:
                    reacquire()
                    return
                outcome: Dict[str, bool] = {}

                def on_credit(old: int, _new: int) -> None:
                    outcome["granted"] = old > 0

                def after_consume() -> None:
                    if outcome["granted"]:
                        reacquire()
                    else:
                        spin()

                self._guarded_update(
                    core, var, "credits",
                    lambda v: v - 1 if v > 0 else v,
                    after_consume, observe=on_credit,
                )

            self._poll_until(core, var, "credits", woken_by, consume)

        def reacquire() -> None:
            self._lock_acquire(core, lock_var, callback)

        # Snapshot the generation under the condvar's own bakery lock so a
        # broadcast cannot slip between snapshot and lock release unnoticed
        # (credits are counting, so signals cannot be lost either way).
        self._guarded_update(
            core, var, "gen", lambda v: v, after_snapshot, observe=on_snapshot
        )

    # ------------------------------------------------------------------
    # Reader-writer lock: readers/writer words guarded by the bakery lock
    # ------------------------------------------------------------------
    def _rw_acquire(self, core, var, callback, write: bool) -> None:
        channel = self._spin_channel(var.addr, "W")

        def attempt() -> None:
            outcome: Dict[str, int] = {}

            def try_take(_old: int, _new: int) -> None:
                readers = self._words.get((var.addr, "readers"), 0)
                writer = self._words.get((var.addr, "writer"), 0)
                outcome["seen"] = channel.signals
                if write:
                    if readers == 0 and writer == 0:
                        self._set_word(var, "writer", 1)
                        outcome["granted"] = True
                    else:
                        outcome["granted"] = False
                else:
                    if writer == 0:
                        self._set_word(var, "readers", readers + 1)
                        outcome["granted"] = True
                    else:
                        outcome["granted"] = False

            def after_update() -> None:
                if outcome["granted"]:
                    callback()
                else:
                    delay = self._virtual_period(core)
                    channel.wait(self._poll_woken, delay, delay,
                                 core, var, attempt, seen=outcome["seen"])

            # The guarded field is irrelevant (identity update); try_take
            # inspects and mutates both rw words inside the critical section.
            self._guarded_update(
                core, var, "rw_probe", lambda v: v, after_update, observe=try_take
            )

        attempt()

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def word(self, var: SyncVar, field: str) -> int:
        return self._words.get((var.addr, field), 0)

    def lock_owner(self, var: SyncVar) -> Optional[int]:
        state = self._locks.get(var.addr)
        return state.owner_core if state else None

    def destroy_var(self, var: SyncVar) -> None:
        self._locks.pop(var.addr, None)
        self._sem_initialized.pop(var.addr, None)
        for field in ("count", "gen", "sem", "credits", "readers", "writer",
                      "rw_probe"):
            self._words.pop((var.addr, field), None)
