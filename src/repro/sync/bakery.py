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

Only the lock is implemented: it is the primitive the Sec. 2.2.1
comparison measures (``ext_spin``, the e2ebench ``spin`` workload).  Any
other op raises :class:`NotImplementedError`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.sim.program import LOCK_ACQUIRE, LOCK_RELEASE
from repro.sim.memsys import REQUEST_BYTES
from repro.sim.syncif import MechanismBase, SpinWaitMixin, SyncVar, _no_waiter

#: bytes of one word-grain uncacheable access (header + payload).
WORD_BYTES = 16


class _BakeryLockState:
    """Logical state of one bakery lock: ticket order is FIFO.

    Ownership is per *ticket*, not per core: one core can have several
    acquisitions of the same lock in flight at once (an async
    ``lock_release`` still storing while the next ``lock_acquire`` takes a
    ticket), and each must be granted exactly once.  Tracking the owner by
    core id let every parked attempt of the owning core believe it held the
    lock, enter the critical section, and double-release.
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
    release.  A woken core runs one real, fully-charged rescan; the elided
    rounds in between are charged analytically (a virtual scan still pays
    its ``2N``-load traffic — the O(N) bakery wall survives elision).
    """

    #: the sync ops this baseline implements.
    OPS = (LOCK_ACQUIRE, LOCK_RELEASE)

    name = "bakery"

    def __init__(self, system):
        super().__init__(system)
        self._locks: Dict[int, _BakeryLockState] = {}
        #: per-core duration of the most recent charged access sequence —
        #: the physical length of one poll, folded into the virtual period.
        self._seq_cycles: Dict[int, int] = {}
        #: participants the bakery arrays are sized for.
        self._n = self.config.total_clients
        self.scan_rounds = 0
        self._init_spin_channels()

    # ------------------------------------------------------------------
    # Memory-access cost model
    # ------------------------------------------------------------------
    def _charge_sequence(self, core, var: SyncVar, loads: int, stores: int,
                         done: Callable[..., None], *args) -> None:
        """Charge ``stores`` then ``loads`` back-to-back uncacheable word
        accesses to ``var``'s home unit, then call ``done(*args)``.  One
        memory burst and one simulator event for the whole sequence (the
        in-order core cannot overlap them anyway)."""
        cycles = self.system.memsys.uncacheable_burst(
            core.unit_id, var.addr, self.sim.now, stores=stores, loads=loads,
            for_sync=True,
        )
        if core.unit_id == var.unit:
            self.stats.sync_messages_local += loads + stores
        else:
            self.stats.sync_messages_global += loads + stores
        self._seq_cycles[core.core_id] = cycles
        self.sim.schedule(cycles, done, *args)

    @property
    def _backoff(self) -> int:
        return max(self.config.spin_backoff_cycles, 1)

    def _virtual_period(self, core) -> int:
        """Spacing between one waiter's virtual polls.

        The explicit chain re-polls one backoff after the previous poll's
        charged access sequence *completed* — a scan cannot overlap itself —
        so the honest period is that sequence's measured duration (the
        core's most recent :meth:`_charge_sequence`, which is exactly the
        scan being repeated) plus the backoff.
        Pacing virtual polls at the bare backoff would count and charge
        polls faster than the in-order core could physically issue them.
        """
        return self._seq_cycles.get(core.core_id, 1) + self._backoff

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
        self._admit(op, var)
        if op == LOCK_ACQUIRE:
            self._lock_acquire(core, var, callback)
        elif op == LOCK_RELEASE:
            self._lock_release(core, var, callback)
        else:
            raise self._unimplemented(op)

    def request_async(self, core, op, var, info) -> int:
        self.request(core, op, var, info, callback=_no_waiter)
        return self.config.async_issue_cycles

    # ------------------------------------------------------------------
    # The bakery lock itself
    # ------------------------------------------------------------------
    # Each step is a method that takes the acquisition's state as
    # arguments: closures that reschedule themselves would leave one
    # reference cycle per request.
    def _lock_acquire(self, core, var, callback) -> None:
        state = self._lock_state(var.addr)
        ticket = state.take_ticket(core.core_id)
        # Doorway: choosing[i]=1, read N numbers, number[i]=max+1,
        # choosing[i]=0 — 2 stores + N loads + 1 store.
        self._charge_sequence(core, var, self._n, 3, self._after_doorway,
                              core, var, state, ticket, callback)

    def _after_doorway(self, core, var, state, ticket, callback) -> None:
        if state.owner == ticket:
            # First scan still walks every rival once.
            self._charge_sequence(core, var, 2 * self._n, 0, callback)
        else:
            self._scan(core, var, state, ticket, callback)

    def _scan(self, core, var, state, ticket, callback) -> None:
        self.scan_rounds += 1
        self.stats.extra["bakery_scans"] += 1
        self._charge_sequence(core, var, 2 * self._n, 0, self._after_scan,
                              core, var, state, ticket, callback)

    def _after_scan(self, core, var, state, ticket, callback) -> None:
        if state.owner == ticket:
            callback()
            return
        # Ownership can only change on a release, which signals the "L"
        # channel; park instead of rescanning blind.  The decision and
        # the wait share this event frame, so no ``seen`` guard is needed.
        channel = self._spin_channel(var.addr, "L")
        delay = self._virtual_period(core)
        channel.wait(self._scan_woken, delay, delay,
                     core, var, state, ticket, callback)

    def _scan_woken(self, rounds: int, core, var, state, ticket,
                    callback) -> None:
        """Account ``rounds`` elided doorway scans, then rescan for real."""
        if rounds:
            self.scan_rounds += rounds
            self.stats.extra["bakery_scans"] += rounds
            # Each elided scan is 2N uncacheable word loads: a request
            # plus a word response, one message per load.
            self._charge_elided_polls(core, var, 2 * self._n * rounds,
                                      REQUEST_BYTES, REQUEST_BYTES + 8, 1)
        self._scan(core, var, state, ticket, callback)

    def _lock_release(self, core, var, callback) -> None:
        # number[i] = 0: one store.
        self._charge_sequence(core, var, 0, 1, self._released,
                              core, var, self._lock_state(var.addr), callback)

    def _released(self, core, var, state, callback) -> None:
        state.release(core.core_id)
        # Wake every doorway scanner: each rescans once for real and only
        # the new FIFO owner proceeds — the O(N) release herd the bakery
        # algorithm is measured for.
        self._spin_signal(var.addr, "L")
        callback()

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def lock_owner(self, var: SyncVar) -> Optional[int]:
        state = self._locks.get(var.addr)
        return state.owner_core if state else None

    def destroy_var(self, var: SyncVar) -> None:
        self._locks.pop(var.addr, None)
