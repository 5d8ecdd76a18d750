"""The Synchronization Table (ST), paper Sec. 4.2.2 / Fig. 7.

Each SE has a small fully-associative table (64 entries in the evaluated
configuration).  An entry buffers one active synchronization variable:

- the variable's 64-bit address (our key),
- the *global waiting list*: one bit per SE of the system (used only when
  this SE is the variable's Master SE),
- the *local waiting list*: one bit per NDP core of this unit,
- a free/occupied state bit,
- a 64-bit ``TableInfo`` field whose meaning is primitive-specific
  (lock owner, barrier arrival count, semaphore resources, lock address of a
  condition variable).

The hardware's bit-queues do not encode arrival order; grants happen "in
sequence".  We keep FIFO deques (a deterministic refinement of the same
information — each id appears at most once, matching the 1-bit-per-core
budget) so simulations are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, Optional


class STFullError(Exception):
    """Raised when allocation is attempted on a fully-occupied ST."""


@dataclass(slots=True)
class STEntry:
    """One occupied ST entry (Fig. 7).  Slotted: one is built per allocation
    and per ``syncronVar``."""

    addr: int
    var: "object"
    #: FIFO of local core ids waiting on this variable (local waiting list).
    local_waitlist: Deque[int] = field(default_factory=deque)
    #: FIFO of SE ids waiting on this variable (global waiting list; only
    #: meaningful at the Master SE).
    global_waitlist: Deque[int] = field(default_factory=deque)
    #: primitive-specific payload (TableInfo, Fig. 7).
    table_info: int = 0

    # -- protocol scratch state (registers the SPU keeps per transaction) --
    #: lock: local core currently owning the lock, if granted locally.
    local_owner: Optional[int] = None
    #: lock: SE currently holding lock control at the Master (global id).
    owner_se: Optional[int] = None
    #: lock (non-master SE): whether this SE currently holds control.
    has_control: bool = False
    #: lock (non-master SE): a global acquire has been sent and not answered.
    pending_global: bool = False
    #: barrier: number of local arrivals so far.
    arrived: int = 0
    #: barrier: expected arrivals (from MessageInfo).
    expected: int = 0
    #: Sec. 4.4.2 fairness: consecutive local grants.
    local_grant_counter: int = 0
    #: Master-side: SE ids currently in overflow for this variable (mirrors
    #: the syncronVar OverflowInfo bits when the master still has an entry).
    overflow_ses: set = field(default_factory=set)
    #: Master-side: how many indexing-counter increments this memory-resident
    #: state has outstanding (balanced when the state is freed).
    counter_debt: int = 0

    def is_idle(self) -> bool:
        """True when nothing references the entry and it can be freed."""
        return (
            not self.local_waitlist
            and not self.global_waitlist
            and self.local_owner is None
            and self.owner_se is None
            and not self.has_control
            and not self.pending_global
            and self.arrived == 0
        )


class SynchronizationTable:
    """A fixed-capacity table of :class:`STEntry`, keyed by address.

    Occupancy (Table 7) is sampled once per message the owning SE serves,
    before the message is handled.  Occupancy changes only on
    :meth:`allocate` and :meth:`release`, so the SE just counts its messages
    in :attr:`unsampled`; the table folds them into
    :meth:`SystemStats.record_st_occupancy
    <repro.sim.stats.SystemStats.record_st_occupancy>` as one run of samples
    at the current occupancy right before each change, and
    :meth:`flush_occupancy` folds the tail when the run ends.  The sums,
    sample counts and maxima equal per-message sampling exactly.
    """

    def __init__(self, entries: int, stats=None, se_id: int = 0):
        if entries < 1:
            raise ValueError("ST needs at least one entry")
        self.capacity = entries
        self._entries: Dict[int, STEntry] = {}
        #: where occupancy samples are folded, under this id.
        self._stats = stats
        self.se_id = se_id
        #: messages served since the last fold (occupancy samples not yet
        #: booked; all taken at the current occupancy).
        self.unsampled = 0
        # lifetime statistics
        self.allocations = 0
        self.peak_occupancy = 0

    def flush_occupancy(self) -> None:
        """Book the pending occupancy samples at the current occupancy."""
        if self.unsampled:
            self._stats.record_st_occupancy(
                self.se_id, len(self._entries), self.unsampled)
            self.unsampled = 0

    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> Optional[STEntry]:
        return self._entries.get(addr)

    def allocate(self, var) -> STEntry:
        """Reserve a new entry for ``var``; raises :class:`STFullError`."""
        if var.addr in self._entries:
            raise ValueError(f"variable {var.name} already has an ST entry")
        if self.is_full:
            raise STFullError(f"ST full ({self.capacity} entries)")
        self.flush_occupancy()
        entry = STEntry(addr=var.addr, var=var)
        entries = self._entries
        entries[var.addr] = entry
        self.allocations += 1
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)
        return entry

    def release(self, addr: int) -> None:
        if addr not in self._entries:
            raise KeyError(f"no ST entry for address {addr:#x}")
        self.flush_occupancy()
        del self._entries[addr]

    def release_if_idle(self, entry: STEntry) -> bool:
        """Free the entry when the protocol no longer needs it."""
        if entry.addr in self._entries and entry.is_idle():
            self.release(entry.addr)
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def occupied(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def __iter__(self) -> Iterator[STEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
