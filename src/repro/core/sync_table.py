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
from typing import Deque, Dict, Iterator, Optional, Set


class STFullError(Exception):
    """Raised when allocation is attempted on a fully-occupied ST."""


class STEntry:
    """One occupied ST entry (Fig. 7).

    A plain slotted class with a hand-written ``__init__``: one is built
    per allocation and per ``syncronVar``, on the SE message path.  Entries
    compare by identity; the protocol only ever asks whether an entry is
    the one in a table.
    """

    __slots__ = ("addr", "var", "local_waitlist", "global_waitlist",
                 "table_info", "local_owner", "owner_se", "has_control",
                 "pending_global", "arrived", "expected",
                 "local_grant_counter", "overflow_ses", "counter_debt")

    def __init__(self, addr: int, var: object,
                 local_waitlist: Optional[Deque[int]] = None,
                 global_waitlist: Optional[Deque[int]] = None,
                 table_info: int = 0,
                 local_owner: Optional[int] = None,
                 owner_se: Optional[int] = None,
                 has_control: bool = False,
                 pending_global: bool = False,
                 arrived: int = 0,
                 expected: int = 0,
                 local_grant_counter: int = 0,
                 overflow_ses: Optional[Set[int]] = None,
                 counter_debt: int = 0):
        self.addr = addr
        self.var = var
        #: FIFO of local core ids waiting on this variable (local waiting
        #: list); a fresh deque when not given.
        self.local_waitlist = deque() if local_waitlist is None else local_waitlist
        #: FIFO of SE ids waiting on this variable (global waiting list;
        #: only meaningful at the Master SE).
        self.global_waitlist = (deque() if global_waitlist is None
                                else global_waitlist)
        #: primitive-specific payload (TableInfo, Fig. 7).
        self.table_info = table_info
        # -- protocol scratch state (registers the SPU keeps per transaction)
        #: lock: local core currently owning the lock, if granted locally.
        self.local_owner = local_owner
        #: lock: SE currently holding lock control at the Master (global id).
        self.owner_se = owner_se
        #: lock (non-master SE): whether this SE currently holds control.
        self.has_control = has_control
        #: lock (non-master SE): a global acquire has been sent and not
        #: answered.
        self.pending_global = pending_global
        #: barrier: number of local arrivals so far.
        self.arrived = arrived
        #: barrier: expected arrivals (from MessageInfo).
        self.expected = expected
        #: Sec. 4.4.2 fairness: consecutive local grants.
        self.local_grant_counter = local_grant_counter
        #: Master-side: SE ids currently in overflow for this variable
        #: (mirrors the syncronVar OverflowInfo bits when the master still
        #: has an entry); a fresh set when not given.
        self.overflow_ses = set() if overflow_ses is None else overflow_ses
        #: Master-side: how many indexing-counter increments this
        #: memory-resident state has outstanding (balanced when the state
        #: is freed).
        self.counter_debt = counter_debt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"STEntry({fields})"

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
        #: address -> occupied entry.  The SE's handlers look entries up
        #: here directly (``st.entries.get(addr)``); only :meth:`allocate`
        #: and :meth:`release` change it, so occupancy folds stay exact.
        self.entries: Dict[int, STEntry] = {}
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
                self.se_id, len(self.entries), self.unsampled)
            self.unsampled = 0

    # ------------------------------------------------------------------
    def allocate(self, var) -> STEntry:
        """Reserve a new entry for ``var``; raises :class:`STFullError`."""
        entries = self.entries
        addr = var.addr
        if addr in entries:
            raise ValueError(f"variable {var.name} already has an ST entry")
        if len(entries) >= self.capacity:
            raise STFullError(f"ST full ({self.capacity} entries)")
        self.flush_occupancy()
        entry = entries[addr] = STEntry(addr, var)
        self.allocations += 1
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)
        return entry

    def release(self, addr: int) -> None:
        if addr not in self.entries:
            raise KeyError(f"no ST entry for address {addr:#x}")
        self.flush_occupancy()
        del self.entries[addr]

    def release_if_idle(self, entry: STEntry) -> bool:
        """Free the entry when the protocol no longer needs it."""
        if entry.addr in self.entries and entry.is_idle():
            self.release(entry.addr)
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def occupied(self) -> int:
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def __iter__(self) -> Iterator[STEntry]:
        return iter(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)
