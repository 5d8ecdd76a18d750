"""Operation vocabulary for simulated core programs.

A *program* is a Python generator that yields operation objects; the core
model resolves each operation's latency and resumes the generator when it
completes.  Because the generator only advances when its previous operation
finishes, workload code can mutate shared Python state (the functional data
structure / graph / profile values) at exactly the simulated time its
synchronization allows — giving us both timing fidelity and checkable
functional results.

Operations:

- :class:`Compute` — ``n`` dataless instructions (1 IPC in-order core).
- :class:`Load` / :class:`Store` — a memory access to a physical address.
  ``cacheable=False`` models the paper's software-assisted coherence rule
  that shared read-write data bypasses the L1.
- :class:`SyncOp` — a blocking ``req_sync`` to the synchronization mechanism
  (lock_acquire, barrier_wait, sem_wait, cond_wait and their releases when
  the mechanism needs an ACK).
- :class:`SyncAsyncOp` — a non-blocking ``req_async`` (release-type
  semantics: the instruction commits once the message is issued).

Ops are value objects: they compare and hash by their fields and are never
mutated after they are built; the core model only reads them.  So one op
object may be yielded any number of times, by any number of programs: the
SCRIMP step in :mod:`repro.workloads.timeseries`, the hottest program,
yields ops its workload's ``build`` constructed once per run.  Other
programs allocate one per yield, so the ops are slotted, unfrozen
dataclasses; a frozen dataclass's ``__init__`` sets every field through
``object.__setattr__``, which costs about three times as much per op.
Each class's ``__post_init__`` still validates it once, on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True, unsafe_hash=True)
class Compute:
    instructions: int

    def __post_init__(self):
        if self.instructions < 0:
            raise ValueError("instruction count must be non-negative")


@dataclass(slots=True, unsafe_hash=True)
class Load:
    addr: int
    size: int = 8
    cacheable: bool = True


@dataclass(slots=True, unsafe_hash=True)
class Store:
    addr: int
    size: int = 8
    cacheable: bool = True


# Primitive operation names understood by every mechanism implementation.
LOCK_ACQUIRE = "lock_acquire"
LOCK_RELEASE = "lock_release"
BARRIER_WAIT_WITHIN_UNIT = "barrier_wait_within_unit"
BARRIER_WAIT_ACROSS_UNITS = "barrier_wait_across_units"
SEM_WAIT = "sem_wait"
SEM_POST = "sem_post"
COND_WAIT = "cond_wait"
COND_SIGNAL = "cond_signal"
COND_BROADCAST = "cond_broadcast"
# Reader-writer locks (SynCron generality extension; cf. LCU in Sec. 4.5).
RW_READ_ACQUIRE = "rw_read_acquire"
RW_READ_RELEASE = "rw_read_release"
RW_WRITE_ACQUIRE = "rw_write_acquire"
RW_WRITE_RELEASE = "rw_write_release"

ACQUIRE_TYPE_OPS = frozenset(
    {
        LOCK_ACQUIRE,
        BARRIER_WAIT_WITHIN_UNIT,
        BARRIER_WAIT_ACROSS_UNITS,
        SEM_WAIT,
        COND_WAIT,
        RW_READ_ACQUIRE,
        RW_WRITE_ACQUIRE,
    }
)
RELEASE_TYPE_OPS = frozenset(
    {
        LOCK_RELEASE,
        SEM_POST,
        COND_SIGNAL,
        COND_BROADCAST,
        RW_READ_RELEASE,
        RW_WRITE_RELEASE,
    }
)
ALL_SYNC_OPS = ACQUIRE_TYPE_OPS | RELEASE_TYPE_OPS

#: primitive kind of each operation.  The first operation on a SyncVar pins
#: its kind; later operations must match (the single-use rule the real
#: ``create_syncvar`` API cannot even express — see
#: :meth:`repro.sim.syncif.MechanismBase._admit`, which every mechanism
#: funnels through).
OP_KINDS = {
    LOCK_ACQUIRE: "lock",
    LOCK_RELEASE: "lock",
    BARRIER_WAIT_WITHIN_UNIT: "barrier",
    BARRIER_WAIT_ACROSS_UNITS: "barrier",
    SEM_WAIT: "semaphore",
    SEM_POST: "semaphore",
    COND_WAIT: "condvar",
    COND_SIGNAL: "condvar",
    COND_BROADCAST: "condvar",
    RW_READ_ACQUIRE: "rwlock",
    RW_READ_RELEASE: "rwlock",
    RW_WRITE_ACQUIRE: "rwlock",
    RW_WRITE_RELEASE: "rwlock",
}


@dataclass(slots=True, unsafe_hash=True)
class Batch:
    """A sequence of Compute/Load/Store ops resolved in one simulator event.

    The core charges each operation's latency back-to-back with a local time
    cursor and resumes once at the end.  This trades a small approximation
    (the batch's resource reservations are not interleaved with other cores
    at sub-batch granularity) for a large event-count reduction — essential
    for traversal-heavy workloads (graph edge scans, tree searches).
    Synchronization operations are not allowed inside a batch.
    """

    ops: tuple

    def __post_init__(self):
        for op in self.ops:
            if not isinstance(op, (Compute, Load, Store)):
                raise TypeError(
                    f"Batch only accepts Compute/Load/Store, got {op!r}"
                )


def batch(*ops) -> Batch:
    """Convenience constructor: ``yield batch(Load(a), Load(b), Compute(4))``."""
    return Batch(tuple(ops))


@dataclass(slots=True, unsafe_hash=True)
class SyncOp:
    """Blocking synchronization request (``req_sync`` semantics)."""

    op: str
    var: Any  # a SyncVar from repro.sim.syncif
    info: int = 0

    def __post_init__(self):
        if self.op not in ALL_SYNC_OPS:
            raise ValueError(f"unknown sync op {self.op!r}")


@dataclass(slots=True, unsafe_hash=True)
class SyncAsyncOp:
    """Non-blocking synchronization request (``req_async`` semantics)."""

    op: str
    var: Any
    info: int = 0

    def __post_init__(self):
        if self.op not in RELEASE_TYPE_OPS:
            raise ValueError(
                f"req_async is only valid for release-type ops, got {self.op!r}"
            )
