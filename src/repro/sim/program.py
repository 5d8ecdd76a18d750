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
object may be yielded any number of times, by any number of programs, and
the hot programs yield ops built once per run:

- the SCRIMP step in :mod:`repro.workloads.timeseries` builds its fixed
  ops in the workload's ``build``;
- the data structures in :mod:`repro.workloads.datastructures`
  (``linkedlist``, ``skiplist``, ``hashtable``, ``stack``,
  ``priority_queue`` and both BSTs) give each
  :class:`~repro.workloads.datastructures.common.Node` its lock's
  acquire/release ops and an uncacheable load/store of its line when it is
  allocated, keep per-lock ops for locks outside nodes, and share their
  ``Compute`` constants (``queue`` and ``arraymap`` still build theirs
  per yield);
- the graph kernels build each vertex's ``locked_update`` /
  ``unlock_after_update`` op tuples on its first update
  (:class:`~repro.workloads.graphs.runtime.GraphKernelWorkload`), and
  their round barriers' ops once per run.

A :class:`Batch` whose contents depend on the traversal (a search path, a
hash chain, a heap's sift path, an adjacency scan) is still built per
operation, from those prebuilt ops.  The ops are plain slotted classes
whose constructors validate their fields once, on construction.  They
are not frozen, because the remaining programs still allocate one per
yield and a frozen constructor sets every field through
``object.__setattr__``, which costs about three times as much per op.
Equality, hashing and ``repr`` come from the fields in each class's
``__slots__`` (:class:`_Op`); no simulation path calls them.
"""

from __future__ import annotations

from typing import Any


class _Op:
    """Value semantics over the fields a subclass lists in ``__slots__``:
    equal when of the same class with equal fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        # For dict and set membership only; no simulated quantity reads it.
        return hash(self._fields())  # repro: noqa RP001

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Compute(_Op):
    __slots__ = ("instructions",)

    def __init__(self, instructions: int):
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        self.instructions = instructions


class Load(_Op):
    __slots__ = ("addr", "size", "cacheable")

    def __init__(self, addr: int, size: int = 8, cacheable: bool = True):
        self.addr = addr
        self.size = size
        self.cacheable = cacheable


class Store(_Op):
    __slots__ = ("addr", "size", "cacheable")

    def __init__(self, addr: int, size: int = 8, cacheable: bool = True):
        self.addr = addr
        self.size = size
        self.cacheable = cacheable


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


_BATCHABLE = (Compute, Load, Store)


class Batch(_Op):
    """A sequence of Compute/Load/Store ops resolved in one simulator event.

    The core charges each operation's latency back-to-back with a local time
    cursor and resumes once at the end.  This trades a small approximation
    (the batch's resource reservations are not interleaved with other cores
    at sub-batch granularity) for a large event-count reduction — essential
    for traversal-heavy workloads (graph edge scans, tree searches).
    Synchronization operations are not allowed inside a batch.  Like the
    core's dispatch, the check is by exact class: a subclass of an op
    class is not an op the core resolves.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: tuple):
        for op in ops:
            if op.__class__ not in _BATCHABLE:
                raise TypeError(
                    f"Batch only accepts Compute/Load/Store, got {op!r}"
                )
        self.ops = ops


def batch(*ops) -> Batch:
    """Convenience constructor: ``yield batch(Load(a), Load(b), Compute(4))``."""
    return Batch(tuple(ops))


class SyncOp(_Op):
    """Blocking synchronization request (``req_sync`` semantics)."""

    __slots__ = ("op", "var", "info")

    def __init__(self, op: str, var: Any, info: int = 0):
        if op not in ALL_SYNC_OPS:
            raise ValueError(f"unknown sync op {op!r}")
        self.op = op
        self.var = var  # a SyncVar from repro.sim.syncif
        self.info = info


class SyncAsyncOp(_Op):
    """Non-blocking synchronization request (``req_async`` semantics)."""

    __slots__ = ("op", "var", "info")

    def __init__(self, op: str, var: Any, info: int = 0):
        if op not in RELEASE_TYPE_OPS:
            raise ValueError(
                f"req_async is only valid for release-type ops, got {op!r}"
            )
        self.op = op
        self.var = var
        self.info = info
